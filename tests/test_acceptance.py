"""Acceptance gate: one test per advertised criterion, each printing a verdict
line (run with -s to watch them stream).  Time limits are generous envelopes
for slow machines; the searches themselves finish orders of magnitude faster.
"""

import random
import time

from sgranks.core import (
    is_generating,
    is_independent,
    is_prime_subset,
)
from sgranks.endo import enumerate_endomorphisms_oracle
from sgranks.ranks import (
    Budget,
    intermediate_rank,
    rank_report,
    small_rank,
    small_rank_exhaustive,
    smallest_prime_subset,
    upper_rank,
    verify_conjecture,
)
from sgranks.reference import subset_flags
from sgranks.verify import (
    generating_witness_ids,
    independent_generating_witness_ids,
    max_independent_witness_ids,
)


def report_line(k, text):
    print(f"CRITERION {k}: PASS - {text}")


def test_criterion_1_endomorphism_classification(monoids):
    t0 = time.monotonic()
    for n in (1, 2):
        oracle = enumerate_endomorphisms_oracle(n)
        assert {f.image for f in oracle} == {f.image for f in monoids[n].elements}
        assert len(oracle) == (3, 5)[n - 1]
    small_elapsed = time.monotonic() - t0
    assert small_elapsed < 1.0
    t0 = time.monotonic()
    oracle3 = enumerate_endomorphisms_oracle(3)
    assert {f.image for f in oracle3} == {f.image for f in monoids[3].elements}
    assert len(oracle3) == 10
    elapsed3 = time.monotonic() - t0
    assert elapsed3 < 60.0
    report_line(1, f"oracle = structural for n=1,2,3 with sizes 3,5,10 "
                   f"({small_elapsed:.2f}s + {elapsed3:.2f}s)")


def test_criterion_2_small_rank(monoids):
    for n in (2, 3, 4):
        assert small_rank(monoids[n].table) == 1
    for n in (2, 3):
        assert small_rank_exhaustive(monoids[n].table) == 1
    assert small_rank(monoids[1].table) == 3
    report_line(2, "r1(End(B_n)) = 1 for n=2,3,4 (generic search agrees for n=2,3); "
                   "r1(End(B_1)) = 3")


def test_criterion_3_lower_rank(monoids):
    values = {}
    for n in (2, 3, 4):
        t0 = time.monotonic()
        report = rank_report(monoids[n].table, n=n, which=["r2"])
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        values[n] = report.ranks["r2"]
    assert values == {2: 3, 3: 4, 4: 4}
    for n in (3, 4):
        witness = generating_witness_ids(monoids[n])
        assert len(witness) == 4
        assert is_generating(witness, monoids[n].table)
    report_line(3, "r2 = 3, 4, 4 for n=2,3,4; the 4-element witness set generates for n=3,4")


def test_criterion_4_intermediate_rank(monoids):
    for n in (2, 3, 4):
        out = intermediate_rank(monoids[n].table)
        assert out.exact and out.value == n + 1
        witness = independent_generating_witness_ids(monoids[n])
        assert len(witness) == n + 1
        assert is_independent(witness, monoids[n].table)
        assert is_generating(witness, monoids[n].table)
    for n in (2, 3):  # full subset enumeration, at most 2^10 subsets
        assert subset_flags(monoids[n].table).ranks()["r3"] == n + 1
    t0 = time.monotonic()
    out4 = intermediate_rank(monoids[4].table)
    elapsed = time.monotonic() - t0
    assert out4.exact and out4.value == 5
    assert elapsed < 300.0
    report_line(4, f"r3 = n+1 for n=2,3,4, exhaustively confirmed for n=2,3; "
                   f"complete pruned search for n=4 in {elapsed:.2f}s")


def test_criterion_5_upper_rank_and_conjecture(monoids):
    for n in (2, 3, 4):
        witness = max_independent_witness_ids(monoids[n])
        assert len(witness) == n + 2
        assert is_independent(witness, monoids[n].table)
    # definitive values by direct subset enumeration (32 and 1024 subsets)
    for n, expected in ((2, 4), (3, 5)):
        table = monoids[n].table
        assert subset_flags(table).ranks()["r4"] == expected
        assert upper_rank(table).value == expected
    t0 = time.monotonic()
    conj = verify_conjecture(4, budget=Budget(seconds=600.0), monoid=monoids[4])
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    assert conj.verdict in {"confirmed", "refuted-with-witness", "inconclusive"}
    if conj.refutation is not None:
        assert is_independent(conj.refutation, monoids[4].table)
    # the search is deterministic and completes: record its verdict as evidence
    assert conj.verdict == "confirmed"
    assert conj.computed_value == 6
    report_line(5, f"size-(n+2) witness independent for n=2,3,4; r4 = 4, 5 exhaustively "
                   f"for n=2,3; n=4 explorer: {conj.verdict} (r4 = 6) in {elapsed:.2f}s")


def test_criterion_6_large_rank(monoids):
    t0 = time.monotonic()
    for n, expected in ((2, 5), (3, 10), (4, 29)):
        m = monoids[n]
        assert smallest_prime_subset(m.table) == {m.zero_id}
        report = rank_report(m.table, n=n, which=["r5"])
        assert report.ranks["r5"] == expected
    for n in (2, 3):
        assert subset_flags(monoids[n].table).ranks()["r5"] == len(monoids[n])
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report_line(6, f"smallest prime subset is the zero constant and r5 = 5, 10, 29 "
                   f"for n=2,3,4 (definition agrees for n=2,3) in {elapsed:.2f}s")


def test_criterion_7_symmetric_group_cross_check(monoids):
    t0 = time.monotonic()
    for n in (3, 4):
        sub = monoids[n].aut_subtable()
        assert intermediate_rank(sub).value == n - 1
        assert upper_rank(sub).value == n - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report_line(7, f"automorphism subtable has r3 = r4 = n-1 for n=3,4 in {elapsed:.2f}s")


def test_criterion_8_engine_soundness(monoids, b_tables, random_tables):
    tables = [m.table for m in monoids.values()]
    tables += list(b_tables.values())
    tables += list(random_tables)

    for table in tables:
        report = rank_report(table)
        r = report.ranks
        assert r["r1"] <= r["r2"] <= r["r3"] <= r["r4"] <= r["r5"]
        assert is_generating(report.certificates["r2"], table)
        assert is_independent(report.certificates["r3"], table)
        assert is_generating(report.certificates["r3"], table)
        assert is_independent(report.certificates["r4"], table)
        assert is_prime_subset(report.certificates["r5_prime"], table)

    # closure laws and independence heredity on every subset at N <= 10, with
    # closures as bitmasks; monotonicity on all pairs at N <= 5, sampled above
    for table in tables:
        size = table.size
        if size > 10:
            continue
        flags = subset_flags(table)
        closures = flags.closures
        for s, cl in enumerate(closures):
            assert s & cl == s
            assert closures[cl] == cl
        if size <= 5:
            pairs = [(u, v) for v in range(1 << size) for u in range(v + 1) if u & v == u]
        else:
            rng = random.Random(11)
            pairs = []
            for _ in range(2000):
                u = rng.randrange(1 << size)
                pairs.append((u, u | rng.randrange(1 << size)))
        for u, v in pairs:
            assert closures[u] & closures[v] == closures[u]
        # drop any one element of an independent set and it stays independent
        for s, independent in enumerate(flags.independent):
            if independent:
                assert all(flags.independent[s & ~(1 << a)] for a in range(size) if s >> a & 1)

    report_line(8, f"chain, closure laws, heredity and certificate replay on "
                   f"{len(tables)} tables ({len(random_tables)} random)")
