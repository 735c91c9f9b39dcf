import pytest

from sgranks.core import (
    ResourceLimitError,
    is_generating,
    is_independent,
    is_prime_subset,
)
from sgranks.ranks import (
    Budget,
    intermediate_rank,
    large_rank,
    lower_rank,
    rank_report,
    small_rank,
    small_rank_exhaustive,
    smallest_prime_subset,
    upper_rank,
    verify_conjecture,
)
from sgranks.reference import subset_flags

from _tablegen import cyclic_group, left_zero_band, null_semigroup, special_tables


def ids_of(mask):
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


# --- frozen values ----------------------------------------------------------

END_B_RANKS = {
    1: {"r1": 3, "r2": 3, "r3": 3, "r4": 3, "r5": 3},
    2: {"r1": 1, "r2": 3, "r3": 3, "r4": 4, "r5": 5},
    3: {"r1": 1, "r2": 4, "r3": 4, "r4": 5, "r5": 10},
    4: {"r1": 1, "r2": 4, "r3": 5, "r4": 6, "r5": 29},
}


# certificates of the complete searches, which are lex-first at their size
END_B_CERTIFICATES = {
    3: {"r2": (1, 2, 6, 9), "r3": (1, 2, 6, 9), "r4": (0, 6, 7, 8, 9), "r5_prime": (9,)},
    4: {"r2": (1, 8, 24, 28), "r3": (1, 2, 6, 24, 28), "r4": (0, 24, 25, 26, 27, 28),
        "r5_prime": (28,)},
}


def test_end_bn_rank_reports(monoids):
    for n, m in monoids.items():
        report = rank_report(m.table, n=n)
        assert report.ranks == END_B_RANKS[n], f"n={n}"
        assert not report.budget_exhausted
        if n in END_B_CERTIFICATES:
            assert report.certificates == END_B_CERTIFICATES[n], f"n={n}"


def test_end_b2_witnesses(monoids):
    report = rank_report(monoids[2].table, n=2)
    assert report.certificates["r2"] == (1, 2, 4)  # phi_(1,2), xi_(1,1), xi_theta
    assert report.certificates["r3"] == (1, 2, 4)
    assert report.certificates["r4"] == (0, 2, 3, 4)  # phi_id plus all constants
    assert report.certificates["r5_prime"] == (4,)  # xi_theta
    # a transposition regenerates the identity, so the pair is dependent
    assert not is_independent([0, 1], monoids[2].table)


def test_brute_force_agreement_on_end_b2(monoids):
    table = monoids[2].table
    assert subset_flags(table).ranks() == END_B_RANKS[2]


def test_brute_force_agreement_on_end_b3(monoids):
    table = monoids[3].table
    assert subset_flags(table).ranks() == END_B_RANKS[3]


def test_brandt_tables_have_sound_reports(b_tables):
    # engine-vs-definition agreement on the Brandt tables themselves
    for n, table in b_tables.items():
        report = rank_report(table)
        assert report.ranks == subset_flags(table).ranks(), f"B_{n}"


def test_b1_ranks_all_two(b_tables):
    report = rank_report(b_tables[1])
    assert report.ranks == {"r1": 2, "r2": 2, "r3": 2, "r4": 2, "r5": 2}


def test_small_rank_fast_path_agrees(monoids, b_tables):
    for table in (monoids[2].table, monoids[3].table, b_tables[2], b_tables[3]):
        assert small_rank(table) == 1
        assert small_rank_exhaustive(table) == 1
    band = special_tables()[1]  # left-zero semigroup, a band
    assert small_rank(band) == small_rank_exhaustive(band)


def test_lower_rank_reports_lex_first_witness(monoids):
    out = lower_rank(monoids[2].table)
    assert out.value == 3 and out.witness == (1, 2, 4) and out.exact
    out3 = lower_rank(monoids[3].table)
    assert out3.value == 4
    assert is_generating(out3.witness, monoids[3].table)
    # nothing lexicographically earlier of that size generates
    flags = subset_flags(monoids[3].table)
    assert not any(
        gen and mask.bit_count() == 4 and ids_of(mask) < out3.witness
        for mask, gen in enumerate(flags.generating)
    )


def test_intermediate_witnesses_replay(monoids):
    for n in (2, 3, 4):
        table = monoids[n].table
        out = intermediate_rank(table)
        assert out.value == n + 1 and out.exact
        assert is_independent(out.witness, table)
        assert is_generating(out.witness, table)


def test_upper_rank_values(monoids):
    assert upper_rank(monoids[2].table).value == 4
    assert upper_rank(monoids[3].table).value == 5
    assert upper_rank(monoids[4].table).value == 6
    # C_6 has two largest independent sets, {2, 3} and {3, 4}, both generating:
    # the lex-first one is the witness for r3 and r4 alike
    c6 = cyclic_group(6)
    assert upper_rank(c6).witness == intermediate_rank(c6).witness == (2, 3)


def test_prime_subsets_of_b2(b_tables):
    t = b_tables[2]
    # (1,2) and (2,1) are prime singletons: any product equal to one of them
    # has it as a factor; theta and the diagonal idempotents are not
    assert is_prime_subset([2], t)
    assert is_prime_subset([3], t)
    assert not is_prime_subset([0], t)
    assert not is_prime_subset([1], t)
    assert not is_prime_subset([4], t)
    assert smallest_prime_subset(t) == {3}
    assert large_rank(t) == (5, frozenset({3}))


def test_smallest_prime_prefers_zero_constant(monoids):
    # End(B_2) has two prime singletons, the non-identity automorphism and the
    # zero constant; the certificate scan prefers the zero constant
    t = monoids[2].table
    assert is_prime_subset([1], t)
    assert is_prime_subset([4], t)
    assert smallest_prime_subset(t) == {4}
    for n in (2, 3):
        m = monoids[n]
        value, prime = large_rank(m.table)
        assert prime == {m.zero_id}
        assert value == len(m)
        assert subset_flags(m.table).ranks()["r5"] == value


def test_budget_exhaustion_flags_bounds(monoids):
    table = monoids[3].table
    tight = Budget(seconds=None, max_nodes=3)
    out = upper_rank(table, tight)
    assert not out.exact
    assert out.value <= 5
    report = rank_report(table, budget=tight, n=3)
    assert report.budget_exhausted
    # bounds are still sound and certificates still replay
    ranks = report.ranks
    assert ranks["r1"] <= ranks["r2"] <= ranks["r3"] <= ranks["r4"] <= ranks["r5"]
    assert is_independent(report.certificates["r4"], table)
    assert is_generating(report.certificates["r2"], table)
    # r3 and r4 share one walk; under a node budget it is cut exactly where
    # each of the two separate walks used to be.  At 3 nodes both fall back
    # to the r2 witness.
    sweep = {
        3: (4, (1, 2, 6, 9), 4, (1, 2, 6, 9)),
        20: (4, (1, 2, 6, 9), 5, (0, 6, 7, 8, 9)),
        100: (4, (1, 2, 6, 9), 5, (0, 6, 7, 8, 9)),
    }
    for max_nodes, expected in sweep.items():
        report = rank_report(table, budget=Budget(seconds=None, max_nodes=max_nodes), n=3)
        r, c = report.ranks, report.certificates
        assert (r["r3"], c["r3"], r["r4"], c["r4"]) == expected, max_nodes
        assert report.budget_exhausted


def test_rank_report_which_filter(monoids):
    report = rank_report(monoids[2].table, which=["r1", "r5"], n=2)
    assert set(report.ranks) == {"r1", "r5"}
    assert "r2" not in report.certificates
    with pytest.raises(ValueError):
        rank_report(monoids[2].table, which=["r9"])


def test_rank_report_serialization(monoids):
    data = rank_report(monoids[2].table, n=2).to_dict()
    assert data["n"] == 2
    assert data["ranks"] == END_B_RANKS[2]
    assert data["certificates"]["r5_prime"] == ["xi_theta"]
    assert data["certificates"]["r2"] == ["phi_(1,2)", "xi_(1,1)", "xi_theta"]
    assert data["budget_exhausted"] is False
    assert set(data["methods"]) == {"r1", "r2", "r3", "r4", "r5"}


# (table, (r1, r2, r3, r4, r5)) for shapes whose ranks have closed forms.  For
# C_k, r3 = r4 = the number of distinct primes dividing k and r5 = 1 + k/p,
# p the smallest of them: the complement of the largest proper subgroup.
CLOSED_FORMS = (
    [(null_semigroup(size), (1, size - 1, size - 1, size - 1, size)) for size in (2, 3, 5)]
    + [(left_zero_band(size), (size,) * 5) for size in (1, 4, 6)]
    + [
        (cyclic_group(k), (1, 1, primes, primes, r5))
        for k, primes, r5 in ((2, 1, 2), (4, 1, 3), (6, 2, 4), (9, 1, 4), (12, 2, 7))
    ]
)


def test_reference_oracle_values(monoids):
    # largest independent generating subset of End(B_n): n + 1, but 3 for n = 1
    assert [subset_flags(monoids[n].table).ranks()["r3"] for n in (1, 2, 3)] == [3, 3, 4]
    for table, expected in CLOSED_FORMS:
        assert tuple(subset_flags(table).ranks().values()) == expected, table
        assert tuple(rank_report(table).ranks.values()) == expected, table
    with pytest.raises(ResourceLimitError):
        subset_flags(null_semigroup(13))


def test_verify_conjecture_small_n(monoids):
    for n in (2, 3):
        report = verify_conjecture(n, monoid=monoids[n])
        assert report.verdict == "confirmed"
        assert report.predicted == n + 2
        assert report.computed_value == n + 2
        assert len(report.witness) == n + 2
        assert is_independent(report.witness, monoids[n].table)
    with pytest.raises(ValueError):
        verify_conjecture(1)


def test_verify_conjecture_budget_flag(monoids):
    report = verify_conjecture(3, budget=Budget(seconds=None, max_nodes=2), monoid=monoids[3])
    assert report.verdict == "inconclusive"
    assert report.lower_bound >= 5


def test_search_engine_matches_brute_force_on_random_pool(random_tables):
    for table in random_tables:
        expected = subset_flags(table).ranks()
        report = rank_report(table)
        assert report.ranks == expected


def test_search_engine_on_degenerate_tables(degenerate_tables):
    for table in degenerate_tables:
        report = rank_report(table)
        assert report.ranks == subset_flags(table).ranks()


def test_independent_set_enumeration_matches_definition(monoids):
    from sgranks.ranks import _independent_sets

    table = monoids[2].table
    found = {ids for ids, _ in _independent_sets(table)}
    flags = subset_flags(table)
    expected = {ids_of(mask) for mask, ind in enumerate(flags.independent) if ind}
    assert found == expected


def test_chain_holds_on_every_report(monoids, b_tables, random_tables):
    tables = [m.table for m in monoids.values()]
    tables += list(b_tables.values())
    tables += random_tables
    for table in tables:
        r = rank_report(table).ranks
        assert r["r1"] <= r["r2"] <= r["r3"] <= r["r4"] <= r["r5"]
