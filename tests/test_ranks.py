import gc
import math
import random
import weakref
from itertools import combinations
from types import SimpleNamespace

import pytest

from sgranks import core, ranks
from sgranks.core import (
    ResourceLimitError,
    SemigroupTable,
    is_generating,
    is_independent,
    is_prime_subset,
)
from sgranks.ranks import (
    Budget,
    SearchOutcome,
    intermediate_rank,
    large_rank,
    lower_rank,
    rank_report,
    small_rank,
    smallest_prime_subset,
    upper_rank,
    verify_conjecture,
)
from sgranks.endo import enumerate_endomorphisms_structural
from sgranks.reference import subset_flags

from _tablegen import (
    chain,
    cyclic_group,
    dihedral_group,
    direct_product,
    full_transformation_monoid,
    left_zero_band,
    null_semigroup,
    random_semigroup_pool,
    rectangular_band,
    relabel,
    semilattice,
    special_tables,
    symmetric_inverse_monoid,
    with_zero,
)


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
        assert subset_flags(table).ranks()["r1"] == 1
    band = special_tables()[1]  # left-zero semigroup, a band
    assert small_rank(band) == subset_flags(band).ranks()["r1"]


def closed_form_tables(monoids, b_tables):
    """Distinct tables of at most 10 elements, most of them bands: the random
    pools, the special tables, End(B_1..3), B_1..3, the closed-form shapes,
    random semilattices and direct products."""
    rng = random.Random(5)
    pool = random_semigroup_pool(seed=1) + random_semigroup_pool()
    tables = pool + special_tables() + list(b_tables.values())
    tables += [monoids[n].table for n in (1, 2, 3)]
    for size in range(1, 11):
        tables += [null_semigroup(size), left_zero_band(size), rectangular_band(1, size)]
        tables += [cyclic_group(size), chain(size)]
    tables += [rectangular_band(r, c) for r in range(2, 6) for c in range(2, 10 // r + 1)]
    tables += [semilattice(rng.sample(range(1, 32), rng.randint(2, 4))) for _ in range(500)]
    bands = [t for t in tables if core.is_band(t) and t.size <= 5]
    tables += [
        direct_product(t, u)
        for t in bands
        for u in (left_zero_band(2), rectangular_band(1, 2), chain(2))
    ]
    tables += [
        direct_product(t, u)
        for t in pool
        for u in (left_zero_band(2), chain(2), cyclic_group(2))
    ]
    return list({t.product: t for t in tables if t.size <= 10}.values())


def test_small_rank_closed_form_matches_oracle(monoids, b_tables):
    tables = closed_form_tables(monoids, b_tables)
    assert len(tables) >= 400
    assert sum(map(core.is_band, tables)) >= 200
    for table in tables:
        assert small_rank(table) == subset_flags(table).ranks()["r1"], table.product


def test_small_rank_runs_no_search(monkeypatch):
    # r1 of a 24-element left-zero band, far past the reference oracle's cap,
    # with every closure and independence test disabled
    def disabled(*args):
        raise AssertionError("r1 must not search")

    monkeypatch.setattr(core, "_closure_mask", disabled)
    monkeypatch.setattr(core, "is_independent", disabled)
    report = rank_report(left_zero_band(24), which=["r1"])
    assert report.records == {"r1": SearchOutcome(24, None, True, "fast-path")}


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


def lex_first_generating(table):
    """(size, ids) of the lex-first smallest generating subset, by definition."""
    flags = subset_flags(table)
    return min((mask.bit_count(), ids_of(mask)) for mask, gen in enumerate(flags.generating) if gen)


def units_first(table):
    """True when the units are the ids 0..g-1 for some 0 < g < N."""
    units = ranks._Search(table, None).units
    return 0 < units.bit_length() < table.size and units & (units + 1) == 0


def test_lower_rank_split_matches_oracle(monoids):
    # monoids whose units come first, relabelled so that they do not, and
    # with their units spread out as in C_k x chain(m): the search splits at
    # the group of units wherever its ids lie
    unit_first = [full_transformation_monoid(2), symmetric_inverse_monoid(2)]
    unit_first += [with_zero(cyclic_group(k)) for k in range(1, 7)]
    shapes = unit_first[:2] + [with_zero(cyclic_group(3)), direct_product(cyclic_group(2), chain(2))]
    contexts = [ranks._Search(t, None) for t in shapes + [left_zero_band(3)]]
    assert [s.units for s in contexts] == [0b11, 0b11, 0b111, 0b1010, 0]
    assert [s.identity for s in contexts] == [0, 0, 0, 1, None]
    unit_first += [monoids[n].table for n in (1, 2, 3)]
    plain = [direct_product(cyclic_group(k), chain(m)) for k, m in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 5))]
    rng = random.Random(7)
    for table in unit_first:
        assert units_first(table), table.product
        for _ in range(3):
            perm = list(range(table.size))
            while True:
                rng.shuffle(perm)
                moved = relabel(table, perm)
                if not units_first(moved):
                    plain.append(moved)
                    break
    for table in plain:
        assert not units_first(table), table.product
    for table in unit_first + plain:
        out = lower_rank(table)
        assert (out.value, out.witness) == lex_first_generating(table), table.product
        assert out.exact and out.method == "exhaustive"


def shuffled(table, seed):
    perm = list(range(table.size))
    random.Random(seed).shuffle(perm)
    return relabel(table, perm)


def test_lower_rank_splits_wherever_the_units_lie(monkeypatch):
    # End(B_5) with its ids shuffled: the split takes 130-136 adjoins, one
    # search over all 126 ids about 350,000
    calls, limit = 0, 1000
    adjoin = ranks._Search.adjoin

    def counted(self, *args):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise AssertionError(f"more than {limit:,} adjoins")
        return adjoin(self, *args)

    monkeypatch.setattr(ranks._Search, "adjoin", counted)
    table = enumerate_endomorphisms_structural(5).table
    for seed in range(3):
        moved = shuffled(table, seed)
        assert not units_first(moved)
        calls = 0
        out = lower_rank(moved)
        assert out.value == 4 and is_generating(out.witness, moved)
    # each search skips an x that its prefix already generates, as the walk
    # does: C4 x chain(6) takes 2,978 adjoins, 7,549 without the skip
    calls, limit = 0, 4000
    out = lower_rank(direct_product(cyclic_group(4), chain(6)))
    assert out == SearchOutcome(6, (0, 1, 2, 3, 4, 11))


def test_lower_rank_witness_is_lex_first_wherever_the_units_lie():
    table = enumerate_endomorphisms_structural(4).table
    for seed in range(3):
        moved = shuffled(table, seed)
        assert not units_first(moved)
        first = next(
            combo
            for k in range(1, 5)
            for combo in combinations(range(moved.size), k)
            if is_generating(combo, moved)
        )
        assert lower_rank(moved) == SearchOutcome(len(first), first)


def test_lower_rank_end_b5():
    # 120 automorphisms then 6 constants: the split searches a pair of
    # automorphisms, then a pair of constants
    table = enumerate_endomorphisms_structural(5).table
    assert units_first(table)
    assert lower_rank(table) == SearchOutcome(4, (1, 32, 120, 125))


def test_end_b5_rank_report():
    # the walk is reduced by the 119 conjugations, so this is exact in about
    # half a second; r3 is four adjacent transpositions and two constants
    table = enumerate_endomorphisms_structural(5).table
    assert rank_report(table, n=5).records == {
        "r1": SearchOutcome(1, None, True, "fast-path"),
        "r2": SearchOutcome(4, (1, 32, 120, 125), True, "exhaustive"),
        "r3": SearchOutcome(6, (1, 2, 6, 24, 120, 125), True, "pruned-search"),
        "r4": SearchOutcome(7, (0, 120, 121, 122, 123, 124, 125), True, "pruned-search"),
        "r5": SearchOutcome(126, (125,), True, "exhaustive"),
    }


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


def prime_subset_by_pairs(table):
    """The smallest prime subset as found from the pair table alone: sizes
    from 1 up, each over the subsets drawn from the largest ids first."""
    n = table.size
    hitters = [[] for _ in range(n)]
    for a, row in enumerate(table.product):
        for b, c in enumerate(row):
            hitters[c].append((a, b))
    for k in range(1, n + 1):
        for combo in combinations(range(n - 1, -1, -1), k):
            if all(a in combo or b in combo for u in combo for a, b in hitters[u]):
                return frozenset(combo)


def count_pair_tables(monkeypatch):
    built = []
    hitters = core._hitters

    def counted(product):
        built.append(len(product))
        return hitters(product)

    monkeypatch.setattr(core, "_hitters", counted)
    return built


def test_prime_singletons_are_found_without_the_pair_table(monkeypatch, monoids, random_tables):
    # the random pool and End(B_1..5), as built and shuffled: the same prime
    # subset as the search over the pair table from k = 1, and the pair
    # table is built only when no singleton is prime
    end5 = enumerate_endomorphisms_structural(5).table
    ends = [m.table for m in monoids.values()] + [end5]
    tables = random_tables + ends + [shuffled(t, seed) for seed, t in enumerate(ends)]
    built = count_pair_tables(monkeypatch)
    singles = 0
    for table in tables:
        built.clear()
        got = smallest_prime_subset(table)
        assert got == prime_subset_by_pairs(table), table.product
        assert built == ([] if len(got) == 1 else [table.size]), table.product
        singles += len(got) == 1
    assert singles < len(tables)  # the pool has a table with no prime singleton
    # End(B_n)'s r5 is its zero constant, found by the singleton scan alone
    built.clear()
    for table in ends:
        report = rank_report(table, which=["r5"])
        assert report.certificates["r5_prime"] == (table.size - 1,)
        assert report.ranks["r5"] == table.size
    assert built == []


def test_tables_without_prime_singletons_search_the_pair_table(monkeypatch):
    # in C_6 and a 2 x 3 rectangular band every u is a product a*b with
    # a, b != u, so the scan of singletons falls through to sizes k >= 2
    built = count_pair_tables(monkeypatch)
    for table, size in [(cyclic_group(6), 3), (rectangular_band(2, 3), 2)]:
        assert not any(is_prime_subset([u], table) for u in range(table.size))
        built.clear()
        got = smallest_prime_subset(table)
        assert built == [table.size]
        assert got == prime_subset_by_pairs(table)
        assert len(got) == size and is_prime_subset(got, table)
        assert large_rank(table)[0] == subset_flags(table).ranks()["r5"] == table.size - size + 1


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


def test_end_b5_walks_cut_at_1000_nodes():
    # End(B_5) has 126 elements, beyond the reference oracle and a complete
    # walk; these pin where the walk stands after 1000 nodes
    m = enumerate_endomorphisms_structural(5)
    budget = Budget(seconds=None, max_nodes=1000)
    best = (0, 120, 121, 122, 123, 124, 125)  # phi_id and the six constants
    assert upper_rank(m.table, budget) == SearchOutcome(7, best, False, "pruned-search")
    assert intermediate_rank(m.table, budget) == SearchOutcome(
        6, (1, 2, 6, 24, 120, 125), False, "pruned-search"
    )
    report = verify_conjecture(5, budget, monoid=m)
    assert (report.verdict, report.witness, report.best_found, report.refutation) == (
        "inconclusive", best, best, None
    )


def test_right_zeros_seed_their_closures_alone(monkeypatch):
    # a right zero x, one of End(B_5)'s constants 120..125, is adjoined from
    # x alone, not by core._adjoin's pass over the mask: 260 of the closures
    # of the walk cut at 1000 nodes, which does not split, and the 7 of r2's
    # second phase.  With the seed off (right_zeros read as 0), values,
    # witnesses, ticks and memos are the same.  The memos hold 988 and 280
    # entries, 638 and 277 without the double-coset fills of adjoin
    m = enumerate_endomorphisms_structural(5)
    plain = []  # the x of each closure that core._adjoin computes
    adjoin = core._adjoin

    def counted(product, gens, mask, x, full):
        plain.append(x)
        return adjoin(product, gens, mask, x, full)

    monkeypatch.setattr(core, "_adjoin", counted)
    for budget, search, ticks, entries, calls, seeds in [
        (Budget(seconds=None, max_nodes=1000), lambda s: ranks._walk(s)[:2], 1001, 988, 120, 260),
        (None, ranks._lower_rank, 0, 280, 120, 7),
    ]:
        runs = []
        for seeded in (True, False):
            s = ranks._Search(m.table, budget)
            if not seeded:
                s.right_zeros = 0  # the cached mask, which only adjoin reads here
            plain.clear()
            runs.append((search(s), s.clock.nodes, s.memo))
            assert len(plain) == calls + (0 if seeded else seeds)
            assert any(x >= 120 for x in plain) != seeded
        assert runs[0] == runs[1]
        assert (runs[0][1], sum(map(len, runs[0][2]))) == (ticks, entries)


def test_end_b5_walk_cut_by_the_wall_clock():
    # a seconds budget is polled every 1024 ticks, so one already spent at
    # the first poll cuts End(B_5)'s walk (17,365 ticks complete) at exactly
    # that tick, with no sleeps; both outcomes are bounds that replay, and
    # so are S_5's two, read off the same walk
    m = enumerate_endomorphisms_structural(5)
    s = ranks._Search(m.table, Budget(seconds=1e-9))
    largest, generating, unit_largest, unit_generating = ranks._walk(s)
    assert s.clock.nodes == 1024
    assert not largest.exact and not generating.exact
    assert not unit_largest.exact and not unit_generating.exact
    assert 0 < largest.value == len(largest.witness) <= 7
    assert 0 < generating.value == len(generating.witness) <= 6
    assert is_independent(largest.witness, m.table)
    assert is_independent(generating.witness, m.table)
    assert is_generating(generating.witness, m.table)


def test_search_tables_are_released(monkeypatch, monoids):
    # the closure memo of a search must be freed when it returns, cut or not,
    # and not be left in a reference cycle for the cyclic collector; a report
    # builds one for r2 and the walk together
    class Memo(list):  # a plain list cannot be weakly referenced
        pass

    built = []
    init = ranks._Search.__init__

    def tracked(self, *args):
        init(self, *args)
        self.memo = Memo(self.memo)
        built.append(weakref.ref(self.memo))

    monkeypatch.setattr(ranks._Search, "__init__", tracked)
    table = monoids[4].table
    gc.collect()
    gc.disable()
    try:
        assert upper_rank(table).value == 6
        assert not upper_rank(table, Budget(seconds=None, max_nodes=100)).exact
        assert lower_rank(table).value == 4
        assert len(built) == 3
        assert all(ref() is None for ref in built)
        assert rank_report(table, n=4).ranks == END_B_RANKS[4]
        assert len(built) == 4
        assert rank_report(table, Budget(seconds=None, max_nodes=100)).budget_exhausted
        assert len(built) == 5
        assert all(ref() is None for ref in built)
    finally:
        gc.enable()


def test_memo_entries_are_closures(monkeypatch, monoids, random_tables):
    # every entry a report leaves in its memo maps a closed mask and an x to
    # the closure of mask + {x} computed from scratch; the tables with units
    # first (End(B_n) and a relabelled C_3 x chain(2)) cover r2's search of the
    # units, whose closures stop growing at the unit mask.  In S_4, D_5 with a
    # zero and End(B_4) with its ids shuffled, some K*x*K holds more than x*K,
    # so adjoin's fills store pairs (K, y) that no search met
    contexts = []
    stored = []  # the entries each adjoin stores: none on a hit, x's own on a miss, and the fill's
    init = ranks._Search.__init__
    adjoin = ranks._Search.adjoin

    def tracked(self, *args):
        init(self, *args)
        contexts.append(self)

    def counted(self, *args):
        room = self.room
        got = adjoin(self, *args)
        stored.append(room - self.room)
        return got

    monkeypatch.setattr(ranks._Search, "__init__", tracked)
    monkeypatch.setattr(ranks._Search, "adjoin", counted)
    grid = direct_product(cyclic_group(3), chain(2))
    units = ids_of(ranks._Search(grid, None).units)
    order = list(units) + [a for a in range(grid.size) if a not in units]
    first = relabel(grid, [order.index(a) for a in range(grid.size)])
    assert units_first(first)
    s4 = monoids[4].aut_subtable()
    double = [s4, with_zero(dihedral_group(5)), shuffled(monoids[4].table, 5)]
    tables = [m.table for m in monoids.values()] + random_tables + [grid, first] + double
    for table in tables:
        contexts.clear()
        stored.clear()
        # S_4's r5 takes seconds and uses no memo, so its report leaves r1 and r5 out
        rank_report(table, which=("r2", "r3", "r4") if table is s4 else None)
        (s,) = contexts
        assert any(s.memo), table.product
        # no report here reaches the bound, so room - self.room never counts an emptying
        assert min(stored) >= 0
        assert max(stored) > 2 or table not in double
        for x, seen in enumerate(s.memo):
            for mask, cl in seen.items():
                assert core._closure_mask(mask, table.product, s.full) == mask
                assert cl == core._closure_mask(mask | 1 << x, table.product, s.full), (
                    table.product, mask, x,
                )


def test_memo_is_emptied_at_its_bound(monkeypatch, monoids, random_tables):
    # a search that keeps meeting new (mask, x) pairs, as r2 and the walk do on
    # a left-zero band, never holds more than _MEMO_ENTRIES entries, and
    # emptying the memo changes no value, witness or method.  The fills of
    # End(B_4) and of S_4 run out of room: they stop there, and the memo is
    # emptied only by the next miss.  S_4's r5 takes seconds and uses no
    # memo, so its report leaves r1 and r5 out
    s4 = monoids[4].aut_subtable()
    tables = [left_zero_band(10), monoids[3].table, monoids[4].table, s4] + random_tables[:10]
    keys = [("r2", "r3", "r4") if table is s4 else None for table in tables]
    unbounded = [rank_report(table, which=which).to_dict() for table, which in zip(tables, keys)]
    cap = 40
    monkeypatch.setattr(ranks, "_MEMO_ENTRIES", cap)
    held = []
    cut = []  # the fills that ran out of room before their last y
    grown = []  # (K, K*x*K) of each coset growth in the adjoin under way
    adjoin = ranks._Search.adjoin
    cosets = core._cosets

    def growing(product, gens, group, x, units):
        cl, double = cosets(product, gens, group, x, units)
        grown.append((group, double))
        return cl, double

    def watched(self, *args):
        grown.clear()
        got = adjoin(self, *args)
        held.append(sum(map(len, self.memo)))
        assert held[-1] == cap - self.room
        for mask, double in grown:
            if any(mask not in self.memo[y] for y in ids_of(double)):
                assert self.room == 0
                cut.append(self)
        return got

    monkeypatch.setattr(ranks._Search, "adjoin", watched)
    monkeypatch.setattr(core, "_cosets", growing)
    for table, which, whole in zip(tables, keys, unbounded):
        held.clear()
        cut.clear()
        assert rank_report(table, which=which).to_dict() == whole, table.product
        assert max(held) <= cap
        assert bool(cut) == (table in (monoids[4].table, s4)), table.product
    held.clear()
    rank_report(left_zero_band(10))
    # 2^10 - 1 distinct pairs fill the memo and empty it many times
    assert max(held) == cap
    assert sum(b < a for a, b in zip(held, held[1:])) > 10


def test_complete_walks_leave_pinned_memo_entries(monoids):
    # the walk reads a memo hit inline and stores only through adjoin, so a
    # complete walk leaves one entry per distinct (mask, x) pair it met, and
    # one per pair (K, y) that a miss of a subgroup K filled for y in K*x*K.
    # End(B_n) splits at its constants and walks its units alone, so it
    # leaves the entries of its unit group S_n: 131 and 4495, where the
    # pairs met alone number 78 and 1974, and the walk over all ids, with
    # no fills, left 265 and 2819
    end5 = enumerate_endomorphisms_structural(5)
    for table, entries in [(monoids[4].table, 131), (monoids[4].aut_subtable(), 131),
                           (end5.table, 4495), (end5.aut_subtable(), 4495)]:
        s = ranks._Search(table, None)
        assert ranks._walk(s)[0].exact
        assert sum(map(len, s.memo)) == entries, table.size


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


def test_report_records_back_the_views(monoids):
    report = rank_report(monoids[2].table, n=2)
    assert report.records == {
        "r1": SearchOutcome(1, None, True, "fast-path"),
        "r2": SearchOutcome(3, (1, 2, 4), True, "exhaustive"),
        "r3": SearchOutcome(3, (1, 2, 4), True, "pruned-search"),
        "r4": SearchOutcome(4, (0, 2, 3, 4), True, "pruned-search"),
        "r5": SearchOutcome(5, (4,), True, "exhaustive"),
    }
    assert list(report.certificates) == ["r2", "r3", "r4", "r5_prime"]
    assert report.methods == {k: rec.method for k, rec in report.records.items()}


def test_cut_report_text(monoids):
    # at 3 nodes the walk has no generating set, so r3, and r4 after it, step down
    # to the r2 record
    report = rank_report(
        monoids[3].table, budget=Budget(seconds=None, max_nodes=3), n=3, which=["r2", "r4"]
    )
    assert report.records["r4"] == SearchOutcome(4, (1, 2, 6, 9), False, "chain-step")
    assert report.format_text() == (
        "End(B_3): 10 elements\n"
        "r2 = 4   [exhaustive]   witness: phi_(2,3) phi_(1,2) xi_(1,1) xi_theta\n"
        "r4 = 4   [chain-step]   witness: phi_(2,3) phi_(1,2) xi_(1,1) xi_theta\n"
        "chain: 4 <= 4\n"
        "budget exhausted: some values are lower bounds\n"
    )


def spy_searches(monkeypatch):
    """Patch the walk and r2 to log their names, in call order, to a list."""
    calls = []
    for name in ("_walk", "_lower_rank"):
        def logged(s, search=getattr(ranks, name), name=name):
            calls.append(name)
            return search(s)
        monkeypatch.setattr(ranks, name, logged)
    return calls


@pytest.mark.parametrize("which", [["r3"], ["r4"], ["r3", "r4"]])
def test_complete_walk_runs_no_r2(monkeypatch, monoids, random_tables, which):
    # a walk that found a generating set has r4 >= r3 >= r2, so r2, not asked
    # for, does not run
    calls = spy_searches(monkeypatch)
    for table in [m.table for m in monoids.values()] + random_tables:
        calls.clear()
        report = rank_report(table, Budget(seconds=None), which=which)
        assert not report.budget_exhausted
        assert calls == ["_walk"]


@pytest.mark.parametrize("which", [["r3"], ["r4"], ["r3", "r4"]])
def test_walk_cut_before_any_generating_set_runs_r2_once(monkeypatch, monoids, which):
    # at 3 nodes the walk of End(B_3) or End(B_4) has no generating set, and
    # r3, and r4 after it, step down to the r2 record computed after the walk
    calls = spy_searches(monkeypatch)
    for n, witness in ((3, (1, 2, 6, 9)), (4, (1, 8, 24, 28))):
        calls.clear()
        report = rank_report(monoids[n].table, Budget(seconds=None, max_nodes=3), which=which)
        assert calls == ["_walk", "_lower_rank"]
        stepped = SearchOutcome(4, witness, False, "chain-step")
        assert report.records == {key: stepped for key in which}


# On End(B_2): the identity alone generates nothing else, the whole monoid is
# not independent, and the identity is not prime, as (1 2)(1 2) = id.
_FAILING_PRODUCERS = {
    "r2": ("_lower_rank", lambda s: SearchOutcome(1, (0,))),
    "r3": ("_walk", lambda s: (SearchOutcome(5, (0, 1, 2, 3, 4)),) * 2 + (None, None)),
    "r4": ("_walk", lambda s: (SearchOutcome(5, (0, 1, 2, 3, 4)),) * 2 + (None, None)),
    "r5": ("large_rank", lambda table: (5, frozenset({0}))),
}


@pytest.mark.parametrize("key", sorted(_FAILING_PRODUCERS))
def test_failed_certificate_replay_raises(monkeypatch, monoids, key):
    name, producer = _FAILING_PRODUCERS[key]
    monkeypatch.setattr(f"sgranks.ranks.{name}", producer)
    with pytest.raises(RuntimeError, match=f"^{key} certificate failed replay$"):
        rank_report(monoids[2].table, which=[key])


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


def test_dependent_refutation_is_caught(monkeypatch, monoids):
    # a walk that offered a dependent set of n + 3 elements would be a fault
    # of the engine, caught by the re-verification before any verdict
    whole = tuple(range(len(monoids[2])))  # all 5 = n + 3 elements of End(B_2)
    fake = SearchOutcome(len(whole), whole, True, "pruned-search")
    monkeypatch.setattr(ranks, "_walk", lambda s: (fake, fake))
    with pytest.raises(RuntimeError, match="refutation candidate failed re-verification"):
        verify_conjecture(2, monoid=monoids[2])


def test_verify_conjecture_own_branches():
    # stand-ins for the monoid, read through its n, table and constant_ids
    # only: in a left-zero band every subset is closed, so all 5 ids are
    # independent, n + 3 of them for n = 2
    band = SimpleNamespace(n=2, table=left_zero_band(5), constant_ids=range(1, 4))
    report = verify_conjecture(2, monoid=band)
    assert report.verdict == "refuted-with-witness"
    assert report.refutation == report.best_found == (0, 1, 2, 3, 4)
    assert report.lower_bound == 5
    assert report.computed_value is None
    with pytest.raises(ValueError, match="monoid does not match n"):
        verify_conjecture(3, monoid=band)
    # in a null semigroup 0 = 1*1, so the identity-plus-constants ids are dependent
    null = SimpleNamespace(n=2, table=null_semigroup(5), constant_ids=range(1, 4))
    with pytest.raises(RuntimeError, match="engine fault"):
        verify_conjecture(2, monoid=null)


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


def conjugations_by_definition(table):
    """{x -> g*x*h : g*h = h*g = e}, the maps by which the units conjugate,
    the identity map included; just the identity map if there is no e."""
    p, ids = table.product, range(table.size)
    e = [e for e in ids if all(p[e][x] == x == p[x][e] for x in ids)]
    pairs = [(g, h) for g in ids for h in ids if e and p[g][h] == p[h][g] == e[0]]
    return {tuple(ids)} | {tuple(p[p[g][x]][h] for x in ids) for g, h in pairs}


def test_independent_set_enumeration_matches_definition(monoids):
    from sgranks.ranks import _independent_sets, _Search

    s3 = monoids[3].aut_subtable()
    # End(B_3) shuffled puts the images at other bit positions of each field,
    # and its id 0, unlike the others', is moved by some conjugation
    moved = shuffled(monoids[3].table, 1)
    assert any(p[0] != 0 for p in conjugations_by_definition(moved))
    tables = [monoids[2].table, monoids[3].table, moved, s3,
              symmetric_inverse_monoid(2), direct_product(s3, chain(2))]
    for table in tables:
        flags = subset_flags(table)
        found = set()
        # with no conjugations the walk is the plain one
        for ids, cl in _independent_sets(_Search(table, None), table.size, []):
            # the incrementally adjoined closure matches the one from scratch
            assert cl == flags.closures[sum(1 << a for a in ids)]
            found.add(ids)
        expected = {ids_of(mask) for mask, ind in enumerate(flags.independent) if ind}
        assert found == expected
        # with the conjugations the walk keeps one set per orbit, the lex-min one
        perms = conjugations_by_definition(table)
        reps = {ids for ids in expected if all(tuple(sorted(p[a] for a in ids)) >= ids for p in perms)}
        assert len(reps) < len(expected), table.product
        s = _Search(table, None)
        reduced = {ids for ids, _ in _independent_sets(s, table.size, s.conjugations)}
        assert reduced == reps, table.product
    # the ticks and subsets of complete walks of End(B_2..5), reduced and
    # plain, as README quotes them for n = 4, 5; perfbench's toy end5-walk
    # needs End(B_3)'s plain walk to pass its 100-node budget.  A walk cut by
    # its budget would raise here
    ends = {n: monoids[n].table for n in (2, 3, 4)}
    ends[5] = enumerate_endomorphisms_structural(5).table
    walks = [(2, True, 20, 16), (2, False, 23, 22), (3, True, 79, 42), (3, False, 208, 156),
             (4, True, 847, 260), (4, False, 9411, 4618),
             (5, True, 22803, 3070)]  # End(B_5)'s plain walk takes 1.46M ticks
    for n, reduced, ticks, subsets in walks:
        s = _Search(ends[n], None)
        perms = s.conjugations if reduced else []
        assert sum(1 for _ in _independent_sets(s, s.full.bit_length(), perms)) == subsets, (n, reduced)
        assert s.clock.nodes == ticks, (n, reduced)


def test_packed_fields_at_byte_boundaries():
    # fields are W = 8*ceil((N + 1)/8) bits, so these tables, with N + 1 at
    # 8, 9, 10, 16 and 17, have fields of 8, 16, 16, 16 and 24 bits: the
    # guard at bit N is the top bit of a field for N = 7 and 15, and the
    # lowest of a new byte for N = 8 and 16.  Each has units that conjugate
    # nontrivially; shuffled, the walk takes all ids and the images fall at
    # other bits.  The orbit-pruned walk visits the lex-min sets of the plain
    # walk, in order, with the same witnesses
    plain = Budget(seconds=None, max_nodes=10**9)
    tables = [with_zero(dihedral_group(3)), symmetric_inverse_monoid(2), dihedral_group(4),
              with_zero(dihedral_group(4)), with_zero(dihedral_group(7)), dihedral_group(8),
              direct_product(dihedral_group(4), chain(2))]
    assert [t.size for t in tables] == [7, 7, 8, 9, 15, 16, 16]
    tables += [shuffled(t, t.size) for t in tables]
    for table in tables:
        s = ranks._Search(table, None)
        assert s.conjugations, table.product
        stop = (s.full ^ ranks._splits(s)).bit_length()
        perms = conjugations_by_definition(table)
        every = [ids for ids, _ in ranks._independent_sets(ranks._Search(table, None), stop, [])]
        reps = [ids for ids in every if all(tuple(sorted(p[a] for a in ids)) >= ids for p in perms)]
        assert len(reps) < len(every), table.product
        assert [ids for ids, _ in ranks._independent_sets(s, stop, s.conjugations)] == reps, table.product
        whole = ranks._walk(ranks._Search(table, None))[:2]
        assert whole == ranks._walk(ranks._Search(table, plain))[:2], table.product


def test_orbit_lows_are_memoised_by_the_closure(monoids):
    # _candidates computes C, the lowest id of each orbit of <A> on K, once
    # per closure <A>; the stream is that of C read off <A> by definition,
    # c*<A>^1 = {c} + {c*g : g in <A>}, for every A walked
    from sgranks.ranks import _candidates, _independent_sets, _Search, _splits

    end5 = enumerate_endomorphisms_structural(5).table
    tables = [monoids[n].table for n in (1, 2, 3, 4)] + [end5, with_zero(dihedral_group(4))]
    for table in tables:
        p = table.product
        s = _Search(table, None)
        zeros = _splits(s)
        assert zeros, table.product
        walked = s.full ^ zeros
        got = list(_candidates(s, zeros, s.conjugations))
        expected = []
        for ids, whole in _independent_sets(_Search(table, None), walked.bit_length(), s.conjugations):
            orbits = {min({c} | {p[c][g] for g in ids_of(whole)}) for c in ids_of(zeros)}
            expected.append((ids, tuple(sorted(orbits)), whole == walked))
        assert got == expected, table.size
    # End(B_5)'s 258 candidates have 26 distinct closures, so C is computed 26 times
    s = _Search(end5, None)
    walk = list(_independent_sets(s, 120, s.conjugations))
    assert (len({whole for _, whole in walk}), len(walk)) == (26, 258)


def test_conjugations_are_distinct_automorphisms(monoids):
    from sgranks.ranks import _Search

    aut_tables = [(monoids[n].table, math.factorial(n) - 1) for n in (2, 3, 4)]
    aut_tables += [(monoids[4].aut_subtable(), 23), (full_transformation_monoid(3), 5)]
    none = [monoids[1].table, left_zero_band(3), null_semigroup(3), chain(4)]
    none += [cyclic_group(6), with_zero(cyclic_group(3)), direct_product(cyclic_group(2), chain(2))]
    for table, count in aut_tables + [(t, 0) for t in none]:
        perms = _Search(table, None).conjugations
        assert len(perms) == len(set(perms)) == count, table.product
        assert set(perms) == conjugations_by_definition(table) - {tuple(range(table.size))}
        p = table.product
        for perm in perms:
            assert sorted(perm) == list(range(table.size))
            assert all(
                perm[p[a][b]] == p[perm[a]][perm[b]]
                for a in range(table.size) for b in range(table.size)
            )


def test_node_budget_walks_the_plain_tree(monoids):
    # the split and the conjugations are facts of the table, which no budget
    # changes; _walk alone turns both off under a node budget, so that it
    # counts the nodes of the plain walk: 208 and 9411 ticks on End(B_3) and
    # End(B_4), against 22 and 422 split at the constants, and with no ranks
    # of the group of units read off
    from sgranks.ranks import _Search, _splits, _walk

    plain = Budget(seconds=None, max_nodes=10**9)
    for n, count, ticks, split_ticks in [(3, 5, 208, 22), (4, 23, 9411, 422)]:
        table = monoids[n].table
        constants = sum(1 << c for c in monoids[n].constant_ids)
        for budget in (None, Budget(seconds=10**9), plain):
            s = _Search(table, budget)
            assert _splits(s) == constants, (n, budget)
            assert len(s.conjugations) == count, (n, budget)
        s = _Search(table, None)
        whole = _walk(s)
        assert s.clock.nodes == split_ticks and whole[2] is not None
        s = _Search(table, plain)
        cut = _walk(s)
        assert s.clock.nodes == ticks and cut[2:] == (None, None)
        assert cut[:2] == whole[:2] and cut[0].exact


def test_reduced_walk_matches_plain_walk(monoids, b_tables, random_tables, degenerate_tables):
    # the orbit-pruned walk (no budget) and the plain walk (a node budget that
    # is never reached) agree in value, witness and exactness
    from sgranks.ranks import _Search, _walk

    plain = Budget(seconds=None, max_nodes=10**9)
    tables = [m.table for m in monoids.values()] + list(b_tables.values())
    tables += [monoids[4].aut_subtable(), full_transformation_monoid(3)]
    tables += [direct_product(cyclic_group(k), chain(m)) for k, m in ((2, 2), (3, 2), (4, 3))]
    tables += random_tables + degenerate_tables
    rng = random.Random(11)
    for table in list(tables):
        perm = list(range(table.size))
        rng.shuffle(perm)
        tables.append(relabel(table, perm))
    # the plain walk of I_3 takes over a second, so it is walked once only
    tables.append(symmetric_inverse_monoid(3))
    for table in tables:
        # the first two outcomes: a node budget does not split, so it reads
        # off no ranks of the group of units
        whole = _walk(_Search(table, None))[:2]
        assert whole == _walk(_Search(table, plain))[:2], table.product
        assert whole[0].exact


def test_split_walk_matches_plain_walk(monkeypatch, monoids):
    # the walk split at the right zeros (no budget) against the plain walk (a
    # node budget that is never reached) and, for End(B_5), whose plain walk
    # takes 1.46M ticks, against the orbit-pruned walk over all ids
    from sgranks.ranks import _Search, _splits, _walk

    plain = Budget(seconds=None, max_nodes=10**9)
    end5 = enumerate_endomorphisms_structural(5).table
    tables = [m.table for m in monoids.values()] + [end5]
    tables += [with_zero(cyclic_group(k)) for k in range(1, 5)]
    tables += [with_zero(monoids[n].aut_subtable()) for n in (3, 4)]
    # C_2^3 (g*h = g xor h) acting on two right zeros, which its element 4
    # swaps: its largest candidates, (1, 2, 8, 9) and the later-visited
    # (1, 2, 4, 8), tie in size, so the lex-first needs the explicit comparison
    act = SemigroupTable.from_rows(
        [[g ^ h for h in range(8)] + [8, 9] for g in range(8)]
        + [[8 + (x ^ g >> 2) for g in range(8)] + [8, 9] for x in (0, 1)]
    )
    assert core.validate(act).ok
    assert _walk(_Search(act, None))[0].witness == (1, 2, 4, 8)
    tables.append(act)
    # a right-zero band (a*b = b) has no units and splits at all its ids, so
    # that the walk visits A = () alone; relabelled, it is the same table
    for k in range(2, 7):
        band = SemigroupTable.from_rows([list(range(k))] * k)
        assert shuffled(band, k) == band
        assert _splits(_Search(band, None)) == (1 << k) - 1
        tables.append(band)
    split = {}
    for table in tables:
        s = _Search(table, None)
        split[table] = _walk(s)
        assert _splits(s) and split[table][0].exact, table.product
        # the ranks of the group of units read off the split walk are those
        # of the group's own walk, witnesses included
        if s.units:
            group = core.restrict(table, core._iter_bits(s.units))
            assert split[table][2:] == _walk(_Search(group, None))[:2], table.product
        if table is not end5:
            assert split[table][:2] == _walk(_Search(table, plain))[:2], table.product
    monkeypatch.setattr(ranks, "_splits", lambda s: False)
    assert split[end5][:2] == _walk(_Search(end5, None))[:2]
    monkeypatch.undo()
    # a seeded relabelling of End(B_3) puts units above constants, and a node
    # budget walks the plain tree: neither splits
    moved = shuffled(monoids[3].table, 1)
    assert not _splits(_Search(moved, None))
    assert _walk(_Search(monoids[3].table, plain))[2:] == (None, None)
    assert _walk(_Search(moved, None)) == _walk(_Search(moved, plain))
    # a group has no right zeros, so K is empty and the walk takes all ids
    for group in (cyclic_group(6), monoids[4].aut_subtable()):
        assert _splits(_Search(group, None)) == 0
    # a 24-element right-zero band ends without a tick, where the walk over
    # all its ids would take 2^24 and be cut by the budget
    band = SemigroupTable.from_rows([list(range(24))] * 24)
    s = _Search(band, Budget(seconds=1))
    r4, r3, unit_r4, unit_r3 = _walk(s)
    assert r4 == r3 == SearchOutcome(24, tuple(range(24)), True, "pruned-search")
    assert unit_r4 == unit_r3 == SearchOutcome(0, (), True, "pruned-search")  # no units
    assert s.clock.nodes == 0


def test_split_walk_ticks_and_subsets(monkeypatch, monoids):
    # the split walks End(B_n)'s unit ids alone: the ticks and subsets of the
    # walk of S_n, where the walk over all ids takes 847/260 and 22,803/3070.
    # Its subgroup closures grow by _cosets once per double coset K*x*K:
    # 21 and 347 calls, where one per (K, x) pair met took 66 and 1935
    from sgranks.ranks import _candidates, _Search, _splits

    cosets = []
    real = core._cosets
    monkeypatch.setattr(core, "_cosets", lambda *args: cosets.append(args) or real(*args))
    end5 = enumerate_endomorphisms_structural(5).table
    for table, ticks, subsets, calls in [(monoids[4].table, 422, 31, 21), (end5, 17365, 258, 347)]:
        cosets.clear()
        s = _Search(table, None)
        assert sum(1 for _ in _candidates(s, _splits(s), s.conjugations)) == subsets
        assert s.clock.nodes == ticks
        assert len(cosets) == calls


def subgroups_of(group, size):
    # every subgroup of the group of ids 0..size-1 in table group: the
    # closures of pairs, then of each one with an id joined, until no new one
    product, full = group.product, (1 << group.size) - 1
    found = {core._closure_mask(1 << a | 1 << b, product, full)
             for a in range(size) for b in range(size)}
    grown = True
    while grown:
        joins = {core._closure_mask(k | 1 << x, product, full) for k in found for x in range(size)}
        grown = not joins <= found
        found |= joins
    return found


def test_cosets_match_the_closure_in_s4(monoids):
    # every subgroup K of S_4, the units of End(B_4), and every unit x outside
    # it: the coset growth, with its exit past |G|/2, gives <K + {x}>.  A_4
    # holds exactly |G|/2 elements, where the exit must not fire
    table = monoids[4].table
    product, full = table.product, (1 << table.size) - 1
    units = ranks._Search(table, None).units
    assert units == (1 << 24) - 1
    subgroups = subgroups_of(table, 24)
    assert len(subgroups) == 30
    sizes = set()
    for k in subgroups:
        gens = list(core._iter_bits(k))
        for x in range(24):
            if not k >> x & 1:
                got, _ = core._cosets(product, gens, k, x, units)
                expected = core._grow(product, gens + [x], k | 1 << x, gens + [x], full)
                assert got == expected, (gens, x)
                sizes.add(got.bit_count())
    assert sizes == {2, 3, 4, 6, 8, 12, 24}


def test_chain_holds_on_every_report(monoids, b_tables, random_tables):
    tables = [m.table for m in monoids.values()]
    tables += list(b_tables.values())
    tables += random_tables
    for table in tables:
        r = rank_report(table).ranks
        assert r["r1"] <= r["r2"] <= r["r3"] <= r["r4"] <= r["r5"]


def test_double_cosets_match_the_definition(monoids):
    # for every subgroup K and every x outside it, _cosets gives the closure
    # <K + {x}> and the double coset {k1*x*k2 : k1, k2 in K}, from a greedy
    # generating set of K, which is smaller than K but for K = {e}; the
    # double coset misses K and holds x.  S_4, the dihedral group of order 12
    # and the cyclic group of order 12 have 30, 16 and 6 subgroups; in the
    # two nonabelian ones some K*x*K holds more than one coset of K, in the
    # cyclic group each is the one coset x*K
    for group, count, most in [(monoids[4].aut_subtable(), 30, 4), (dihedral_group(6), 16, 2),
                               (cyclic_group(12), 6, 1)]:
        product, full = group.product, (1 << group.size) - 1
        subgroups = subgroups_of(group, group.size)
        assert len(subgroups) == count
        sizes = set()
        for k in subgroups:
            members = ids_of(k)
            gens, held = [], 0
            for a in members:
                if not held >> a & 1:
                    gens.append(a)
                    held = core._closure_mask(held | 1 << a, product, full)
            assert held == k
            for x in range(group.size):
                if k >> x & 1:
                    continue
                expected = sum({1 << product[product[k1][x]][k2] for k1 in members for k2 in members})
                cl, got = core._cosets(product, gens, k, x, full)
                assert cl == core._closure_mask(k | 1 << x, product, full), (group.product, members, x)
                assert got == expected, (group.product, members, x)
                assert got >> x & 1 and not got & k
                sizes.add(got.bit_count() // len(members))
        assert max(sizes) == most
