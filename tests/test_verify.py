import copy
import dataclasses
import itertools
import random
from functools import reduce
from types import SimpleNamespace

import pytest

from sgranks import ranks, reference, verify
from sgranks.endo import (
    AUTOMORPHISM,
    NONZERO_CONSTANT,
    enumerate_endomorphisms_structural,
    full_cycle,
    transposition,
)
from sgranks.ranks import Budget, SearchOutcome

from _tablegen import first_violation


def by_name(results):
    return {r.name: r for r in results}


def test_all_checks_pass_for_n2():
    results = verify.run_checks(2)
    assert all(r.status == verify.PASS for r in results), [
        (r.name, r.status, r.detail) for r in results if r.status != verify.PASS
    ]


def test_all_checks_pass_for_n3():
    results = verify.run_checks(3)
    assert all(r.status == verify.PASS for r in results)


def test_n4_skips_exhaustive_regimes_without_failing():
    results = verify.run_checks(4, budget=Budget(seconds=300))
    named = by_name(results)
    assert not any(r.status == verify.FAIL for r in results)
    assert named["oracle-equivalence"].status == verify.SKIPPED
    assert named["independent-generating-bound"].status == verify.SKIPPED
    # the structural claims still verify outright
    for name in (
        "monoid-structure",
        "automorphism-products",
        "zero-products",
        "nonzero-constant-products",
        "generating-sets-contain-constants",
        "independent-generating-size",
        "independent-set-lower-bound",
        "prime-subset-threshold",
        "symmetric-group-ranks",
    ):
        assert named[name].status == verify.PASS, name


def test_n1_degenerate_checks():
    results = verify.run_checks(1)
    assert not any(r.status == verify.FAIL for r in results)


def test_witness_builders(monoids):
    m = monoids[3]
    # permutations in lex order: (1,2,3) (1,3,2) (2,1,3) (2,3,1) (3,1,2) (3,2,1)
    assert verify.generating_witness_ids(m) == (2, 3, 6, 9)
    assert verify.independent_generating_witness_ids(m) == (1, 2, 6, 9)
    assert verify.max_independent_witness_ids(m) == (0, 6, 7, 8, 9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_small_rank_check_detail(monoids, n):
    detail = (
        "r1 = 3; all 3 elements form an independent set"
        if n == 1
        else "r1 = 1; the identity and the transposition (1 2) are a dependent pair"
    )
    assert verify._check_small_rank(monoids[n]) == verify.CheckResult(
        "small-rank", verify.PASS, detail
    )


def test_symmetric_group_ranks_check_at_n5_and_n6():
    m = enumerate_endomorphisms_structural(5)
    unit_ranks = ranks.rank_report(m.table, which=("r3",)).unit_ranks
    assert verify._check_symmetric_group_ranks(m, unit_ranks) == verify.CheckResult(
        "symmetric-group-ranks", verify.PASS,
        "automorphism subtable has r3 = 4, r4 = 4, expected 4",
    )
    # a walk of End(B_6) cut by its budget leaves S_6's ranks inexact, and the
    # check is skipped before the table is read
    cut = SearchOutcome(5, (1, 2, 6, 24, 120), False, "pruned-search")
    assert verify._check_symmetric_group_ranks(
        SimpleNamespace(n=6), {"r3": cut, "r4": cut}
    ) == verify.CheckResult(
        "symmetric-group-ranks", verify.SKIPPED, "budget exhausted on the automorphism subtable"
    )
    # n = 7 is skipped before any table or rank is read
    assert verify._check_symmetric_group_ranks(SimpleNamespace(n=7), None) == verify.CheckResult(
        "symmetric-group-ranks", verify.SKIPPED, "subset search capped at n <= 6, got n=7"
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_group_ranks_come_from_the_one_walk(monkeypatch, n):
    # run_checks walks once, End(B_n)'s split walk, and S_n's r3 and r4 with
    # their witnesses, read off it, are those of S_n's own report
    walks = []
    walk = ranks._walk

    def counted(s):
        walks.append(walk(s))
        return walks[-1]

    monkeypatch.setattr(ranks, "_walk", counted)
    results = by_name(verify.run_checks(n))
    monkeypatch.undo()
    assert len(walks) == 1
    assert results["symmetric-group-ranks"].status == verify.PASS
    m = enumerate_endomorphisms_structural(n)
    reference = ranks.rank_report(m.aut_subtable(), which=("r3", "r4")).records
    assert walks[0][2:] == (reference["r4"], reference["r3"])


@pytest.mark.parametrize("key", ["r3", "r4"])
def test_symmetric_group_ranks_replays_both_witnesses(monoids, key):
    # a dependent witness of the right size fails the replay on the
    # automorphism subtable, as the identity 0 lies in every <x>; the forged
    # r3 witness, with the transposition (1 2) and the 4-cycle, generates S_4
    m = monoids[4]
    unit_ranks = ranks.rank_report(m.table, which=("r3",)).unit_ranks
    dependent = (0, m.perm_id(transposition(4, 1, 2)), m.perm_id(full_cycle(4)))
    forged = {**unit_ranks, key: SearchOutcome(3, tuple(sorted(dependent)), True, "pruned-search")}
    assert verify._check_symmetric_group_ranks(m, unit_ranks).status == verify.PASS
    assert verify._check_symmetric_group_ranks(m, forged) == verify.CheckResult(
        "symmetric-group-ranks", verify.FAIL,
        "automorphism subtable has r3 = 3, r4 = 3, expected 3",
    )


def test_symmetric_group_ranks_skipped_when_the_walk_does_not_split():
    # a node budget walks the plain tree over all ids, which reads off no
    # ranks of S_n; every other check still passes
    results = by_name(verify.run_checks(3, Budget(seconds=None, max_nodes=10**6)))
    assert results.pop("symmetric-group-ranks") == verify.CheckResult(
        "symmetric-group-ranks", verify.SKIPPED,
        "the walk of the monoid did not split at its constants, so it gave no ranks of the automorphism subtable",
    )
    assert {r.status for r in results.values()} == {verify.PASS}


def test_automorphism_composition_check_skips_above_n6():
    # n = 7 is skipped before any table is read
    assert verify._check_aut_composition(SimpleNamespace(n=7)) == verify.CheckResult(
        "automorphism-composition", verify.SKIPPED, "pairwise table check capped at n <= 6, got n=7"
    )


def test_automorphism_composition_check_passes_on_end_b6():
    # all 720^2 products of End(B_6)'s automorphisms, a row at a time
    m = enumerate_endomorphisms_structural(6)
    assert verify._check_aut_composition(m) == verify.CheckResult(
        "automorphism-composition", verify.PASS,
        "composition of the 720 automorphisms matches permutation composition",
    )


def test_spent_seconds_budget_skips_both_walks():
    # a seconds budget spent by the walk's first poll of the wall clock cuts
    # End(B_5)'s one walk, which gives its r3 and S_5's r3/r4: both checks
    # are SKIPPED, and no check fails
    results = by_name(verify.run_checks(5, Budget(seconds=1e-9)))
    assert results["independent-generating-size"] == verify.CheckResult(
        "independent-generating-size", verify.SKIPPED, "budget exhausted with best bound 6"
    )
    assert results["symmetric-group-ranks"] == verify.CheckResult(
        "symmetric-group-ranks", verify.SKIPPED, "budget exhausted on the automorphism subtable"
    )
    assert not [r.name for r in results.values() if r.status == verify.FAIL]


def product_statuses(m):
    checks = (verify._check_aut_products, verify._check_zero_products, verify._check_nonzero_constant_products)
    return {r.name: r.status for r in (check(m) for check in checks)}


def planted(m, x, a, value):
    """A copy of m whose table has the one product x*a set to value."""
    rows = [list(row) for row in m.table.product]
    rows[x][a] = value
    faulty = copy.copy(m)
    faulty.table = dataclasses.replace(m.table, product=tuple(map(tuple, rows)))
    return faulty


def brute_force_statuses(m, longest=4):
    """Each product law from its definition, on every word of 1..longest letters."""
    p = m.table.product
    auts = {a for a, f in enumerate(m.elements) if f.kind == AUTOMORPHISM}
    consts = {a for a, f in enumerate(m.elements) if f.kind == NONZERO_CONSTANT}
    z = m.zero_id
    holds = {"automorphism-products": True, "zero-products": True, "nonzero-constant-products": True}
    for k in range(1, longest + 1):
        for word in itertools.product(range(len(m)), repeat=k):
            prod = reduce(lambda x, a: p[x][a], word)
            holds["automorphism-products"] &= (prod in auts) == all(a in auts for a in word)
            holds["zero-products"] &= prod != z or z in word
            holds["nonzero-constant-products"] &= (prod in consts) == (
                prod != z and any(a in consts for a in word)
            )
    return {name: verify.PASS if ok else verify.FAIL for name, ok in holds.items()}


# End(B_3) ids: automorphisms 0..5 (identity 0), constants onto (1,1)..(3,3) 6..8, zero 9.
# Each fault sets one product x*a to value; expected statuses are those of the
# automorphism-, zero- and nonzero-constant-products checks, in that order.
FAULTS = {
    "aut-times-aut-is-constant": ((1, 2, 6), (verify.FAIL, verify.PASS, verify.FAIL)),
    "aut-times-constant-is-zero": ((1, 6, 9), (verify.PASS, verify.FAIL, verify.PASS)),
    "zero-times-aut-is-aut": ((9, 1, 2), (verify.FAIL, verify.PASS, verify.FAIL)),
    # in the last columns, which the checks must read too
    "aut-times-constant-is-aut": ((1, 8, 2), (verify.FAIL, verify.PASS, verify.FAIL)),
    "constant-times-zero-is-aut": ((7, 9, 3), (verify.FAIL, verify.PASS, verify.FAIL)),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_product_checks_catch_a_planted_fault(monoids, fault):
    (x, a, value), expected = FAULTS[fault]
    assert tuple(product_statuses(planted(monoids[3], x, a, value)).values()) == expected


# Each sets one product x*a of two automorphisms of End(B_3) to a wrong
# automorphism: in the first, the last and a middle column of the block.
AUT_BLOCK_FAULTS = {
    "first-column": (1, 0, 2),
    "last-column": (2, 5, 4),
    "middle-column": (5, 2, 0),
}


@pytest.mark.parametrize("fault", AUT_BLOCK_FAULTS)
def test_aut_composition_catches_a_planted_product(monoids, fault):
    m = planted(monoids[3], *AUT_BLOCK_FAULTS[fault])
    assert verify._check_aut_composition(m) == verify.CheckResult(
        "automorphism-composition", verify.FAIL,
        "composition of the 6 automorphisms matches permutation composition",
    )
    # a product of automorphisms is still one, which the laws allow
    assert product_statuses(m) == brute_force_statuses(m)
    assert set(product_statuses(m).values()) == {verify.PASS}


@pytest.mark.parametrize("n, fault", [(1, None), (2, None), (3, None)] + [(3, f) for f in FAULTS])
def test_product_checks_match_every_short_word(monoids, n, fault):
    m = monoids[n] if fault is None else planted(monoids[n], *FAULTS[fault][0])
    assert product_statuses(m) == brute_force_statuses(m)


# the longest words brute_force_statuses reads on End(B_n), and how many of
# End(B_3)'s 900 single faults are drawn, by a seed, to keep the sweep short
SWEEP_WORDS = {1: 5, 2: 4, 3: 3}
SWEEP_SAMPLE = 200


def single_faults(m):
    """(x, a, value) for each product x*a set to each other id."""
    p, ids = m.table.product, range(len(m))
    return [(x, a, v) for x in ids for a in ids for v in ids if v != p[x][a]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_checks_match_every_single_planted_product(monoids, n):
    # all 18 and 100 faults of End(B_1) and End(B_2), and a sample of End(B_3)'s
    faults = single_faults(monoids[n])
    if n == 3:
        faults = random.Random(36).sample(faults, SWEEP_SAMPLE)
    for fault in faults:
        m = planted(monoids[n], *fault)
        assert product_statuses(m) == brute_force_statuses(m, SWEEP_WORDS[n]), fault


def every_generating_subset_holds_constants(m):
    """The constants claim from its definition: each generating subset holds
    the zero constant and meets the nonzero constants."""
    z = m.zero_id
    nonzero = sum(1 << c for c in m.constant_ids) & ~(1 << z)
    flags = reference.subset_flags(m.table)
    return all(mask >> z & 1 and mask & nonzero for mask, gen in enumerate(flags.generating) if gen)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constants_claim_agrees_with_every_generating_subset(monoids, n):
    # the claim's PASS, read off two prime subsets, against the subsets themselves
    assert every_generating_subset_holds_constants(monoids[n])
    assert verify._check_generating_sets_contain_constants(monoids[n]).status == verify.PASS


@pytest.mark.parametrize("fault", ["aut-times-constant-is-zero", "aut-times-aut-is-constant"])
def test_constants_claim_fails_when_a_prime_subset_breaks(monoids, fault):
    # the first fault makes {z} not prime, the second the nonzero constants,
    # and in both some generating subset misses them
    m = planted(monoids[3], *FAULTS[fault][0])
    assert not every_generating_subset_holds_constants(m)
    assert verify._check_generating_sets_contain_constants(m).status == verify.FAIL


def test_product_checks_pass_on_end_b5():
    got = product_statuses(enumerate_endomorphisms_structural(5))
    assert set(got.values()) == {verify.PASS}, got


def test_associativity_check_passes_on_end_b6():
    m = enumerate_endomorphisms_structural(6)
    assert verify._check_associativity(m) == verify.CheckResult(
        "table-associativity", verify.PASS, "all triples associate"
    )


def test_associativity_check_names_the_lex_first_triple(monoids):
    # End(B_4): automorphism 13 times the constant 25 set to the zero constant;
    # neither factor is among the generators validate's test reads
    m = planted(monoids[4], 13, 25, 28)
    triple = first_violation(m.table)
    assert triple is not None
    assert verify._check_associativity(m) == verify.CheckResult(
        "table-associativity", verify.FAIL, f"violated at {triple}"
    )
