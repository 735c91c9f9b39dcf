from types import SimpleNamespace

import pytest

from sgranks import verify
from sgranks.endo import enumerate_endomorphisms_structural
from sgranks.ranks import Budget


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
    assert named["generating-sets-contain-constants"].status == verify.SKIPPED
    assert named["independent-generating-bound"].status == verify.SKIPPED
    # the structural claims still verify outright
    for name in (
        "monoid-structure",
        "automorphism-products",
        "zero-products",
        "nonzero-constant-products",
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
    assert verify._check_symmetric_group_ranks(m, None) == verify.CheckResult(
        "symmetric-group-ranks", verify.PASS,
        "automorphism subtable has r3 = 4, r4 = 4, expected 4",
    )
    # n = 6 is skipped before any table is read
    assert verify._check_symmetric_group_ranks(SimpleNamespace(n=6), None) == verify.CheckResult(
        "symmetric-group-ranks", verify.SKIPPED, "subset search capped at n <= 5, got n=6"
    )
