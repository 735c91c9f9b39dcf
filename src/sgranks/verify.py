"""Per-claim verification checklist for End(B_n).

Every structural fact the rank shortcuts rely on is re-checked here from the
composition table itself, one PASS/FAIL/SKIPPED line per claim.  Checks whose
exhaustive regime ends below the requested n report SKIPPED rather than
guessing.  The three product laws are checked exactly, over every word of
every length, not on a sample of words: each is a fact about prime subsets
and ideals of the table, decided on its two-letter products by
core.is_prime_subset and one containment check.  Two prime subsets settle
the claim that every generating set holds the constants, at every n.

One walk serves every rank check.  End(B_n)'s r3 walk splits at its
constants, the right zeros, and walks the unit ids, S_n, alone (see
ranks._walk); a set of units closes within S_n, so it is independent there
exactly when it is in End(B_n).  So the lex-first largest independent A,
and the lex-first largest with <A> = S_n, are S_n's r4 and r3 with their
witnesses, in the ids of m.aut_subtable(), where both are replayed.  A walk
that does not split, as under a node budget, gives no ranks of S_n, and the
check says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import core, ranks, reference
from .endo import (
    ORACLE_MAX_N,
    EndoMonoid,
    enumerate_endomorphisms_oracle,
    enumerate_endomorphisms_structural,
    full_cycle,
    transposition,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, PASS if ok else FAIL, detail)


def _with_constants(m: EndoMonoid, perms) -> tuple[int, ...]:
    """The ids of the automorphisms induced by perms, of the constant onto
    (1,1) and of the zero constant, each once, in ascending order."""
    ids = {m.perm_id(sigma) for sigma in perms}
    return tuple(sorted(ids | {m.constant_id(1), m.zero_id}))


def generating_witness_ids(m: EndoMonoid) -> tuple[int, ...]:
    """The standard small generating set: the transposition (1 2), the full
    n-cycle, the constant onto (1,1) and the zero constant.  For n = 2 the
    transposition and the cycle coincide, so the set has 3 elements."""
    return _with_constants(m, (transposition(m.n, 1, 2), full_cycle(m.n)))


def independent_generating_witness_ids(m: EndoMonoid) -> tuple[int, ...]:
    """The standard size-(n+1) independent generating set: all adjacent
    transpositions plus the constant onto (1,1) and the zero constant."""
    return _with_constants(m, (transposition(m.n, i, i + 1) for i in range(1, m.n)))


def max_independent_witness_ids(m: EndoMonoid) -> tuple[int, ...]:
    """The guaranteed independent set of size n + 2: identity plus all constants."""
    return (0,) + tuple(m.constant_ids)


def _check_monoid_structure(m: EndoMonoid) -> CheckResult:
    n = m.n
    expected = math.factorial(n) + n + 1
    ok = len(m) == expected
    p = m.table.product
    ok = ok and all(p[0][b] == b and p[b][0] == b for b in range(len(m)))
    ok = ok and all(p[a][m.zero_id] == m.zero_id for a in range(len(m)))
    return _result(
        "monoid-structure",
        ok,
        f"size {len(m)} = {n}!+{n}+1; identity first, zero constant absorbs on the right",
    )


def _check_associativity(m: EndoMonoid) -> CheckResult:
    report = core.validate(m.table)
    return _result(
        "table-associativity",
        report.ok,
        "all triples associate" if report.ok else f"violated at {report.violation}",
    )


def _check_oracle(m: EndoMonoid) -> CheckResult:
    if m.n > ORACLE_MAX_N:
        return CheckResult(
            "oracle-equivalence", SKIPPED,
            f"exhaustive backtracking capped at n <= {ORACLE_MAX_N}, got n={m.n}",
        )
    found = enumerate_endomorphisms_oracle(m.n)
    same = {f.image for f in found} == {f.image for f in m.elements}
    return _result(
        "oracle-equivalence",
        same and len(found) == len(m),
        f"backtracking found {len(found)} multiplicative self-maps, structural list has {len(m)}",
    )


def _check_aut_composition(m: EndoMonoid) -> CheckResult:
    if m.n > 6:
        return CheckResult("automorphism-composition", SKIPPED, f"pairwise table check capped at n <= 6, got n={m.n}")
    p = m.table.product
    auts = m.automorphism_ids  # 0..n!-1, the first n! entries of each row
    perms = [m.elements[a].perm for a in auts]
    # perm_compose(sigma, tau), sigma first and then tau, is tau read at
    # sigma's points, so one getter per sigma composes it with every tau
    ids = {tau: b for b, tau in enumerate(perms)}
    ok = all(
        p[a][:len(auts)] == tuple(map(ids.get, map(core._pick([i - 1 for i in sigma]), perms)))
        for a, sigma in zip(auts, perms)
    )
    distinct = len(ids) == len(perms)
    return _result(
        "automorphism-composition",
        ok and distinct,
        f"composition of the {len(perms)} automorphisms matches permutation composition",
    )


# Each product law below is a fact about the words w1...wk over the ids, of
# every length, decided on the two-letter words alone.  A word multiplies as
# the left fold x*wk with x = w1...w(k-1), so by induction on k each fact
# passes from the pairs to every word: a prime subset P holds x*wk only when
# it holds x or wk, and a set S whose rows and columns lie in K puts x*wk in
# K when x or wk is in S.  A one-letter word satisfies each law outright.


def _within(m: EndoMonoid, rows, columns, ids) -> bool:
    """Whether every product x*a, x in rows and a in columns, lies in ids;
    each row is read at the columns in one C-level call."""
    pick = core._pick(columns)
    return all(map(set(ids).issuperset, map(pick, core._pick(rows)(m.table.product))))


def _nonzero_constants(m: EndoMonoid) -> list[int]:
    return [c for c in m.constant_ids if c != m.zero_id]


def _check_aut_products(m: EndoMonoid) -> CheckResult:
    # the constants K are prime and an ideal, their rows and columns in K, so
    # a product is a constant exactly when some factor is
    consts, every = m.constant_ids, range(len(m))
    return _result(
        "automorphism-products",
        core.is_prime_subset(consts, m.table)
        and _within(m, consts, every, consts)
        and _within(m, every, consts, consts),
        "a product is an automorphism exactly when every factor is",
    )


def _check_zero_products(m: EndoMonoid) -> CheckResult:
    return _result(
        "zero-products",
        core.is_prime_subset([m.zero_id], m.table),
        "a product equals the zero constant only when some factor is the zero constant",
    )


def _check_nonzero_constant_products(m: EndoMonoid) -> CheckResult:
    # the nonzero constants C are prime and their rows and columns lie in the
    # constants, so x*wk is in C or is z when x or wk is in C.  That leaves
    # x = z after a factor in C, which z*a = z for each a outside C settles:
    # z is not a two-sided zero, as z*c = c for c in C
    z, nonzero = m.zero_id, _nonzero_constants(m)
    consts, every = m.constant_ids, range(len(m))
    outside = [a for a in every if a not in nonzero]
    return _result(
        "nonzero-constant-products",
        core.is_prime_subset(nonzero, m.table)
        and _within(m, nonzero, every, consts)
        and _within(m, every, nonzero, consts)
        and _within(m, [z], outside, [z]),
        "a product is a nonzero constant exactly when a factor is one and the product is not the zero constant",
    )


def _check_generating_sets_contain_constants(m: EndoMonoid) -> CheckResult:
    # a generating set meets every prime subset P, as the ids outside P are
    # closed and so generate no more than themselves
    return _result(
        "generating-sets-contain-constants",
        core.is_prime_subset([m.zero_id], m.table)
        and core.is_prime_subset(_nonzero_constants(m), m.table),
        "the zero constant alone and the nonzero constants are prime subsets, which every generating set meets",
    )


def _check_independent_generating_bound(m: EndoMonoid, flags) -> CheckResult:
    if flags is None:
        return CheckResult(
            "independent-generating-bound", SKIPPED,
            f"full subset enumeration capped at n <= 3, got n={m.n}",
        )
    # the bound does not apply at n = 1, where only the whole monoid generates
    largest = flags.ranks()["r3"]
    limit = m.n + 1 if m.n >= 2 else len(m)
    return _result(
        "independent-generating-bound",
        largest <= limit,
        f"largest independent generating subset has {largest} elements",
    )


def _check_minimum_generating(m: EndoMonoid, got: ranks.SearchOutcome) -> CheckResult:
    n = m.n
    expected = 3 if n <= 2 else 4
    ok = got.value == expected
    if n >= 2:
        witness = generating_witness_ids(m)
        ok = ok and core.is_generating(witness, m.table)
        detail = f"r2 = {got.value}; standard {len(witness)}-element generating set verifies"
    else:
        detail = f"r2 = {got.value}: only the full monoid generates End(B_1)"
    return _result("minimum-generating-size", ok, detail)


def _check_independent_generating(m: EndoMonoid, got: ranks.SearchOutcome) -> CheckResult:
    n = m.n
    expected = 3 if n == 1 else n + 1
    if not got.exact:
        return CheckResult(
            "independent-generating-size", SKIPPED,
            f"budget exhausted with best bound {got.value}",
        )
    ok = got.value == expected
    if n >= 2:
        witness = independent_generating_witness_ids(m)
        ok = (
            ok
            and len(witness) == n + 1
            and core.is_independent(witness, m.table)
            and core.is_generating(witness, m.table)
        )
    return _result(
        "independent-generating-size",
        ok,
        f"r3 = {got.value} with the adjacent-transpositions-plus-constants witness",
    )


def _check_independent_lower_bound(m: EndoMonoid) -> CheckResult:
    witness = max_independent_witness_ids(m)
    ok = len(witness) == m.n + 2 and core.is_independent(witness, m.table)
    return _result(
        "independent-set-lower-bound",
        ok,
        f"identity plus all constants is independent of size {len(witness)}",
    )


def _check_small_rank(m: EndoMonoid) -> CheckResult:
    # certified through core.is_independent, apart from small_rank's closed
    # form: an independent whole monoid gives r1 = N, a dependent pair r1 = 1
    n = m.n
    got = ranks.small_rank(m.table)
    if n == 1:
        ok = got == len(m) and core.is_independent(range(len(m)), m.table)
        detail = f"r1 = {got}; all {len(m)} elements form an independent set"
    else:
        pair = (0, m.perm_id(transposition(n, 1, 2)))
        ok = got == 1 and not core.is_independent(pair, m.table)
        detail = f"r1 = {got}; the identity and the transposition (1 2) are a dependent pair"
    return _result("small-rank", ok, detail)


def _check_prime_subset(m: EndoMonoid, got: ranks.SearchOutcome) -> CheckResult:
    return _result(
        "prime-subset-threshold",
        got.witness == (m.zero_id,) and got.value == len(m),
        f"smallest prime subset is the zero constant alone, so r5 = {got.value} = monoid size",
    )


def _check_symmetric_group_ranks(m: EndoMonoid, unit_ranks) -> CheckResult:
    """S_n's r3 and r4 as End(B_n)'s walk read them off its units, with both
    witnesses replayed on the automorphism subtable; unit_ranks is the
    report's (see ranks._walk), None when the walk did not split."""
    n = m.n
    if n < 2:
        return CheckResult("symmetric-group-ranks", SKIPPED, "degenerate below n = 2")
    if n > 6:
        return CheckResult("symmetric-group-ranks", SKIPPED, f"subset search capped at n <= 6, got n={n}")
    if unit_ranks is None:
        return CheckResult(
            "symmetric-group-ranks", SKIPPED,
            "the walk of the monoid did not split at its constants, so it gave no ranks of the automorphism subtable",
        )
    r3, r4 = unit_ranks["r3"], unit_ranks["r4"]
    if not (r3.exact and r4.exact):
        return CheckResult("symmetric-group-ranks", SKIPPED, "budget exhausted on the automorphism subtable")
    sub = m.aut_subtable()
    replayed = (
        core.is_independent(r3.witness, sub)
        and core.is_generating(r3.witness, sub)
        and core.is_independent(r4.witness, sub)
    )
    return _result(
        "symmetric-group-ranks",
        replayed and len(r3.witness) == r3.value == n - 1 and len(r4.witness) == r4.value == n - 1,
        f"automorphism subtable has r3 = {r3.value}, r4 = {r4.value}, expected {n - 1}",
    )


def run_checks(n: int, budget: ranks.Budget | None = None) -> list[CheckResult]:
    """Run the full checklist for End(B_n), returning one result per claim.

    r2, r3 and r5 come from one rank_report, which replays their certificates
    and checks the chain; its walk gives S_n's r3 and r4 too.  The reference
    oracle runs once, for n <= 3.
    """
    m = enumerate_endomorphisms_structural(n)
    report = ranks.rank_report(m.table, budget, n=n, which=("r2", "r3", "r5"))
    found = report.records
    flags = reference.subset_flags(m.table) if n <= 3 else None
    return [
        _check_monoid_structure(m),
        _check_associativity(m),
        _check_oracle(m),
        _check_aut_composition(m),
        _check_aut_products(m),
        _check_zero_products(m),
        _check_nonzero_constant_products(m),
        _check_generating_sets_contain_constants(m),
        _check_independent_generating_bound(m, flags),
        _check_minimum_generating(m, found["r2"]),
        _check_independent_generating(m, found["r3"]),
        _check_independent_lower_bound(m),
        _check_small_rank(m),
        _check_prime_subset(m, found["r5"]),
        _check_symmetric_group_ranks(m, report.unit_ranks),
    ]
