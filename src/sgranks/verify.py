"""Per-claim verification checklist for End(B_n).

Every structural fact the rank shortcuts rely on is re-checked here from the
composition table itself, one PASS/FAIL/SKIPPED line per claim.  Checks whose
exhaustive regime ends below the requested n report SKIPPED rather than
guessing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import core, ranks, reference
from .core import ResourceLimitError
from .endo import (
    AUTOMORPHISM,
    NONZERO_CONSTANT,
    ZERO_CONSTANT,
    EndoMonoid,
    enumerate_endomorphisms_oracle,
    enumerate_endomorphisms_structural,
    full_cycle,
    transposition,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

_WORD_SAMPLES = 500
_WORD_SEED = 7


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, PASS if ok else FAIL, detail)


def generating_witness_ids(m: EndoMonoid) -> tuple[int, ...]:
    """The standard small generating set: the transposition (1 2), the full
    n-cycle, the constant onto (1,1) and the zero constant.  For n = 2 the
    transposition and the cycle coincide, so the set has 3 elements."""
    n = m.n
    ids = {m.perm_id(transposition(n, 1, 2)), m.perm_id(full_cycle(n))}
    ids.update((m.constant_id(1), m.zero_id))
    return tuple(sorted(ids))


def independent_generating_witness_ids(m: EndoMonoid) -> tuple[int, ...]:
    """The standard size-(n+1) independent generating set: all adjacent
    transpositions plus the constant onto (1,1) and the zero constant."""
    n = m.n
    ids = {m.perm_id(transposition(n, i, i + 1)) for i in range(1, n)}
    ids.update((m.constant_id(1), m.zero_id))
    return tuple(sorted(ids))


def max_independent_witness_ids(m: EndoMonoid) -> tuple[int, ...]:
    """The guaranteed independent set of size n + 2: identity plus all constants."""
    return (0,) + tuple(m.constant_ids)


def _word_product(product, word) -> int:
    acc = word[0]
    for a in word[1:]:
        acc = product[acc][a]
    return acc


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
    if len(m) > 130:
        return CheckResult("table-associativity", SKIPPED, f"size {len(m)} beyond cubic revalidation")
    report = core.validate(m.table)
    return _result(
        "table-associativity",
        report.ok,
        "all triples associate" if report.ok else f"violated at {report.violation}",
    )


def _check_oracle(m: EndoMonoid) -> CheckResult:
    if m.n > 3:
        return CheckResult("oracle-equivalence", SKIPPED, f"exhaustive backtracking capped at n <= 3, got n={m.n}")
    found = enumerate_endomorphisms_oracle(m.n)
    same = {f.image for f in found} == {f.image for f in m.elements}
    return _result(
        "oracle-equivalence",
        same and len(found) == len(m),
        f"backtracking found {len(found)} multiplicative self-maps, structural list has {len(m)}",
    )


def _check_aut_composition(m: EndoMonoid) -> CheckResult:
    if m.n > 5:
        return CheckResult("automorphism-composition", SKIPPED, f"pairwise table check capped at n <= 5, got n={m.n}")
    from .endo import perm_compose  # local import keeps the module header light

    p = m.table.product
    perms = [f.perm for f in m.elements[: math.factorial(m.n)]]
    ok = True
    for a, sigma in enumerate(perms):
        for b, tau in enumerate(perms):
            if p[a][b] != m.perm_id(perm_compose(sigma, tau)):
                ok = False
                break
        if not ok:
            break
    distinct = len(set(perms)) == len(perms)
    return _result(
        "automorphism-composition",
        ok and distinct,
        f"composition of the {len(perms)} automorphisms matches permutation composition",
    )


def _check_aut_products(m: EndoMonoid) -> CheckResult:
    p = m.table.product
    kinds = [f.kind for f in m.elements]
    size = len(m)
    ok = all(
        (kinds[p[a][b]] == AUTOMORPHISM)
        == (kinds[a] == AUTOMORPHISM and kinds[b] == AUTOMORPHISM)
        for a in range(size)
        for b in range(size)
    )
    rng = random.Random(_WORD_SEED)
    for _ in range(_WORD_SAMPLES):
        word = [rng.randrange(size) for _ in range(rng.randint(3, 6))]
        is_aut = kinds[_word_product(p, word)] == AUTOMORPHISM
        if is_aut != all(kinds[a] == AUTOMORPHISM for a in word):
            ok = False
            break
    return _result(
        "automorphism-products",
        ok,
        "a product is an automorphism exactly when every factor is",
    )


def _check_zero_products(m: EndoMonoid) -> CheckResult:
    p = m.table.product
    size = len(m)
    z = m.zero_id
    ok = all(p[a][b] != z or a == z or b == z for a in range(size) for b in range(size))
    if size ** 3 <= 3_000_000:
        ok = ok and all(
            _word_product(p, (a, b, c)) != z or z in (a, b, c)
            for a in range(size)
            for b in range(size)
            for c in range(size)
        )
    rng = random.Random(_WORD_SEED + 1)
    for _ in range(_WORD_SAMPLES):
        word = [rng.randrange(size) for _ in range(rng.randint(3, 6))]
        if _word_product(p, word) == z and z not in word:
            ok = False
            break
    return _result(
        "zero-products",
        ok,
        "a product equals the zero constant only when some factor is the zero constant",
    )


def _check_nonzero_constant_products(m: EndoMonoid) -> CheckResult:
    p = m.table.product
    kinds = [f.kind for f in m.elements]
    size = len(m)
    z = m.zero_id

    def law(word) -> bool:
        prod = _word_product(p, word)
        lhs = kinds[prod] == NONZERO_CONSTANT
        rhs = prod != z and any(kinds[a] == NONZERO_CONSTANT for a in word)
        return lhs == rhs

    ok = all(law((a, b)) for a in range(size) for b in range(size))
    rng = random.Random(_WORD_SEED + 2)
    ok = ok and all(
        law([rng.randrange(size) for _ in range(rng.randint(3, 6))])
        for _ in range(_WORD_SAMPLES)
    )
    return _result(
        "nonzero-constant-products",
        ok,
        "a product is a nonzero constant exactly when a factor is one and the product is not the zero constant",
    )


def _check_generating_sets_contain_constants(m: EndoMonoid) -> CheckResult:
    if m.n > 3:
        return CheckResult(
            "generating-sets-contain-constants", SKIPPED,
            f"full subset enumeration capped at n <= 3, got n={m.n}",
        )
    # masks over the ids: automorphisms first, then nonzero constants, zero last
    z = m.zero_id
    nonzero = (1 << z) - (1 << math.factorial(m.n))
    flags = reference.subset_flags(m.table).generating
    generating = [mask for mask, gen in enumerate(flags) if gen]
    return _result(
        "generating-sets-contain-constants",
        all(mask >> z & 1 and mask & nonzero for mask in generating),
        f"all {len(generating)} generating subsets contain the zero constant and a nonzero constant",
    )


def _check_independent_generating_bound(m: EndoMonoid) -> CheckResult:
    if m.n > 3:
        return CheckResult(
            "independent-generating-bound", SKIPPED,
            f"full subset enumeration capped at n <= 3, got n={m.n}",
        )
    # the bound does not apply at n = 1, where only the whole monoid generates
    largest = reference.subset_flags(m.table).ranks()["r3"]
    limit = m.n + 1 if m.n >= 2 else len(m)
    return _result(
        "independent-generating-bound",
        largest <= limit,
        f"largest independent generating subset has {largest} elements",
    )


def _check_minimum_generating(m: EndoMonoid) -> CheckResult:
    n = m.n
    expected = 3 if n <= 2 else 4
    got = ranks.lower_rank(m.table)
    ok = got.value == expected
    if n >= 2:
        witness = generating_witness_ids(m)
        ok = ok and core.is_generating(witness, m.table)
        detail = f"r2 = {got.value}; standard {len(witness)}-element generating set verifies"
    else:
        detail = f"r2 = {got.value}: only the full monoid generates End(B_1)"
    return _result("minimum-generating-size", ok, detail)


def _check_independent_generating(m: EndoMonoid, budget) -> CheckResult:
    n = m.n
    expected = 3 if n == 1 else n + 1
    got = ranks.intermediate_rank(m.table, budget)
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
    n = m.n
    expected = 3 if n == 1 else 1
    fast = ranks.small_rank(m.table)
    slow = ranks.small_rank_exhaustive(m.table)
    return _result(
        "small-rank",
        fast == expected and slow == expected,
        f"r1 = {fast}, generic search agrees",
    )


def _check_prime_subset(m: EndoMonoid) -> CheckResult:
    prime = ranks.smallest_prime_subset(m.table)
    value, _ = ranks.large_rank(m.table)
    expected = len(m)
    ok = prime == frozenset({m.zero_id}) and value == expected
    return _result(
        "prime-subset-threshold",
        ok,
        f"smallest prime subset is the zero constant alone, so r5 = {value} = monoid size",
    )


def _check_symmetric_group_ranks(m: EndoMonoid, budget) -> CheckResult:
    n = m.n
    if n < 2:
        return CheckResult("symmetric-group-ranks", SKIPPED, "degenerate below n = 2")
    if n > 4:
        return CheckResult("symmetric-group-ranks", SKIPPED, f"subset search capped at n <= 4, got n={n}")
    r4, r3 = ranks._walk(m.aut_subtable(), budget)
    if not r3.exact:
        return CheckResult("symmetric-group-ranks", SKIPPED, "budget exhausted on the automorphism subtable")
    ok = r3.value == n - 1 and r4.value == n - 1
    return _result(
        "symmetric-group-ranks",
        ok,
        f"automorphism subtable has r3 = {r3.value}, r4 = {r4.value}, expected {n - 1}",
    )


def run_checks(n: int, budget: ranks.Budget | None = None) -> list[CheckResult]:
    """Run the full checklist for End(B_n), returning one result per claim."""
    m = enumerate_endomorphisms_structural(n)
    checks = [
        lambda: _check_monoid_structure(m),
        lambda: _check_associativity(m),
        lambda: _check_oracle(m),
        lambda: _check_aut_composition(m),
        lambda: _check_aut_products(m),
        lambda: _check_zero_products(m),
        lambda: _check_nonzero_constant_products(m),
        lambda: _check_generating_sets_contain_constants(m),
        lambda: _check_independent_generating_bound(m),
        lambda: _check_minimum_generating(m),
        lambda: _check_independent_generating(m, budget),
        lambda: _check_independent_lower_bound(m),
        lambda: _check_small_rank(m),
        lambda: _check_prime_subset(m),
        lambda: _check_symmetric_group_ranks(m, budget),
    ]
    results = []
    for check in checks:
        try:
            results.append(check())
        except ResourceLimitError as exc:  # per-check, never fatal
            results.append(CheckResult("resource-limited-check", SKIPPED, str(exc)))
    return results
