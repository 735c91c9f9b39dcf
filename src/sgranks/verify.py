"""Per-claim verification checklist for End(B_n).

Every structural fact the rank shortcuts rely on is re-checked here from the
composition table itself, one PASS/FAIL/SKIPPED line per claim.  Checks whose
exhaustive regime ends below the requested n report SKIPPED rather than
guessing.  The three product laws are checked exactly, over every word of
every length, not on a sample of words, a row of the table at a time.

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
    AUTOMORPHISM,
    NONZERO_CONSTANT,
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


def _word_law_holds(m: EndoMonoid, row_law) -> bool:
    """Whether a law on products holds on every word over the ids, of any length.

    row_law(x, row) tells whether the law holds on the N two-letter words
    (x, a) for every a at once, row being x's row of products, so only the
    N^2 two-letter words are checked.  A word w1...wk multiplies as the
    left fold x*wk with x = w1...w(k-1), which lies in row x, so by
    induction on k the rows settle every longer word; one-letter words
    satisfy each law outright (the zero constant z is not a nonzero
    constant).  Given the law on w1...w(k-1):
    - automorphism-products: x is an automorphism exactly when w1..w(k-1) all
      are, so the law on row x at column wk is the law on w1...wk;
    - zero-products: x*wk = z forces x = z or wk = z, and x = z forces some
      wi = z;
    - nonzero-constant-products: the law on row x at column wk carries over,
      except when x = z while some of w1..w(k-1) is a nonzero constant.  The
      law then reads "z*wk is a nonzero constant exactly when z*wk != z",
      which, given row z at column wk, holds exactly when z*a = z for each a
      that is not a nonzero constant, so that check reads z's row too.  z is
      not a two-sided zero: z*c = c for a nonzero constant c.
    """
    return all(map(row_law, range(len(m)), m.table.product))


def _flags(member: bytes, row) -> int:
    """member[b] for each entry b of row, one byte per column, as an int.

    member holds a 0 or 1 per id.  The getter core._pick(row) looks the row
    up in member in one C-level call, so it costs no Python frame and no
    bytecode per entry, and two rows' flags compare, or mask each other,
    column by column as one int.
    """
    return int.from_bytes(bytes(core._pick(row)(member)), "little")


def _kind_flags(m: EndoMonoid, kind: str) -> bytes:
    return bytes(f.kind == kind for f in m.elements)


def _check_aut_products(m: EndoMonoid) -> CheckResult:
    aut = _kind_flags(m, AUTOMORPHISM)
    columns = int.from_bytes(aut, "little")

    def row_law(x, row) -> bool:
        # x*a is an automorphism exactly when x and a are
        return _flags(aut, row) == (columns if aut[x] else 0)

    return _result(
        "automorphism-products",
        _word_law_holds(m, row_law),
        "a product is an automorphism exactly when every factor is",
    )


def _check_zero_products(m: EndoMonoid) -> CheckResult:
    z = m.zero_id

    def row_law(x, row) -> bool:
        # x*a = z only when x = z or a = z: z is in row x at most at column z
        return x == z or row.count(z) == (row[z] == z)

    return _result(
        "zero-products",
        _word_law_holds(m, row_law),
        "a product equals the zero constant only when some factor is the zero constant",
    )


def _check_nonzero_constant_products(m: EndoMonoid) -> CheckResult:
    z = m.zero_id
    const = _kind_flags(m, NONZERO_CONSTANT)
    # the ids that are a nonzero constant or z
    settled = bytes(c or b == z for b, c in enumerate(const))
    columns = int.from_bytes(const, "little")
    every = int.from_bytes(bytes([1]) * len(m), "little")

    def row_law(x, row) -> bool:
        # x*a is a nonzero constant exactly when x*a != z and x or a is one.
        # With want the columns a where x or a is one, that reads: x*a is a
        # nonzero constant only in want, and in want it is one or z
        want = every if const[x] else columns
        return not _flags(const, row) & ~want and not want & ~_flags(settled, row)

    zero_row = all(b == z or const[a] for a, b in enumerate(m.table.product[z]))
    return _result(
        "nonzero-constant-products",
        zero_row and _word_law_holds(m, row_law),
        "a product is a nonzero constant exactly when a factor is one and the product is not the zero constant",
    )


def _check_generating_sets_contain_constants(m: EndoMonoid, flags) -> CheckResult:
    if flags is None:
        return CheckResult(
            "generating-sets-contain-constants", SKIPPED,
            f"full subset enumeration capped at n <= 3, got n={m.n}",
        )
    # flags index the subsets by their masks over the ids
    z = m.zero_id
    nonzero = sum(1 << c for c in m.constant_ids) & ~(1 << z)
    generating = [mask for mask, gen in enumerate(flags.generating) if gen]
    return _result(
        "generating-sets-contain-constants",
        all(mask >> z & 1 and mask & nonzero for mask in generating),
        f"all {len(generating)} generating subsets contain the zero constant and a nonzero constant",
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
        _check_generating_sets_contain_constants(m, flags),
        _check_independent_generating_bound(m, flags),
        _check_minimum_generating(m, found["r2"]),
        _check_independent_generating(m, found["r3"]),
        _check_independent_lower_bound(m),
        _check_small_rank(m),
        _check_prime_subset(m, found["r5"]),
        _check_symmetric_group_ranks(m, report.unit_ranks),
    ]
