"""The five subset ranks of a finite semigroup, with witness certificates.

For a table of size N the ranks are:

  r1  largest k such that every k-subset is independent
  r2  size of a smallest generating subset
  r3  size of a largest independent generating subset
  r4  size of a largest independent subset
  r5  smallest k such that every k-subset generates

They always satisfy r1 <= r2 <= r3 <= r4 <= r5.  A subset is independent when
no element of it is generated by the others; independence is preserved by
taking subsets, which is what lets the r3/r4 searches prune whole branches at
the first dependent extension.

Searches enumerate candidate subsets in lexicographic order over ascending id
tuples, so every reported witness is deterministic: the first optimum in that
order.  The one exception is the r5 prime-subset certificate, whose tie-break
scans largest ids first (see smallest_prime_subset).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from . import core, reference
from .core import SemigroupTable
from .endo import EndoMonoid, enumerate_endomorphisms_structural

RANK_KEYS = ("r1", "r2", "r3", "r4", "r5")

DEFAULT_BUDGET_SECONDS = 60.0


class _Exhausted(Exception):
    """Internal: a search ran out of budget; callers return flagged bounds."""


@dataclass(frozen=True)
class Budget:
    """Wall-clock and node limits for subset searches; None disables a limit."""

    seconds: float | None = DEFAULT_BUDGET_SECONDS
    max_nodes: int | None = None

    def clock(self) -> "_Clock":
        return _Clock(self)


class _Clock:
    __slots__ = ("deadline", "max_nodes", "nodes")

    def __init__(self, budget: Budget):
        self.deadline = (
            None if budget.seconds is None else time.monotonic() + budget.seconds
        )
        self.max_nodes = budget.max_nodes
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Exhausted
        # the wall clock is polled every 1024 nodes to keep ticks cheap
        if (
            self.deadline is not None
            and self.nodes & 1023 == 0
            and time.monotonic() > self.deadline
        ):
            raise _Exhausted


def _extend_closed(product, state, x: int, full_mask: int):
    """Closed state of (members of state) + {x}; state is a (mask, members) pair.

    The incoming state must already be closed, so only products touching x and
    the elements it drags in need processing.
    """
    mask, members = state
    bit = 1 << x
    if mask & bit:
        return state
    grown = members + [x]
    new_mask = core._grow(product, grown, mask | bit, len(members), full_mask)
    return (new_mask, grown)


_EMPTY_STATE = (0, [])


def _independent_sets(table: SemigroupTable, clock: _Clock | None = None):
    """Yield (ids, closure_mask) for every independent subset, in lex order.

    Carries, for the current subset U and each a in U, the closed state of
    U - {a}; extending by x updates each incrementally, and a branch dies on
    the first extension that makes some element redundant.
    """
    product = table.product
    n = table.size
    full = (1 << n) - 1

    def branch(u: list[int], minus, whole):
        yield tuple(u), whole[0]
        for x in range(u[-1] + 1 if u else 0, n):
            if clock is not None:
                clock.tick()
            if whole[0] >> x & 1:
                continue  # x is already generated by u
            ext = []
            independent = True
            for i, a in enumerate(u):
                st = _extend_closed(product, minus[i], x, full)
                if st[0] >> a & 1:
                    independent = False
                    break
                ext.append(st)
            if not independent:
                continue
            ext.append(whole)  # (u + [x]) minus x closes to exactly the old whole
            yield from branch(u + [x], ext, _extend_closed(product, whole, x, full))

    yield from branch([], [], _EMPTY_STATE)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a witness search; exact=False means the budget ran out and
    value is only a bound in the search's favourable direction."""

    value: int
    witness: tuple[int, ...]
    exact: bool = True


def _walk(
    table: SemigroupTable, budget: Budget | None, stop_at: int | None = None
) -> tuple[SearchOutcome, SearchOutcome]:
    """r4 and r3 from one walk of _independent_sets: (largest, largest generating).

    Only a strictly larger set replaces the one held, so each witness is the
    lex-first at its size.  The walk ends early at the first independent set of
    stop_at elements, if given; both outcomes then count as exact, as they do
    for a complete walk.  A cut budget leaves both inexact.
    """
    clock = None if budget is None else budget.clock()
    full = (1 << table.size) - 1
    largest: tuple[int, ...] = ()
    generating: tuple[int, ...] = ()
    exact = True
    try:
        for ids, cl in _independent_sets(table, clock):
            if len(ids) > len(largest):
                largest = ids
                if stop_at is not None and len(ids) >= stop_at:
                    break
            if cl == full and len(ids) > len(generating):
                generating = ids
        else:
            # cannot happen: a smallest generating set is independent, because
            # dropping a redundant member would leave a smaller one
            if not generating:
                raise AssertionError("no independent generating set found by a complete search")
    except _Exhausted:
        exact = False
    return (
        SearchOutcome(len(largest), largest, exact),
        SearchOutcome(len(generating), generating, exact),
    )


def upper_rank(table: SemigroupTable, budget: Budget | None = None) -> SearchOutcome:
    """r4: a largest independent subset (lex-first among the largest found)."""
    return _walk(table, budget)[0]


def intermediate_rank(table: SemigroupTable, budget: Budget | None = None) -> SearchOutcome:
    """r3: a largest independent generating subset."""
    return _walk(table, budget)[1]


def _first_generating(product, n: int, k: int, full: int):
    """Lex-first generating k-subset, or None.  Incremental closures down the
    prefix tree; once a prefix already generates, the lex-first completion is
    just the next k - |prefix| consecutive ids."""

    def descend(u: list[int], state, lo: int):
        need = k - len(u)
        if state[0] == full:
            return tuple(u) + tuple(range(lo, lo + need))
        if need == 0:
            return None
        for x in range(lo, n - need + 1):
            got = descend(u + [x], _extend_closed(product, state, x, full), x + 1)
            if got is not None:
                return got
        return None

    return descend([], _EMPTY_STATE, 0)


def lower_rank(table: SemigroupTable) -> SearchOutcome:
    """r2: a smallest generating subset, lex-first at the minimum size.

    Sizes are tried in ascending order, so the returned size k also certifies
    that no generating subset of size k - 1 exists.
    """
    n = table.size
    full = (1 << n) - 1
    for k in range(1, n + 1):
        witness = _first_generating(table.product, n, k, full)
        if witness is not None:
            return SearchOutcome(k, witness)
    raise AssertionError("the full set always generates")


def small_rank_exhaustive(table: SemigroupTable) -> int:
    """r1 by direct enumeration: largest k with every k-subset independent.

    The every-k-subset property fails upward monotonically (add any element to
    a dependent set and it stays dependent inside the larger subset count), so
    the scan stops at the first k with a dependent subset.
    """
    n = table.size
    value = 1  # singletons are always independent
    for k in range(2, n + 1):
        if all(core.is_independent(c, table) for c in combinations(range(n), k)):
            value = k
        else:
            break
    return value


def _small_rank_with_method(table: SemigroupTable) -> tuple[int, str]:
    """r1 and the method tag that rank_report shows for it.

    In a semigroup with a non-idempotent element a, the pair {a, a*a} (a set of
    size <= 2 contained in many 2-subsets) is dependent, and with at least two
    elements some 2-subset therefore fails, giving r1 = 1.  Bands (and the
    one-element table) fall back to direct enumeration.
    """
    if table.size >= 2 and not core.is_band(table):
        return 1, "fast-path"
    return small_rank_exhaustive(table), "exhaustive"


def small_rank(table: SemigroupTable) -> int:
    """r1, using the structural shortcut where it applies."""
    return _small_rank_with_method(table)[0]


def smallest_prime_subset(table: SemigroupTable) -> frozenset[int]:
    """A minimum-size prime subset: every product landing in it has a factor in it.

    Sizes are searched in ascending order, so the result is genuinely minimum;
    ties at the minimum size are broken by scanning subsets drawn from the
    largest element ids first, which prefers zero-like certificates (zeros sit
    at the end of the canonical element orders used here).
    """
    n = table.size
    hitters = [[] for _ in range(n)]
    for a in range(n):
        row = table.product[a]
        for b in range(n):
            hitters[row[b]].append((a, b))
    for k in range(1, n + 1):
        for combo in combinations(range(n - 1, -1, -1), k):
            chosen = set(combo)
            if all(
                a in chosen or b in chosen
                for u in combo
                for (a, b) in hitters[u]
            ):
                return frozenset(chosen)
    raise AssertionError("the full set is always prime")


def large_rank(table: SemigroupTable) -> tuple[int, frozenset[int]]:
    """r5 and a minimum prime subset certifying it.

    A subset generates iff it meets every prime subset, so the largest
    non-generating subset is the complement of a smallest prime subset and
    r5 = N - |smallest prime subset| + 1.  For tables with at most 10 elements
    the value is re-derived from the definition by the reference oracle, and a
    mismatch raises: it would mean the engine itself is broken.
    """
    prime = smallest_prime_subset(table)
    value = table.size - len(prime) + 1
    if table.size <= 10:
        check = reference.subset_flags(table).ranks()["r5"]
        if check != value:
            raise RuntimeError(
                f"prime-subset formula gave r5={value} but enumeration gave {check}"
            )
    return value, prime


@dataclass
class RankReport:
    """All requested ranks of one table, with certificates and method tags."""

    ranks: dict[str, int]
    certificates: dict[str, tuple[int, ...]]
    methods: dict[str, str]
    budget_exhausted: bool
    n: int | None = None
    table: SemigroupTable = field(repr=False, default=None)

    def to_dict(self) -> dict:
        lab = self.table.label
        return {
            "n": self.n,
            "ranks": dict(self.ranks),
            "certificates": {
                key: [lab(a) for a in sorted(ids)]
                for key, ids in self.certificates.items()
            },
            "methods": dict(self.methods),
            "budget_exhausted": self.budget_exhausted,
        }

    def format_text(self) -> str:
        lab = self.table.label
        lines = []
        name = f"End(B_{self.n})" if self.n is not None else "table"
        lines.append(f"{name}: {self.table.size} elements")
        cert_names = {"r2": "witness", "r3": "witness", "r4": "witness", "r5": "prime subset"}
        for key in RANK_KEYS:
            if key not in self.ranks:
                continue
            cert_key = "r5_prime" if key == "r5" else key
            part = f"{key} = {self.ranks[key]}   [{self.methods[key]}]"
            if cert_key in self.certificates:
                names = " ".join(lab(a) for a in sorted(self.certificates[cert_key]))
                part += f"   {cert_names[key]}: {names}"
            lines.append(part)
        shown = [self.ranks[k] for k in RANK_KEYS if k in self.ranks]
        if len(shown) > 1:
            lines.append("chain: " + " <= ".join(map(str, shown)))
        if self.budget_exhausted:
            lines.append("budget exhausted: some values are lower bounds")
        return "\n".join(lines) + "\n"


def rank_report(
    table: SemigroupTable,
    budget: Budget | None = None,
    n: int | None = None,
    which=None,
) -> RankReport:
    """Compute the requested ranks (all five by default) with certificates.

    The budget, if any, applies to the one walk that finds both r3 and r4; when
    it is cut short their values are reported as bounds and budget_exhausted is
    set.  A budget-starved r3 or r4 below an already-proven smaller rank is
    replaced by that rank's witness (sound: an independent generating set is
    independent), so the reported chain r1 <= r2 <= r3 <= r4 <= r5 always
    holds; with no budget pressure the chain is re-checked and a violation
    raises.
    """
    wanted = set(RANK_KEYS) if which is None else set(which)
    unknown = wanted - set(RANK_KEYS)
    if unknown:
        raise ValueError(f"unknown rank keys: {sorted(unknown)}")

    ranks: dict[str, int] = {}
    certificates: dict[str, tuple[int, ...]] = {}
    methods: dict[str, str] = {}
    exhausted = False

    if "r1" in wanted:
        ranks["r1"], methods["r1"] = _small_rank_with_method(table)

    r2 = None
    if "r2" in wanted or "r3" in wanted or "r4" in wanted:
        # r3/r4 may need the r2 witness as a fallback, so compute it for them too
        r2 = lower_rank(table)
    if "r2" in wanted:
        ranks["r2"] = r2.value
        certificates["r2"] = r2.witness
        methods["r2"] = "exhaustive"
        if not core.is_generating(r2.witness, table):
            raise RuntimeError("r2 certificate failed replay")

    if "r3" in wanted or "r4" in wanted:
        r4, r3 = _walk(table, budget)
        if not r3.exact:
            exhausted = True
            if r3.value < r2.value:
                r3 = SearchOutcome(r2.value, r2.witness, False)
            if r4.value < r3.value:
                r4 = SearchOutcome(r3.value, r3.witness, False)
    if "r3" in wanted:
        ranks["r3"] = r3.value
        certificates["r3"] = r3.witness
        methods["r3"] = "pruned-search"
        if not (
            core.is_independent(r3.witness, table)
            and core.is_generating(r3.witness, table)
        ):
            raise RuntimeError("r3 certificate failed replay")

    if "r4" in wanted:
        ranks["r4"] = r4.value
        certificates["r4"] = r4.witness
        methods["r4"] = "pruned-search"
        if not core.is_independent(r4.witness, table):
            raise RuntimeError("r4 certificate failed replay")

    if "r5" in wanted:
        value, prime = large_rank(table)
        ranks["r5"] = value
        certificates["r5_prime"] = tuple(sorted(prime))
        methods["r5"] = "exhaustive"
        if not core.is_prime_subset(prime, table):
            raise RuntimeError("r5 certificate failed replay")

    shown = [ranks[k] for k in RANK_KEYS if k in ranks]
    if any(shown[i] > shown[i + 1] for i in range(len(shown) - 1)):
        raise RuntimeError(f"rank chain violated: {ranks}")

    return RankReport(ranks, certificates, methods, exhausted, n=n, table=table)


@dataclass(frozen=True)
class ConjectureReport:
    """Evidence about the largest independent subsets of End(B_n).

    predicted is n + 2, the size of the always-independent subset made of the
    identity automorphism and all constants.  verdict is one of:

      confirmed            complete search found nothing larger
      refuted-with-witness an independent subset of size n + 3 exists
      inconclusive         the budget ran out first; best_found is still valid
    """

    n: int
    predicted: int
    witness: tuple[int, ...]
    verdict: str
    best_found: tuple[int, ...]
    refutation: tuple[int, ...] | None = None

    @property
    def lower_bound(self) -> int:
        return max(self.predicted, len(self.best_found))

    @property
    def computed_value(self) -> int | None:
        """Exact r4 when the search completed, else None."""
        return self.predicted if self.verdict == "confirmed" else None

    def to_dict(self, monoid: EndoMonoid | None = None) -> dict:
        lab = (lambda a: a) if monoid is None else monoid.table.label
        return {
            "n": self.n,
            "predicted": self.predicted,
            "verdict": self.verdict,
            "computed_r4": self.computed_value,
            "lower_bound": self.lower_bound,
            "witness": [lab(a) for a in self.witness],
            "best_found": [lab(a) for a in self.best_found],
            "refutation": None if self.refutation is None else [lab(a) for a in self.refutation],
        }


def verify_conjecture(
    n: int,
    budget: Budget | None = None,
    monoid: EndoMonoid | None = None,
) -> ConjectureReport:
    """Does any independent subset of End(B_n) beat the predicted size n + 2?

    First re-verifies the guaranteed size-(n+2) independent subset (identity
    plus all constants), then searches for an independent subset of size n + 3,
    stopping at the first hit.  Any refutation is re-verified through
    is_independent before being reported.
    """
    if n < 2:
        raise ValueError(f"the size question concerns n >= 2, got {n}")
    m = monoid if monoid is not None else enumerate_endomorphisms_structural(n)
    if m.n != n:
        raise ValueError("monoid does not match n")
    table = m.table
    witness = (0,) + tuple(m.constant_ids)
    if len(witness) != n + 2 or not core.is_independent(witness, table):
        raise RuntimeError("guaranteed lower-bound witness failed; engine fault")

    best, _ = _walk(table, budget, stop_at=n + 3)
    if best.value >= n + 3:
        if not core.is_independent(best.witness, table):
            raise RuntimeError("refutation candidate failed re-verification")
        verdict = "refuted-with-witness"
        return ConjectureReport(n, n + 2, witness, verdict, best.witness, best.witness)
    verdict = "confirmed" if best.exact else "inconclusive"
    return ConjectureReport(n, n + 2, witness, verdict, best.witness)
