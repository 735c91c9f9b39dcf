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
the first dependent extension.  r1 needs no search: it is 1, 2 or N, read off
the products in O(N^2) (see small_rank).

Searches enumerate candidate subsets in lexicographic order over ascending id
tuples, so every reported witness is deterministic: the first optimum in that
order.  The one exception is the r5 prime-subset certificate, whose tie-break
scans largest ids first (see smallest_prime_subset).  The r2 search splits
at the group of units, wherever its ids lie (see lower_rank), with the same
result as one search over all ids.  The r3/r4 walk skips every subset that is
not lex-min in its orbit under the conjugations by units, with the same
result as the plain walk (see _independent_sets).

The walk also splits at the right zeros K, the z with s*z = z for every s,
on the tables that _splits names, such as End(B_n) as built: n!
automorphisms, then n + 1 constants.  K is then an ideal, so
<A + C> = <A> + C*<A>^1 for A in the group of units G and C in K.  So the
walk runs over G alone, and r4 is the largest |A| + (orbits of <A> on K)
over the independent A, r3 the same over those that generate G.  Every unit
id being below K's, a lex-first optimum's A is lex-min in its orbit, so the
witnesses are those of the walk over all ids.  On every other table K is
empty, and the split is the walk over all ids (see _walk).  The split walk
gives r3 and r4 of G too: the lex-first largest independent A, and the
lex-first largest with <A> = G.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations

from . import core, reference
from .core import SemigroupTable
from .endo import EndoMonoid, enumerate_endomorphisms_structural

RANK_KEYS = ("r1", "r2", "r3", "r4", "r5")

DEFAULT_BUDGET_SECONDS = 60.0

# the most entries a closure memo holds: r2 on a left-zero band of 24 meets 2^24
# distinct (mask, x) pairs, End(B_6)'s whole report 97,832, and with the
# double-coset fills of _Search.adjoin it reaches the bound twice
_MEMO_ENTRIES = 1 << 17


class _Exhausted(Exception):
    """Internal: a search ran out of budget; callers return flagged bounds."""


@dataclass(frozen=True)
class Budget:
    """Wall-clock and node limits for subset searches; None disables a limit."""

    seconds: float | None = DEFAULT_BUDGET_SECONDS
    max_nodes: int | None = None

    # public so that perfbench's tracer, which wraps it, collects every search's clock for its node count
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


class _Search:
    """What the searches of one table share, all freed with it: the product,
    the full mask, the clock (one with no limits when there is no budget), the
    closure memo and, each computed on first use, the identity, the group of
    units, the right zeros and the conjugations.

    memo[x][mask] is <mask + {x}> for a closed mask.  r2 adjoins through
    adjoin(); the walk reads a hit from the memo itself and calls adjoin()
    only on a miss, so adjoin() is the memo's one writer, and it empties the
    memo when a miss would pass _MEMO_ENTRIES entries.  The memo changes
    no value, witness or tick: each caller passes mask = <gens>, so the
    result is <mask + {x}>, fixed by (mask, x) alone.
    """

    def __init__(self, table: SemigroupTable, budget: Budget | None):
        self.product = table.product
        self.full = (1 << table.size) - 1
        self.clock = (Budget(seconds=None) if budget is None else budget).clock()
        self.memo: list[dict[int, int]] = [{} for _ in range(table.size)]
        self.room = _MEMO_ENTRIES  # entries the memo may still take

    def adjoin(self, gens: list[int], mask: int, x: int) -> int:
        """<gens + [x]>, given mask = <gens>: a right zero x seeds the growth
        alone, a unit x joined to a nonempty closed set of units K grows
        coset by coset (core._cosets), any other x by core._adjoin.

        A miss empties the memo when it is full, then stores x's entry.  A
        coset growth also gives the double coset K*x*K, and cl is stored
        under (K, y) for each other y there that has no entry yet, while
        room lasts: y = k1*x*k2 lies in <K + {x}>, and x = k1^-1*y*k2^-1 in
        <K + {y}>, so the two closures are one.

        A right zero x has s*x = x for every s, so of core._adjoin's seeds x
        and s*x for s in mask only x is there, and core._grow from x alone
        gives the same closure.  This serves the walks that do not split,
        such as End(B_n)'s under a node budget, and r2's second phase, which
        adjoins each constant of End(B_n) to the whole group of units.
        """
        memo = self.memo
        seen = memo[x]
        cl = seen.get(mask)
        if cl is None:
            if not self.room:
                for kept in memo:
                    kept.clear()
                self.room = _MEMO_ENTRIES
            double = 1 << x
            if mask >> x & 1:  # first: _cosets would count x*K = K as a new coset
                cl = mask
            elif self.right_zeros >> x & 1:
                cl = core._grow(self.product, gens + [x], mask | 1 << x, [x], self.full)
            elif mask and not (mask | 1 << x) & ~self.units:
                cl, double = core._cosets(self.product, gens, mask, x, self.units)
            else:
                cl = core._adjoin(self.product, gens, mask, x, self.full)
            seen[mask] = cl
            ys, room = double ^ 1 << x, self.room - 1
            while ys and room:
                low = ys & -ys
                ys ^= low
                seen = memo[low.bit_length() - 1]
                if mask not in seen:
                    seen[mask] = cl
                    room -= 1
            self.room = room
        return cl

    @cached_property
    def identity(self) -> int | None:
        """The id of the two-sided identity, or None when the table has none."""
        p, ids = self.product, range(len(self.product))
        return next((e for e in ids if all(p[e][x] == x == p[x][e] for x in ids)), None)

    @cached_property
    def units(self) -> int:
        """The group of units as a mask, or 0 when the table has no identity."""
        e = self.identity
        if e is None:
            return 0
        # ab = e gives ba = e in a finite monoid, so a is a unit iff e is in its row
        return sum(1 << a for a, row in enumerate(self.product) if e in row)

    @cached_property
    def right_zeros(self) -> int:
        """The right zeros z, with s*z = z for every s, as a mask: the ids
        that every row maps to themselves.

        The candidates are narrowed row by row, so past the first rows only
        the few left are read, not every column: r2 alone reads them too,
        for the right-zero seed of adjoin.
        """
        zeros = range(len(self.product))
        for row in self.product:
            zeros = [z for z in zeros if row[z] == z]
        return sum(1 << z for z in zeros)

    @cached_property
    def conjugations(self) -> list[tuple[int, ...]]:
        """The distinct non-identity maps x -> g*x*g^-1, g a unit, as id tuples.

        Each is an automorphism of the (associative) table.
        """
        product, e = self.product, self.identity
        columns = list(zip(*product))
        perms = set()
        for g in core._iter_bits(self.units):
            h = product[g].index(e)  # g's inverse: gh = e only for h = g^-1
            # x -> (g*x)*h is g's row read through h's column
            perms.add(core._pick(product[g])(columns[h]))
        perms.discard(tuple(range(len(product))))
        return sorted(perms)


def _independent_sets(s: _Search, stop: int, perms: list[tuple[int, ...]]):
    """Yield (ids, closure_mask) for every independent subset of the ids
    below stop that is lex-min in its orbit under the conjugations perms,
    in lex order.

    Carries the closure of the current subset U and, for each a in U, the
    closure of U - {a}; the generators behind each closure are U or U - {a}, so
    extending by x updates each with s.adjoin, and a branch dies on the
    first extension that makes some element redundant.

    It skips U + [x] when some image of it under a conjugation is lex-smaller,
    before any closure (orderly generation: Read, "Every one a winner", 1978).
    Two sets of one size compare as their ascending id tuples do: the smaller
    holds the lowest id in which they differ.  A reversed mask puts id 0 in
    the highest of its N bits, so the lex-smaller set is the larger int.
    Removing the largest element of a lex-min set leaves a lex-min set, so
    every lex-min independent set is still reached, and only those.
    Conjugations preserve independence and generation, so the lex-first
    largest independent set, and the lex-first largest generating one, are
    lex-min in their orbits and the walk's witnesses are unchanged.  With no
    conjugations this is the plain lex walk over all independent subsets.

    All P conjugations are tested at once on packed ints of P fields of
    W bits, W = 8*ceil((N + 1)/8), the least multiple of 8 that is at least
    N + 1, so that each field is whole bytes: field k holds bits
    [k*W, k*W + N) and its guard is bit k*W + N (Lamport, "Multiple byte
    processing with full-word instructions", 1975).  The node carries
    margins, whose field k is 2^N + G - M_k, where G is U's reversed mask
    and M_k that of p_k(U); for the empty U at the root, margins is guards.
    x is not in U, nor p_k(x) in p_k(U) as p_k is a bijection, so adding x
    adds 2^(last - x) to G and 2^(last - p_k(x)) to M_k, which deltas[x]
    holds for every k at once: its subtrahend is the W-bit one-hot fields
    of p_0(x), p_1(x), ... joined as bytes, read off x's column of the
    conjugations.  U + [x] is lex-min iff G' >= M'_k for every k, and both
    are below 2^N, so each field of margins + deltas[x] is 2^N + G' - M'_k,
    between 0 and 2^(N + 1) <= 2^W: no carry or borrow crosses a field, and
    field k keeps its guard iff M'_k <= G'.  So one addition and one AND
    test every conjugation, and a kept node's margins have every guard set,
    as the root's do.  With no conjugations guards and every delta are 0,
    and every candidate passes.
    """
    last = len(s.product) - 1
    width = (last + 1) // 8 + 1  # W / 8 = ceil((N + 1)/8) bytes per field
    onehot = [(1 << last - y).to_bytes(width, "little") for y in range(last + 1)]  # id y's field
    ones = int.from_bytes(onehot[last] * len(perms), "little")  # bit 0 of every field
    # x's column of the conjugations, (p_0(x), p_1(x), ...); none with no conjugations
    columns = zip(*perms) if perms else [()] * stop
    deltas = [
        (ones << last - x) - int.from_bytes(b"".join(map(onehot.__getitem__, column)), "little")
        for x, column in zip(range(stop), columns)
    ]
    guards = ones << last + 1
    yield from _branch(s, deltas, guards, [], [], 0, guards)


def _branch(s: _Search, deltas: list[int], guards: int, u: list[int],
            minus: list[int], whole: int, margins: int):
    # module level, not nested in _independent_sets: a nested recursive
    # function is a reference cycle, which would keep the memo alive past
    # the walk until the cyclic collector ran.  deltas, guards and margins
    # are described at _independent_sets; deltas holds one int per id the
    # walk may try, so len(deltas) bounds the ids tried.
    yield tuple(u), whole
    # a memo hit is one dict lookup; only a miss calls s.adjoin, which
    # stores the closure
    tick, memo, adjoin = s.clock.tick, s.memo, s.adjoin
    for x in range(u[-1] + 1 if u else 0, len(deltas)):
        tick()
        if whole >> x & 1:
            continue  # x is already generated by u
        grown = margins + deltas[x]
        if grown & guards == guards:  # no image of u + [x] is lex-smaller
            seen = memo[x]
            ext = []
            for i, a in enumerate(u):
                cl = seen.get(minus[i])
                if cl is None:
                    cl = adjoin(u[:i] + u[i + 1:], minus[i], x)
                if cl >> a & 1:
                    break
                ext.append(cl)
            else:
                ext.append(whole)  # (u + [x]) minus x closes to exactly the old whole
                cl = seen.get(whole)
                if cl is None:
                    cl = adjoin(u, whole, x)
                yield from _branch(s, deltas, guards, u + [x], ext, cl, grown)


@dataclass(frozen=True)
class SearchOutcome:
    """One rank's value, its certificate and how it was found.

    exact=False means the budget ran out and value is only a bound in the
    search's favourable direction.  witness is None for r1, which carries no
    certificate.
    """

    value: int
    witness: tuple[int, ...] | None
    exact: bool = True
    method: str = "exhaustive"


def _splits(s: _Search) -> int:
    """The mask K of right zeros the walk splits at (see _walk), or 0 for
    the walk over all ids.

    This is the split's one statement of scope.  K is the right zeros when
    the other ids are exactly the group of units G and are 0..|G|-1.
    End(B_n) as built, its n! automorphisms then its n + 1 constants,
    splits at its constants; a right-zero band, with no units, at all its
    ids, so that A = () is the one set walked.  Other id layouts, such as
    End(B_n) with its ids shuffled, and every other table get 0: the split
    with K empty is the walk over all ids.
    """
    units, zeros = s.units, s.right_zeros
    if (
        units ^ zeros == s.full  # G and K are disjoint and cover the table
        and units & (units + 1) == 0  # the unit ids are 0..|G|-1
    ):
        return zeros
    return 0


def _candidates(s: _Search, zeros: int, perms: list[tuple[int, ...]]):
    """Yield (A, C, generates) for each candidate A + C of the walk split
    at zeros, a mask of right zeros: an independent set, and whether it
    generates the table.

    The walk runs over the ids outside K = zeros, and each independent A
    lex-min under perms comes with C, the lowest id of each orbit of <A> on
    K (see _walk); it generates iff <A> is all the walked ids.  With K
    empty C is () and A runs over the sets of _independent_sets.

    C depends on <A> alone, as c closed under right products by A is
    c*<A>^1, so it is computed once per closure whole = <A> and memoised.
    """
    product = s.product
    walked = s.full ^ zeros
    orbit_lows: dict[int, tuple[int, ...]] = {}
    for ids, whole in _independent_sets(s, walked.bit_length(), perms):
        lows = orbit_lows.get(whole)
        if lows is None:
            rest, found = zeros, []
            while rest:
                c = (rest & -rest).bit_length() - 1
                found.append(c)
                # c's orbit c*<A>^1 is c closed under right products by A; it
                # lies in K, so K serves as the full mask of the early exit
                rest &= ~core._grow(product, ids, 1 << c, [c], zeros)
            lows = orbit_lows[whole] = tuple(found)
        yield ids, lows, whole == walked


def _walk(s: _Search) -> tuple[SearchOutcome | None, ...]:
    """r4 and r3 from one walk, then r4 and r3 of the group of units G when
    the walk splits: (largest independent, largest independent generating,
    largest independent A, largest independent A with <A> = G), the last
    two None when K below is empty.

    Each outcome holds the lex-first candidate of the largest size: a
    candidate replaces the one held when it is larger, or as large and a
    smaller tuple.  The walk runs to its end, and every outcome is exact,
    or to its budget, which leaves every outcome inexact.

    A node budget walks the plain tree, all ids and no conjugations, so
    that it counts the same nodes on every version of the walk; any other
    walk splits at K = _splits(s): the right zeros, the z with s*z = z
    for every s, or no ids.  A nonempty K is an ideal, as t*(z*s) = (t*z)*s = z*s,
    so in a product everything before the last factor from K is absorbed
    by it: for A within the group of units G = S - K and C within K,
    <A + C> = <A> + C*<A>^1.  <A> lies in G, and is a subgroup when A is
    nonempty, so c*<A>^1 is c's orbit under the right action of <A> on K;
    for A empty, <A>^1 = {e} and every orbit is a single id.  A member of A
    lies in G, where C*<A - a>^1 adds nothing, and c lies outside <A>, so
    A + C is independent iff A is and C holds at most one id of each orbit.
    It generates iff <A> = G and C meets every orbit.  So r4 is the largest
    |A| + (orbits of <A> on K) over the independent A, and r3 the same over
    those with <A> = G.  For a given A the lex-first C takes the lowest id
    of each orbit, as every other choice of one id per orbit is, sorted,
    at least as large id by id.

    Lex-first: a conjugation p by a unit maps G to G and K to K and keeps
    independence and generation, so p(A + C) is an optimum when A + C is.
    With every unit id below every id of K, the tuple of A + C is A's
    followed by C's, so if p(A) were lex-smaller than A, p(A + C) would be
    lex-smaller than A + C.  So a lex-first optimum's A is lex-min in its
    orbit, the walk of the unit ids reaches it, and its candidate is that
    optimum.  As candidates of one size come from A's of different sizes,
    visit order alone does not decide, hence the explicit comparison.

    The group's ranks: with K nonempty the walked ids are G, and a set of
    units closes within G, so A is independent in G exactly when it is in
    the table, and generates G exactly when <A> = G.  Conjugations by units
    map G to G, so the lex-first largest independent A, and the lex-first
    largest with <A> = G, are lex-min in their orbits and walked; they are
    the r4 and r3 witnesses of G's own walk, in G's ids 0..|G|-1, those of
    the table restricted to G.  Every candidate with <A> = G has the same
    C, the lowest id of each orbit of G on K, so the candidates that
    generate rank as their A's do: G's r3 witness is the table's with K's
    ids dropped.

    Scope: the tables _splits names.  With K empty, C is empty and A runs
    over every independent set: the walk over all ids.
    """
    plain = s.clock.max_nodes is not None
    zeros = 0 if plain else _splits(s)
    largest: tuple[int, ...] = ()
    generating: tuple[int, ...] = ()
    unit_largest: tuple[int, ...] = ()
    exact = True
    try:
        for a, c, generates in _candidates(s, zeros, [] if plain else s.conjugations):
            ids = a + c
            if _precedes(ids, largest):
                largest = ids
            if _precedes(a, unit_largest):
                unit_largest = a
            if generates and _precedes(ids, generating):
                generating = ids
    except _Exhausted:
        exact = False
    # cannot happen: a smallest generating set is independent, because
    # dropping a redundant member would leave a smaller one
    if exact and not generating:
        raise AssertionError("no independent generating set found by a complete search")
    unit_generating = tuple(a for a in generating if not zeros >> a & 1)
    found = [
        SearchOutcome(len(ids), ids, exact, "pruned-search")
        for ids in (largest, generating, unit_largest, unit_generating)
    ]
    if not zeros:
        found[2:] = None, None
    return tuple(found)


def _precedes(ids: tuple[int, ...], held: tuple[int, ...]) -> bool:
    """ids is larger than held, or as large and lex-smaller."""
    return len(ids) > len(held) or len(ids) == len(held) and ids < held


def upper_rank(table: SemigroupTable, budget: Budget | None = None) -> SearchOutcome:
    """r4: a largest independent subset (lex-first among the largest found)."""
    return _walk(_Search(table, budget))[0]


def intermediate_rank(table: SemigroupTable, budget: Budget | None = None) -> SearchOutcome:
    """r3: a largest independent generating subset."""
    return _walk(_Search(table, budget))[1]


def _first_generating(s: _Search, need: int, u: list[int], cl: int,
                      ids: list[int], i: int, target: int):
    """Lex-first way to extend the prefix u (closure cl) by need of the ascending
    ids[i:] so that the closure becomes target, as a tuple; None if none does.

    Closures are adjoined incrementally down the prefix tree.  As in the walk,
    an x already in cl is skipped: no member of a smallest set reaching target
    is generated by those before it, so the lex-first one survives.  Module
    level for the reason given at _branch.
    """
    if need == 0:
        return tuple(u) if cl == target else None
    for j in range(i, len(ids) - need + 1):
        x = ids[j]
        if cl >> x & 1:
            continue  # x is already generated by u
        got = _first_generating(
            s, need - 1, u + [x], s.adjoin(u, cl, x), ids, j + 1, target,
        )
        if got is not None:
            return got
    return None


def _smallest_generating(s: _Search, u: list[int], cl: int,
                         ids: list[int], target: int) -> tuple[int, ...]:
    """The smallest lex-first extension of u by the ascending ids that reaches target."""
    for need in range(len(ids) + 1):
        got = _first_generating(s, need, u, cl, ids, 0, target)
        if got is not None:
            return got
    raise AssertionError("the search ids do not reach their target")


def _lower_rank(s: _Search) -> SearchOutcome:
    """r2 on a search context; see lower_rank."""
    units = s.units
    prefix = _smallest_generating(s, [], 0, list(core._iter_bits(units)), units)
    rest = list(core._iter_bits(s.full ^ units))
    witness = tuple(sorted(_smallest_generating(s, list(prefix), units, rest, s.full)))
    return SearchOutcome(len(witness), witness)


def lower_rank(table: SemigroupTable) -> SearchOutcome:
    """r2: a smallest generating subset, lex-first at the minimum size.

    Sizes are tried in ascending order, so the returned size k also certifies
    that no generating subset of size k - 1 exists.

    The search splits at the group of units G, wherever its ids lie:
    r2 = rank(G) + relrank(S : G) (Howie, Ruškuc and Higgins, 1998).  In a
    finite monoid ab = u, a unit, gives a(bu^-1) = e, and a right-invertible
    element is a unit; likewise for b.  So a product is a unit only if every
    factor is one, and in every generating set X, X ∩ G generates G.  For any
    P generating G, <P ∪ A> = <G ∪ A>.  The minimum generating sets are thus
    exactly the unions of a minimum P ⊆ G and a minimum A ⊆ S - G with
    <G ∪ A> = S.  Of two sets of one size, X is lex-first iff the least id of
    X △ Y lies in X, and as G and S - G are disjoint, (P ∪ A) △ (P' ∪ A') =
    (P △ P') ∪ (A △ A'): the lex-first P joined with the lex-first A is the
    lex-first minimum.  With no identity G is empty and P = (); a group has
    A = ().
    """
    return _lower_rank(_Search(table, None))


def small_rank(table: SemigroupTable) -> int:
    """r1, the largest k such that every k-subset is independent, in O(N^2).

    Singletons are always independent, so r1 >= 1, and three cases decide it:

      - some a*a != a: then N >= 2 and {a, a*a} is a dependent pair, so r1 = 1;
      - every product a*b lies in {a, b}: then every subset is closed, so no
        member is generated by the others and r1 = N (this covers N = 1);
      - otherwise the table is a band with some a*b outside {a, b}: every pair
        is independent, because <b> = {b} in a band, while {a, b, a*b} is
        dependent, so r1 = 2.
    """
    if not core.is_band(table):
        return 1
    if all(ab in (a, b) for a, row in enumerate(table.product) for b, ab in enumerate(row)):
        return table.size
    return 2


def smallest_prime_subset(table: SemigroupTable) -> frozenset[int]:
    """A minimum-size prime subset: every product landing in it has a factor in it.

    Sizes are searched in ascending order, so the result is genuinely minimum;
    ties at the minimum size are broken by scanning subsets drawn from the
    largest element ids first, which prefers zero-like certificates (zeros sit
    at the end of the canonical element orders used here).

    Singletons come first and need no pair table: {u} is prime iff no
    product a*b = u has a, b != u, that is, iff every row a != u holds u at
    most at column u.  The ids are scanned from the largest down, and each
    u's scan stops at the first row that refutes it, so End(B_n)'s zero
    constant, its last id, is found in one pass over the rows.  Only when no
    singleton is prime is the pair table core._hitters built, and sizes
    k >= 2 are searched in the same order as k = 1.
    """
    n = table.size
    product = table.product
    for u in range(n - 1, -1, -1):
        if all(row.count(u) == (row[u] == u) for a, row in enumerate(product) if a != u):
            return frozenset((u,))
    hitters = core._hitters(product)
    for k in range(2, n + 1):
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


# the core predicates each certificate is replayed through; r1 has none
_REPLAY = {
    "r2": (core.is_generating,),
    "r3": (core.is_independent, core.is_generating),
    "r4": (core.is_independent,),
    "r5": (core.is_prime_subset,),
}


@dataclass
class RankReport:
    """All requested ranks of one table: one record per rank, in RANK_KEYS order.

    ranks, certificates, methods and budget_exhausted are read-only views of
    those records.
    """

    records: dict[str, SearchOutcome]
    n: int | None = None
    table: SemigroupTable = field(repr=False, default=None)
    # r3 and r4 of the group of units, in its own ids, when the walk split at
    # the right zeros (see _walk); None otherwise.  Not replayed here, and
    # left out of to_dict and format_text.
    unit_ranks: dict[str, SearchOutcome] | None = field(repr=False, default=None)

    @property
    def ranks(self) -> dict[str, int]:
        return {key: rec.value for key, rec in self.records.items()}

    @property
    def certificates(self) -> dict[str, tuple[int, ...]]:
        return {
            "r5_prime" if key == "r5" else key: rec.witness
            for key, rec in self.records.items()
            if rec.witness is not None
        }

    @property
    def methods(self) -> dict[str, str]:
        return {key: rec.method for key, rec in self.records.items()}

    @property
    def budget_exhausted(self) -> bool:
        return not all(rec.exact for rec in self.records.values())

    def to_dict(self) -> dict:
        lab = self.table.label
        return {
            "n": self.n,
            "ranks": self.ranks,
            "certificates": {
                key: [lab(a) for a in sorted(ids)]
                for key, ids in self.certificates.items()
            },
            "methods": self.methods,
            "budget_exhausted": self.budget_exhausted,
        }

    def format_text(self) -> str:
        lab = self.table.label
        name = f"End(B_{self.n})" if self.n is not None else "table"
        lines = [f"{name}: {self.table.size} elements"]
        for key, rec in self.records.items():
            part = f"{key} = {rec.value}   [{rec.method}]"
            if rec.witness is not None:
                names = " ".join(lab(a) for a in sorted(rec.witness))
                part += f"   {'prime subset' if key == 'r5' else 'witness'}: {names}"
            lines.append(part)
        if len(self.records) > 1:
            lines.append("chain: " + " <= ".join(map(str, self.ranks.values())))
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

    r2 and the walk share one search context.  The budget, if any, applies to
    the one walk that finds both r3 and r4, timed from the start of the report;
    when it is cut short their records are inexact bounds and budget_exhausted
    is set.  r2 runs before the walk when it is asked for, and otherwise only
    after a cut walk that found no generating set at all, as a found r3 is
    never below r2 and r4 never below r3.  Then r3 steps down the chain to the
    r2 record, and r4 to r3's if smaller (sound: a smallest generating set is
    independent), with the method "chain-step", so the reported chain
    r1 <= r2 <= r3 <= r4 <= r5 always holds.  Every certificate is replayed
    through the core predicates and the chain is re-checked; a failure
    raises.  When the walk splits at the right zeros, unit_ranks holds r3 and
    r4 of the group of units from the same walk (see _walk), which a caller
    that reads them replays.
    """
    wanted = set(RANK_KEYS) if which is None else set(which)
    unknown = wanted - set(RANK_KEYS)
    if unknown:
        raise ValueError(f"unknown rank keys: {sorted(unknown)}")

    s = _Search(table, budget)
    found: dict[str, SearchOutcome] = {}
    unit_ranks = None
    if "r1" in wanted:
        found["r1"] = SearchOutcome(small_rank(table), None, method="fast-path")
    if "r2" in wanted:
        found["r2"] = _lower_rank(s)
    if wanted & {"r3", "r4"}:
        found["r4"], found["r3"], unit_r4, unit_r3 = _walk(s)
        if unit_r4 is not None:
            unit_ranks = {"r3": unit_r3, "r4": unit_r4}
        if not found["r3"].witness:
            # a cut walk found no generating set, so r3, and r4 if smaller, step
            # down the chain to the r2 record; a walk that found one has r4 >= r3 >= r2
            low = found.get("r2") or _lower_rank(s)
            for key in ("r3", "r4"):
                if found[key].value < low.value:
                    found[key] = replace(
                        found[key], value=low.value, witness=low.witness, method="chain-step"
                    )
    if "r5" in wanted:
        value, prime = large_rank(table)
        found["r5"] = SearchOutcome(value, tuple(sorted(prime)))

    records = {key: found[key] for key in RANK_KEYS if key in wanted}
    for key, rec in records.items():
        if not all(holds(rec.witness, table) for holds in _REPLAY.get(key, ())):
            raise RuntimeError(f"{key} certificate failed replay")
    report = RankReport(records, n=n, table=table, unit_ranks=unit_ranks)
    shown = list(report.ranks.values())
    if any(a > b for a, b in zip(shown, shown[1:])):
        raise RuntimeError(f"rank chain violated: {report.ranks}")
    return report


@dataclass(frozen=True)
class ConjectureReport:
    """Evidence about the largest independent subsets of End(B_n).

    predicted is n + 2, the size of the always-independent subset made of the
    identity automorphism and all constants.  verdict is one of:

      confirmed            complete search found nothing larger
      refuted-with-witness an independent subset of size at least n + 3 exists
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

    def to_dict(self, monoid: EndoMonoid) -> dict:
        lab = monoid.table.label
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
    plus all constants), then walks the independent subsets to the end or the
    budget.  A refutation is the lex-first largest independent subset found,
    if it has at least n + 3 elements, and is re-verified through
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

    best = _walk(_Search(table, budget))[0]
    if best.value >= n + 3:
        if not core.is_independent(best.witness, table):
            raise RuntimeError("refutation candidate failed re-verification")
        verdict = "refuted-with-witness"
        return ConjectureReport(n, n + 2, witness, verdict, best.witness, best.witness)
    verdict = "confirmed" if best.exact else "inconclusive"
    return ConjectureReport(n, n + 2, witness, verdict, best.witness)
