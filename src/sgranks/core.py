"""Finite semigroups as Cayley tables, plus the subset predicates behind rank search.

Elements of a table of size N are the integers 0..N-1.  Subsets go in and out
of the public functions as frozensets (any iterable of ids is accepted); the
hot paths work on Python int bitmasks internally.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a fixed size cap.

    The caps are the structural enumeration at n <= 6, the backtracking
    oracle at n <= 3, the Brandt table at n <= 26 (677 elements, no more
    than End(B_6)'s 727) and the reference oracle at 12 elements.  A spent
    search budget never raises: it flags its records inexact.
    """


def _check_row(row, n: int) -> None:
    """Raise on a table row that is not N int ids in 0..N-1: on its length,
    then on its first entry that is not an int (bools are ids), then on its
    first int outside 0..N-1."""
    if len(row) != n:
        raise ValueError("product table must be square")
    for v in row:
        if not isinstance(v, int):
            raise ValueError(f"table entry {v!r} is not an integer")
    for v in row:
        if not 0 <= v < n:
            raise ValueError(f"table entry {v} out of range [0, {n})")


def _check_labels(labels) -> None:
    """Raise on labels that the certificates and the text format cannot use:
    naming the first that is not a str, then the first that is empty or
    holds whitespace, then the first met a second time, as a label names
    one element."""
    for lab in labels:
        if not isinstance(lab, str):
            raise ValueError(f"label {lab!r} is not a string")
    for lab in labels:
        # labels share a whitespace-separated line; str.split() splits at
        # exactly what str.isspace() marks, and yields [] for ""
        if lab.split() != [lab]:
            raise ValueError(f"label {lab!r} cannot be written to the text format")
    if len(set(labels)) != len(labels):
        # quadratic, but only on the way to the error
        repeated = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
        raise ValueError(f"label {repeated!r} names more than one element")


@dataclass(frozen=True)
class SemigroupTable:
    """An N x N multiplication table over element ids 0..N-1.

    Construction stores product and labels as tuples, so a table built from
    lists is hashable and equal to its twin from tuples.  It checks the rows
    in order by _check_row, so the first bad row decides, then N labels, if
    given, by _check_labels, so every table can be written as text.
    Associativity is *not* checked here, so run validate() on untrusted
    input.  Instances are immutable and safe to share between searches.

    The constructor, from_rows and brandt.build_brandt run that check.
    _from_ids skips it, and only three builders call it, as each has
    already proved every entry an int id in 0..N-1 and every label one of a
    checked table, so the check would only repeat a pass over all N^2
    entries: parse_table_text, whose rows are looked up token by token in a
    dict of ids, EndoMonoid, whose entries are values of its index of
    elements or entries of rows already built, and restrict, whose entries
    are values of its index of the subset and whose labels are the table's.
    """

    product: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        product = tuple(map(tuple, self.product))
        n = len(product)
        if n == 0:
            raise ValueError("a semigroup table needs at least one element")
        for row in product:
            _check_row(row, n)
        object.__setattr__(self, "product", product)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise ValueError("label count must match table size")
            _check_labels(labels)
            object.__setattr__(self, "labels", labels)

    @classmethod
    def from_rows(cls, rows, labels=None) -> "SemigroupTable":
        return cls(rows, labels)

    @classmethod
    def _from_ids(cls, product, labels) -> "SemigroupTable":
        """A table whose caller has proved it valid: product a nonempty tuple
        of N tuples of N ints in 0..N-1, and labels None or a tuple of N
        distinct, non-empty strings free of whitespace.  Runs no check, so
        only the builders named in the class docstring may call it."""
        table = object.__new__(cls)
        object.__setattr__(table, "product", product)
        object.__setattr__(table, "labels", labels)
        return table

    @property
    def size(self) -> int:
        return len(self.product)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)


@dataclass(frozen=True)
class ValidationReport:
    """Associativity check result; violation is the first bad (a, b, c) in lex order."""

    ok: bool
    violation: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate(table: SemigroupTable) -> ValidationReport:
    """Check (a*b)*c == a*(b*c) for every triple, reporting the first failure.

    Light's test: the middle factor b need only run over a generating set A.
    Let M = {b : (x*b)*y == x*(b*y) for all x, y}.  For b, c in M and any x, y:
    1. (x*(b*c))*y == ((x*b)*c)*y, as b is in M;
    2. ((x*b)*c)*y == (x*b)*(c*y), as c is in M;
    3. (x*b)*(c*y) == x*(b*(c*y)), as b is in M;
    4. x*(b*(c*y)) == x*((b*c)*y), as c is in M.
    So b*c is in M, M is closed under the product, and A within M gives M = S.

    A is picked greedily: each id the closure so far misses is adjoined.  The
    closure is built from left-normed products g1*g2*...*gk only, each a
    product in any table, so it assumes no associativity.  For each b in A,
    whole rows over c are compared: row a*b of the table against a's row read
    through b's row.  Any mismatch falls back to the same comparison over
    every (a, b) in lex order, and only a row that differs there is scanned
    for its first c, so the reported triple is the lex-first.
    """
    p = table.product
    n = table.size
    full = (1 << n) - 1
    gens: list[int] = []
    mask = 0
    for x in range(n):
        if not mask >> x & 1:
            mask = _adjoin(p, gens, mask, x, full)
            gens.append(x)
    for b in gens:
        after_b = _pick(p[b])
        if any(p[pa[b]] != after_b(pa) for pa in p):
            break
    else:
        return ValidationReport(True)
    # after[b](pa) is the row of a*(b*c) over c
    after = list(map(_pick, p))
    a, b = next((a, b) for a, pa in enumerate(p) for b in range(n) if p[pa[b]] != after[b](pa))
    pa, pb = p[a], p[b]
    c = next(c for c in range(n) if p[pa[b]][c] != pa[pb[c]])
    return ValidationReport(False, (a, b, c))


def _mask_from_ids(ids: Iterable[int], n: int) -> int:
    mask = 0
    for a in ids:
        if not 0 <= a < n:
            raise ValueError(f"element id {a} out of range [0, {n})")
        mask |= 1 << a
    return mask


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hitters(product) -> list[list[tuple[int, int]]]:
    """hitters[c] lists the pairs (a, b) with a*b = c, in row-major order."""
    hitters = [[] for _ in product]
    for a, row in enumerate(product):
        for b, c in enumerate(row):
            hitters[c].append((a, b))
    return hitters


def _grow(product, gens: list[int], mask: int, frontier: list[int], full_mask: int) -> int:
    """Close mask under right multiplication by gens, by worklist.

    frontier lists the members of mask whose right products by gens are not
    yet in; every other member's are.  When gens lie in mask and mask lies in
    <gens>, the result is <gens>, since each product g1*g2*...*gk is reached
    from g1 by right multiplications.  Costs |gens| lookups per element, not
    one per pair of elements.  Appends each new element to frontier once, and
    exits early once every element is present.
    """
    for a in frontier:  # the loop also visits the elements appended below
        row = product[a]
        for g in gens:
            c = row[g]
            bit = 1 << c
            if not mask & bit:
                mask |= bit
                frontier.append(c)
        if mask == full_mask:
            break
    return mask


def _adjoin(product, gens: list[int], mask: int, x: int, full_mask: int) -> int:
    """<gens + [x]> as a mask, given that mask is <gens>.

    mask is closed under right multiplication by gens, so among its members
    only the products s*x can be new; x and those seed the frontier.
    full_mask must hold <gens + [x]>, so the early exit at it fires only once
    the closure is reached.  The result is thus <mask + {x}>, fixed by
    (mask, x) alone, whichever generators of mask are given.
    """
    grown = mask | 1 << x
    frontier = [x]
    # the bits of mask, inlined, for the callers that pass a nonempty mask:
    # validate, r2's second phase and the walks of tables that do not split.
    # End(B_n)'s split walk comes here with mask empty only, as it grows
    # every nonempty set of units by _cosets.
    while mask:
        low = mask & -mask
        mask ^= low
        c = product[low.bit_length() - 1][x]
        bit = 1 << c
        if not grown & bit:
            grown |= bit
            frontier.append(c)
    return _grow(product, gens + [x], grown, frontier, full_mask)


def _cosets(product, gens: list[int], group: int, x: int, units: int) -> tuple[int, int]:
    """(<K + {x}>, K*x*K) as masks, where group is a closed nonempty set K
    of units that gens generate, x a unit outside it, and units is the
    group of units G.

    K is a subgroup of the finite group G, so <K + {x}> is a group H and a
    union of left cosets r*K (Dimino's algorithm; Butler, Fundamental
    Algorithms for Permutation Groups, 1991).  Each new representative r
    adds its whole coset: |K| lookups, each a new element, as r*K is
    disjoint from the cosets held when r is not in them.  Then only g*r is
    tested for each generator g, since g*(r*K) = (g*r)*K by associativity,
    which every search assumes.  K itself needs no test, as g*K = K for g
    in K, and x*K is the first coset added.

    The growth runs in two stages over one list of representatives.  The
    first, from x*K under gens alone, closes the union under left products
    by K, so the cosets added are the double coset K*x*K (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005).  The second
    goes on under gens + [x]: the union is then closed under left products
    by every generator of H, so it holds every product of them, and it is H.

    By Lagrange |H| divides |G|, and H is G once it holds more than |G|/2
    elements: once the 1 + len(reps) cosets held number more than
    most = |G| // (2|K|).  Then units is returned at once, but only once
    K*x*K is whole.  At exactly |G|/2 elements, as for A_4 in S_4, H may
    be proper, and the growth goes on.
    """
    members = list(_iter_bits(group))
    most = units.bit_count() // (2 * len(members))
    held = group
    row = product[x]
    for k in members:
        held |= 1 << row[k]
    reps = [x]
    double = 0  # K*x*K, once the first stage is over
    for step in (gens, gens + [x]):
        for r in reps:  # the loop also visits the representatives appended below
            for g in step:
                c = product[g][r]
                if not held >> c & 1:
                    row = product[c]
                    for k in members:
                        held |= 1 << row[k]
                    reps.append(c)
                    if double and len(reps) >= most:
                        return units, double
        if not double:
            double = held ^ group
            if len(reps) >= most:
                return units, double
    return held, double


def _closure_mask(mask: int, product, full_mask: int) -> int:
    gens = list(_iter_bits(mask))
    return _grow(product, gens, mask, gens.copy(), full_mask)


def closure(gens: Iterable[int], table: SemigroupTable) -> frozenset[int]:
    """Subsemigroup generated by gens.

    The empty set generates the empty set: a semigroup carries no identity, so
    there is nothing an empty product could contribute.
    """
    n = table.size
    mask = _mask_from_ids(gens, n)
    return frozenset(_iter_bits(_closure_mask(mask, table.product, (1 << n) - 1)))


def is_generating(subset: Iterable[int], table: SemigroupTable) -> bool:
    """True iff subset generates every element of the table."""
    n = table.size
    full = (1 << n) - 1
    return _closure_mask(_mask_from_ids(subset, n), table.product, full) == full


def is_independent(subset: Iterable[int], table: SemigroupTable) -> bool:
    """True iff no element of subset is generated by the other elements.

    The empty set and all singletons are independent, because the empty set
    generates nothing.
    """
    n = table.size
    mask = _mask_from_ids(subset, n)
    full = (1 << n) - 1
    for a in _iter_bits(mask):
        rest = mask & ~(1 << a)
        if _closure_mask(rest, table.product, full) >> a & 1:
            return False
    return True


def idempotents(table: SemigroupTable) -> frozenset[int]:
    """All a with a*a == a."""
    return frozenset(a for a in range(table.size) if table.product[a][a] == a)


def is_band(table: SemigroupTable) -> bool:
    """True iff every element is idempotent."""
    return all(table.product[a][a] == a for a in range(table.size))


def is_prime_subset(subset: Iterable[int], table: SemigroupTable) -> bool:
    """True iff every product that lands in subset has at least one factor in subset.

    Prime subsets are nonempty by definition, so an empty subset is an input
    error rather than vacuously prime.  Equivalently, no product of two ids
    outside lands inside: for each id a outside, its row read at the ids
    outside, in one C-level lookup, is disjoint from the subset.
    """
    ids = list(subset)
    n = table.size
    if _mask_from_ids(ids, n) == 0:
        raise ValueError("prime subsets are nonempty by definition")
    inside = set(ids)
    outside = sorted(set(range(n)) - inside)
    if not outside:  # the whole table
        return True
    pick = _pick(outside)
    return all(map(inside.isdisjoint, map(pick, pick(table.product))))


def restrict(table: SemigroupTable, subset: Iterable[int]) -> SemigroupTable:
    """Subtable on a product-closed subset, renumbered in ascending id order.

    Each row is read at the subset's ids and renumbered through its index
    in two C-level lookups.  A product outside the subset misses the index,
    and the first such pair (a, b) in row-major order is named.
    """
    ids = sorted(set(subset))
    if not ids:
        raise ValueError("cannot restrict to the empty set")
    _mask_from_ids(ids, table.size)  # ascending, so an error names the lowest bad id
    index = {a: i for i, a in enumerate(ids)}
    pick = _pick(ids)
    rows = []
    for a, row in zip(ids, pick(table.product)):
        products = pick(row)
        try:
            rows.append(_pick(products)(index))
        except KeyError:
            b, c = next((b, c) for b, c in zip(ids, products) if c not in index)
            raise ValueError(f"subset is not closed: {a}*{b} = {c} lies outside it") from None
    labels = None if table.labels is None else pick(table.labels)
    # every entry is a value of index and every label one of a checked table
    return SemigroupTable._from_ids(tuple(rows), labels)


def _pick(keys) -> Callable[..., tuple]:
    """A getter mapping a table to the tuple of its entries at keys, read in
    one C-level call by an itemgetter, the only one sgranks builds.  For one
    key, where an itemgetter gives the bare item, the getter gives a 1-tuple.

    The getter raises KeyError or IndexError for a key that table lacks.
    """
    if len(keys) == 1:
        (key,) = keys
        return lambda table: (table[key],)
    return itemgetter(*keys)


def write_table_text(table: SemigroupTable, out) -> None:
    """Write the line-oriented text format to out, a text stream, one line
    at a time: the size line, N row lines and the optional label line.

    Checks nothing: SemigroupTable admits only labels the format can hold.
    """
    names = tuple(map(str, range(table.size)))
    write = out.write
    write(f"{table.size}\n")
    for row in table.product:
        write(" ".join(_pick(row)(names)) + "\n")
    if table.labels is not None:
        write(" ".join(table.labels) + "\n")


def format_table_text(table: SemigroupTable) -> str:
    """The text that write_table_text writes, as one string."""
    buf = io.StringIO()
    write_table_text(table, buf)
    return buf.getvalue()


def _decimal(t: str) -> int | None:
    """t as an int when it is one in the plain decimal that format_table_text
    writes, else None: "00", "+1", "0_1", "1.0" and non-ASCII digits are not."""
    try:
        v = int(t)
    except ValueError:
        return None
    return v if str(v) == t else None


def parse_table_text(text: str) -> SemigroupTable:
    """Parse the output of format_table_text; accepts LF or CRLF and trailing blank lines.

    The count and the entries are integers in plain decimal, as
    format_table_text writes them; any other spelling is refused, an
    entry's with its row and token.  An entry outside 0..N-1 gets
    SemigroupTable's out-of-range message.  The first faulty line decides:
    the rows in order, then the label line by its length and _check_labels,
    then a line after it.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty table text")
    n = _decimal(lines[0].strip())
    if n is None:
        raise ValueError(f"first line must be the element count, got {lines[0]!r}")
    if n < 1:
        raise ValueError(f"element count must be positive, got {n}")
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    # built only now, so that a header claiming more rows than the text holds
    # cannot make it allocate
    ids = {str(a): a for a in range(n)}
    rows = []
    for i in range(1, n + 1):
        parts = lines[i].split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        try:
            rows.append(_pick(parts)(ids))
        except KeyError:  # name the first token not in plain decimal, else _check_row raises
            for t in parts:
                if _decimal(t) is None:
                    raise ValueError(f"row {i} has entry {t!r}, which is not an element id")
            _check_row(tuple(map(int, parts)), n)
            raise
    labels = None
    if len(lines) > n + 1:
        labels = tuple(lines[n + 1].split())
        if len(labels) != n:
            raise ValueError(f"label line has {len(labels)} entries, expected {n}")
        _check_labels(labels)
        if len(lines) > n + 2:
            raise ValueError("unexpected content after the label line")
    return SemigroupTable._from_ids(tuple(rows), labels)
