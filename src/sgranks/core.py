"""Finite semigroups as Cayley tables, plus the subset predicates behind rank search.

Elements of a table of size N are the integers 0..N-1.  Subsets go in and out
of the public functions as frozensets (any iterable of ids is accepted); the
hot paths work on Python int bitmasks internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its configured search budget."""


@dataclass(frozen=True)
class SemigroupTable:
    """An N x N multiplication table over element ids 0..N-1.

    Construction checks shape and entry range only; associativity is *not*
    checked here, so run validate() on untrusted input.  Instances are
    immutable and safe to share between searches.
    """

    product: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.product)
        if n == 0:
            raise ValueError("a semigroup table needs at least one element")
        for row in self.product:
            if len(row) != n:
                raise ValueError("product table must be square")
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"table entry {v} out of range [0, {n})")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count must match table size")

    @classmethod
    def from_rows(cls, rows, labels=None) -> "SemigroupTable":
        return cls(
            tuple(tuple(row) for row in rows),
            None if labels is None else tuple(labels),
        )

    @property
    def size(self) -> int:
        return len(self.product)

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

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
    """Check (a*b)*c == a*(b*c) for every triple, reporting the first failure."""
    p = table.product
    n = table.size
    for a in range(n):
        pa = p[a]
        for b in range(n):
            p_ab = p[pa[b]]
            pb = p[b]
            for c in range(n):
                if p_ab[c] != pa[pb[c]]:
                    return ValidationReport(False, (a, b, c))
    return ValidationReport(True)


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
    """
    if mask >> x & 1:
        return mask
    frontier = []
    for c in (x, *(product[s][x] for s in _iter_bits(mask))):
        bit = 1 << c
        if not mask & bit:
            mask |= bit
            frontier.append(c)
    return _grow(product, gens + [x], mask, frontier, full_mask)


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
    error rather than vacuously prime.
    """
    n = table.size
    mask = _mask_from_ids(subset, n)
    if mask == 0:
        raise ValueError("prime subsets are nonempty by definition")
    p = table.product
    for a in range(n):
        a_in = mask >> a & 1
        row = p[a]
        for b in range(n):
            if mask >> row[b] & 1 and not (a_in or mask >> b & 1):
                return False
    return True


def restrict(table: SemigroupTable, subset: Iterable[int]) -> SemigroupTable:
    """Subtable on a product-closed subset, renumbered in ascending id order."""
    ids = sorted(set(subset))
    if not ids:
        raise ValueError("cannot restrict to the empty set")
    n = table.size
    index = {}
    for a in ids:
        if not 0 <= a < n:
            raise ValueError(f"element id {a} out of range [0, {n})")
        index[a] = len(index)
    p = table.product
    for a in ids:
        for b in ids:
            if p[a][b] not in index:
                raise ValueError(
                    f"subset is not closed: {a}*{b} = {p[a][b]} lies outside it"
                )
    rows = [[index[p[a][b]] for b in ids] for a in ids]
    labels = None if table.labels is None else [table.labels[a] for a in ids]
    return SemigroupTable.from_rows(rows, labels)


def format_table_text(table: SemigroupTable) -> str:
    """Render the line-oriented text format: size line, N row lines, optional label line."""
    lines = [str(table.size)]
    for row in table.product:
        lines.append(" ".join(map(str, row)))
    if table.labels is not None:
        for lab in table.labels:
            # labels share a whitespace-separated line, so they cannot contain whitespace
            if not lab or any(ch.isspace() for ch in lab):
                raise ValueError(f"label {lab!r} cannot be written to the text format")
        lines.append(" ".join(table.labels))
    return "\n".join(lines) + "\n"


def parse_table_text(text: str) -> SemigroupTable:
    """Parse the output of format_table_text; accepts LF or CRLF and trailing blank lines."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty table text")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"first line must be the element count, got {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"element count must be positive, got {n}")
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for i in range(1, n + 1):
        parts = lines[i].split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        try:
            rows.append([int(tok) for tok in parts])
        except ValueError:
            raise ValueError(f"row {i} contains a non-integer entry") from None
    labels = None
    if len(lines) > n + 1:
        if len(lines) > n + 2:
            raise ValueError("unexpected content after the label line")
        labels = lines[n + 1].split()
        if len(labels) != n:
            raise ValueError(f"label line has {len(labels)} entries, expected {n}")
    return SemigroupTable.from_rows(rows, labels)
