"""The five ranks straight from their definitions: one pass over every subset.

Subsets are int bitmasks 0..2^N-1 (bit a set means element a is in).  One
closure per mask gives both flags: a subset generates when its closure is the
whole table, and it is independent when no member lies in the closure of the
subset without that member.  The ranks then follow from the flags alone, with
none of the shortcuts or pruning the searches in ``ranks`` rely on, which makes
this the reference those searches are checked against.  Exponential in N, so
tables above MAX_SIZE elements raise ResourceLimitError.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import ResourceLimitError, SemigroupTable

MAX_SIZE = 12


@dataclass(frozen=True)
class SubsetFlags:
    """Per-mask closure, generating and independent flags of one table."""

    size: int
    closures: tuple[int, ...]
    generating: tuple[bool, ...]
    independent: tuple[bool, ...]

    def ranks(self) -> dict[str, int]:
        """r1..r5 from the flags.

        Both "every k-subset" properties are monotone in k (independence passes
        to subsets, generation to supersets), so r1 is one less than the
        smallest dependent subset and r5 one more than the largest
        non-generating one.
        """
        rows = [
            (mask.bit_count(), gen, ind)
            for mask, (gen, ind) in enumerate(zip(self.generating, self.independent))
        ]
        return {
            "r1": min((k for k, _, ind in rows if not ind), default=self.size + 1) - 1,
            "r2": min(k for k, gen, _ in rows if gen),
            "r3": max(k for k, gen, ind in rows if gen and ind),
            "r4": max(k for k, _, ind in rows if ind),
            "r5": max(k for k, gen, _ in rows if not gen) + 1,
        }


def subset_flags(table: SemigroupTable) -> SubsetFlags:
    """Closure and flags of every subset of table, indexed by mask."""
    n = table.size
    if n > MAX_SIZE:
        raise ResourceLimitError(
            f"{n} elements exceed the full subset enumeration cap of {MAX_SIZE}"
        )
    product = table.product
    full = (1 << n) - 1
    closures = [core._closure_mask(mask, product, full) for mask in range(1 << n)]
    independent = tuple(
        not any(closures[mask ^ (1 << a)] >> a & 1 for a in core._iter_bits(mask))
        for mask in range(1 << n)
    )
    return SubsetFlags(n, tuple(closures), tuple(cl == full for cl in closures), independent)
