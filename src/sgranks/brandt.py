"""The Brandt semigroup B_n: pairs (i, j) over 1..n plus an absorbing zero.

(i, j) + (k, l) = (i, l) when j == k and zero otherwise; zero absorbs on both
sides.  Elements are modelled as 1-based pairs, with THETA (= None) for the
zero.  Table ids put the zero at 0 and pairs after it in row-major order.
"""

from __future__ import annotations

from .core import ResourceLimitError, SemigroupTable

THETA = None
# B_26 has 677 elements, the largest B_n no bigger than End(B_6) (727)
MAX_N = 26


def _check_element(a, n: int) -> None:
    if a is THETA:
        return
    if not (isinstance(a, tuple) and len(a) == 2):
        raise ValueError(f"Brandt element must be THETA or an (i, j) pair, got {a!r}")
    i, j = a
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair {a} out of range for n={n}")


def brandt_add(a, b, n: int):
    """Product of two B_n elements."""
    _check_element(a, n)
    _check_element(b, n)
    if a is THETA or b is THETA:
        return THETA
    i, j = a
    k, l = b
    return (i, l) if j == k else THETA


def element_to_id(a, n: int) -> int:
    """Table id of a B_n element: 0 for the zero, then pairs row-major."""
    _check_element(a, n)
    if a is THETA:
        return 0
    i, j = a
    return 1 + (i - 1) * n + (j - 1)


def id_to_element(eid: int, n: int):
    """Inverse of element_to_id."""
    if not 0 <= eid <= n * n:
        raise ValueError(f"element id {eid} out of range for n={n}")
    if eid == 0:
        return THETA
    i, j = divmod(eid - 1, n)
    return (i + 1, j + 1)


def element_label(a) -> str:
    return "theta" if a is THETA else f"({a[0]},{a[1]})"


def build_brandt(n: int) -> SemigroupTable:
    """Cayley table of B_n with its n*n + 1 elements labelled, for n <= MAX_N:
    the table holds (n*n + 1)^2 entries."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise ResourceLimitError(f"n={n} exceeds the Brandt table cap n <= {MAX_N}")
    elements = [id_to_element(eid, n) for eid in range(n * n + 1)]
    rows = [
        [element_to_id(brandt_add(a, b, n), n) for b in elements]
        for a in elements
    ]
    return SemigroupTable.from_rows(rows, [element_label(a) for a in elements])
