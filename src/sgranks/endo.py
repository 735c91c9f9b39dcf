"""Endomorphisms of B_n and their composition monoid.

Maps act on the right: the composite fg applies f first, then g.  Every
endomorphism is stored as its full image vector over B_n table ids, tagged as
an automorphism, the zero constant, or a constant onto a diagonal idempotent.

The monoid is enumerated two independent ways: structurally (all n!
automorphisms plus the n + 1 idempotent-valued constants) and, for small n, by
exhaustive backtracking over all multiplicative self-maps.  The two must agree;
the second exists to check the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations

from .brandt import THETA, build_brandt, element_to_id, id_to_element
from .core import ResourceLimitError, SemigroupTable, _hitters, _pick, restrict

AUTOMORPHISM = "automorphism"
ZERO_CONSTANT = "zero_constant"
NONZERO_CONSTANT = "nonzero_constant"

STRUCTURAL_MAX_N = 6
ORACLE_MAX_N = 3

Perm = tuple[int, ...]


def check_perm(sigma, n: int) -> None:
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{n}")


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def perm_compose(sigma, tau) -> tuple[int, ...]:
    """Apply sigma first, then tau."""
    return tuple(tau[s - 1] for s in sigma)


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"transposition needs two distinct points in 1..{n}")
    sigma = list(range(1, n + 1))
    sigma[a - 1], sigma[b - 1] = b, a
    return tuple(sigma)


def full_cycle(n: int) -> tuple[int, ...]:
    """The n-cycle sending 1 -> 2 -> ... -> n -> 1."""
    return tuple(range(2, n + 1)) + (1,)


def perm_cycles(sigma) -> list[tuple[int, ...]]:
    """Disjoint cycles of length >= 2, each starting at its smallest point."""
    seen = [False] * (len(sigma) + 1)  # seen[p]: p lies on a cycle already listed
    cycles = []
    for start, nxt in enumerate(sigma, 1):
        if nxt == start or seen[start]:
            continue  # a fixed point, or a later point of a listed cycle
        cyc = [start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = sigma[nxt - 1]
        cycles.append(tuple(cyc))
    return cycles


def perm_label(sigma) -> str:
    cycles = perm_cycles(sigma)
    if not cycles:
        return "id"
    return "".join("(" + ",".join(map(str, cyc)) + ")" for cyc in cycles)


@lru_cache(maxsize=None)
def _brandt_product(n: int):
    return build_brandt(n).product


@dataclass(frozen=True)
class Endomorphism:
    """A multiplicative self-map of B_n, as its image vector over table ids.

    kind is one of AUTOMORPHISM (with perm set), NONZERO_CONSTANT (with value
    i for the constant onto (i, i)) or ZERO_CONSTANT.
    """

    n: int
    image: tuple[int, ...]
    kind: str
    perm: tuple[int, ...] | None = None
    value: int | None = None

    @property
    def label(self) -> str:
        if self.kind == AUTOMORPHISM:
            return "phi_" + perm_label(self.perm)
        if self.kind == NONZERO_CONSTANT:
            return f"xi_({self.value},{self.value})"
        return "xi_theta"


def phi_of_perm(sigma, n: int) -> Endomorphism:
    """The automorphism (i, j) -> (i sigma, j sigma), fixing the zero."""
    check_perm(sigma, n)
    # element_to_id's formula, without its checks: check_perm covered them.
    # Over the 0-based points, (i, j) has id 1 + i*n + j, so the ids in
    # row-major order are those of (i sigma, j sigma)
    zero_based = [s - 1 for s in sigma]
    image = (0, *[1 + si * n + sj for si in zero_based for sj in zero_based])
    return Endomorphism(n, image, AUTOMORPHISM, perm=tuple(sigma))


def constant_map(target, n: int) -> Endomorphism:
    """The constant map onto target, which must be idempotent.

    Constants onto (i, j) with i != j are rejected: they would break
    multiplicativity, since (i, j) + (i, j) is the zero.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    size = n * n + 1
    if target is THETA:
        return Endomorphism(n, (0,) * size, ZERO_CONSTANT)
    i, j = target
    if i != j:
        raise ValueError(f"constant onto non-idempotent {target} is not multiplicative")
    tid = element_to_id((i, i), n)
    return Endomorphism(n, (tid,) * size, NONZERO_CONSTANT, value=i)


def _tag_image(n: int, image) -> tuple[str, tuple[int, ...] | None, int | None]:
    """Classify an image vector as (kind, perm, value); raises if it fits no kind."""
    size = n * n + 1
    first = image[0]
    if all(v == first for v in image):
        if first == 0:
            return ZERO_CONSTANT, None, None
        e = id_to_element(first, n)
        if e is not THETA and e[0] == e[1]:
            return NONZERO_CONSTANT, None, e[0]
        raise ValueError(f"constant image onto non-idempotent id {first}")
    if sorted(image) == list(range(size)):
        # recover the permutation from the diagonal, then re-check the whole vector
        sigma = []
        for i in range(1, n + 1):
            e = id_to_element(image[element_to_id((i, i), n)], n)
            if e is THETA or e[0] != e[1]:
                raise ValueError("bijective image does not permute the diagonal")
            sigma.append(e[0])
        sigma = tuple(sigma)
        check_perm(sigma, n)
        if phi_of_perm(sigma, n).image != tuple(image):
            raise ValueError("bijective image is not induced by a permutation")
        return AUTOMORPHISM, sigma, None
    raise ValueError("image is neither constant nor bijective")


def from_image(n: int, image) -> Endomorphism:
    """Build a verified endomorphism: checks multiplicativity on all pairs, then classifies."""
    size = n * n + 1
    image = tuple(image)
    if len(image) != size:
        raise ValueError(f"image vector has length {len(image)}, expected {size}")
    for v in image:
        if not 0 <= v < size:
            raise ValueError(f"image value {v} out of range [0, {size})")
    prod = _brandt_product(n)
    for x in range(size):
        fx = image[x]
        row_x = prod[x]
        for y in range(size):
            if image[row_x[y]] != prod[fx][image[y]]:
                raise ValueError(f"map is not multiplicative at ({x}, {y})")
    kind, sigma, value = _tag_image(n, image)
    return Endomorphism(n, image, kind, perm=sigma, value=value)


def compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """Right-action composite: x -> (x f) g."""
    if f.n != g.n:
        raise ValueError("cannot compose endomorphisms of different degrees")
    image = tuple(g.image[v] for v in f.image)
    kind, sigma, value = _tag_image(f.n, image)
    return Endomorphism(f.n, image, kind, perm=sigma, value=value)


def classify(f: Endomorphism) -> str:
    """Re-verify multiplicativity from scratch and return the kind tag."""
    return from_image(f.n, f.image).kind


def canonical_sort_key(f: Endomorphism):
    """Automorphisms by permutation (identity first), then constants by value, zero last."""
    if f.kind == AUTOMORPHISM:
        return (0, f.perm)
    if f.kind == NONZERO_CONSTANT:
        return (1, f.value)
    return (2, 0)


class EndoMonoid:
    """All endomorphisms of B_n under composition, with a fixed element order.

    Element ids: the automorphisms sorted by permutation image (identity
    first), then the constants onto (1,1)..(n,n), then the zero constant last,
    as canonical_sort_key orders them; elements in any other order raise
    ValueError.

    The table is composed from the image vectors, by the definition of fg,
    not from a formula on permutations, so verify's automorphism-composition
    check stays independent of it.  Only the rows of a greedy generating set
    are composed so (each id in ascending order that the generators so far
    do not give; n + 2 of them for End(B_n)); every other row is read off
    through associativity of composition, as in Froidure and Pin (1997).
    Each image is held as bytes and used as a translation table, so image
    ids must fit in a byte: n <= 15.  Raises ValueError if a composite is
    not among the elements, naming the first such pair in row-major order.
    """

    def __init__(self, n: int, elements):
        self.n = n
        self.elements = tuple(elements)
        try:
            keys = [bytes(f.image) for f in self.elements]
        except ValueError:
            raise ValueError(
                f"image ids of B_{n} do not fit in a byte: the table is built for n <= 15 only"
            ) from None
        self._index = index = {key: k for k, key in enumerate(keys)}
        if len(index) != len(keys):
            raise ValueError("duplicate endomorphisms")
        order = list(map(canonical_sort_key, self.elements))
        if any(a >= b for a, b in zip(order, order[1:])):
            raise ValueError("endomorphisms are not in canonical order")
        self._aut_count = sum(f.kind == AUTOMORPHISM for f in self.elements)
        # g's image as a translation table: key_f.translate(tables[g]) is the image of fg
        tables = [key.ljust(256, b"\0") for key in keys]
        rows = [None] * len(keys)
        generators = []
        known = []  # ids whose rows are set, closed under right products by the generators

        def derive(f: int, s: int) -> None:
            # composition of maps is associative, so (fs)g = f(sg) for every g:
            # the row of fs is f's row read at the entries of s's row
            h = rows[f][s]
            if rows[h] is None:
                rows[h] = _pick(rows[s])(rows[f])
                known.append(h)

        for x, key in enumerate(keys):
            if rows[x] is not None:
                continue
            # x is not a product of the generators so far: compose its row by definition
            try:
                rows[x] = _pick(list(map(key.translate, tables)))(index)
            except KeyError:
                f = self.elements[x]
                g = next(g for g, t in zip(self.elements, tables) if key.translate(t) not in index)
                raise ValueError(
                    f"the composite {f.label} then {g.label} is not among the elements"
                ) from None
            generators.append(x)
            old = len(known)
            known.append(x)
            for f in known[:old]:
                derive(f, x)
            i = old
            while i < len(known):  # known grows as rows are derived
                for s in generators:
                    derive(known[i], s)
                i += 1
        # every entry is a value of index or an entry of a row built before, so
        # the table skips SemigroupTable's check; with no elements there are no
        # rows, and the checked constructor raises
        build = SemigroupTable._from_ids if rows else SemigroupTable
        self.table = build(tuple(rows), tuple(f.label for f in self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, f: Endomorphism) -> int:
        try:
            return self._index[bytes(f.image)]
        except (KeyError, ValueError):  # ValueError: an id that does not fit in a byte
            raise ValueError("endomorphism does not belong to this monoid") from None

    def perm_id(self, sigma) -> int:
        """Id of the automorphism induced by sigma."""
        return self.index_of(phi_of_perm(sigma, self.n))

    def constant_id(self, i: int) -> int:
        """Id of the constant onto (i, i)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"no constant onto ({i},{i}) for n={self.n}")
        return self.index_of(constant_map((i, i), self.n))

    @cached_property  # verify reads it once per element
    def zero_id(self) -> int:
        """Id of the zero constant (last when present)."""
        return self.index_of(constant_map(THETA, self.n))

    @property
    def automorphism_ids(self) -> range:
        return range(self._aut_count)

    @property
    def constant_ids(self) -> range:
        """Ids of all the constants, the zero constant included."""
        return range(self._aut_count, len(self.elements))

    def aut_subtable(self) -> SemigroupTable:
        """Subtable on the automorphisms (a copy of the symmetric group S_n)."""
        return restrict(self.table, self.automorphism_ids)

    def sidecar(self) -> dict:
        """JSON-ready description of every element."""
        labels = self.table.labels
        return {
            "n": self.n,
            "size": len(self.elements),
            "elements": [
                {
                    "id": k,
                    "label": labels[k],
                    "kind": f.kind,
                    "image": list(f.image),
                    "perm": None if f.perm is None else list(f.perm),
                    "value": f.value,
                }
                for k, f in enumerate(self.elements)
            ],
        }


def enumerate_endomorphisms_structural(n: int) -> EndoMonoid:
    """End(B_n) from its known shape: n! automorphisms and n + 1 constants.

    Sizes grow factorially, so n is capped at STRUCTURAL_MAX_N to keep the
    table buildable.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > STRUCTURAL_MAX_N:
        raise ResourceLimitError(f"n={n} exceeds the factorial enumeration cap n <= {STRUCTURAL_MAX_N}")
    elements = [phi_of_perm(sigma, n) for sigma in permutations(range(1, n + 1))]
    elements += [constant_map((i, i), n) for i in range(1, n + 1)]
    elements.append(constant_map(THETA, n))
    return EndoMonoid(n, elements)


def enumerate_endomorphisms_oracle(n: int) -> list[Endomorphism]:
    """Every multiplicative self-map of B_n, found by exhaustive backtracking.

    Assigns images in table-id order and rejects a partial map as soon as some
    fully-assigned triple violates f(x + y) = f(x) + f(y).  The image of the
    zero is restricted up front to idempotents, which the law itself forces.
    Independent of the structural enumeration; results sorted canonically.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(f"n={n} exceeds the oracle enumeration cap n <= {ORACLE_MAX_N}")
    prod = _brandt_product(n)
    size = n * n + 1

    hitters = _hitters(prod)
    idem = [e for e in range(size) if prod[e][e] == e]

    image = [0] * size
    found: list[tuple[int, ...]] = []

    def consistent(e: int) -> bool:
        v = image[e]
        for x in range(e + 1):
            p = prod[x][e]
            if p <= e and image[p] != prod[image[x]][v]:
                return False
            p = prod[e][x]
            if p <= e and image[p] != prod[v][image[x]]:
                return False
        for x, y in hitters[e]:
            if x <= e and y <= e and v != prod[image[x]][image[y]]:
                return False
        return True

    def assign(e: int) -> None:
        if e == size:
            found.append(tuple(image))
            return
        for v in idem if e == 0 else range(size):
            image[e] = v
            if consistent(e):
                assign(e + 1)

    assign(0)
    endos = [from_image(n, img) for img in found]
    endos.sort(key=canonical_sort_key)
    return endos
