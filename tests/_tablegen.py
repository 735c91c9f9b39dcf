"""Deterministic pools of small associative tables for engine property tests."""

import random
from itertools import product

from sgranks.core import SemigroupTable, validate


def _random_reject(rng, size):
    """Uniform random magma of the given size, retried until associative.

    Associative fraction is ~0.6% at size 3, so this is only viable for
    size <= 3; larger sizes come from transformation monoids instead.
    """
    while True:
        rows = [
            [rng.randrange(size) for _ in range(size)]
            for _ in range(size)
        ]
        table = SemigroupTable.from_rows(rows)
        if validate(table).ok:
            return table


def _random_transformation_monoid(rng, max_size=5):
    """Close a few random self-maps of a small set under composition.

    Composition of maps is associative for free; returns None when the closure
    grows past max_size.
    """
    points = rng.randint(2, 4)
    gens = {
        tuple(rng.randrange(points) for _ in range(points))
        for _ in range(rng.randint(1, 2))
    }
    maps = list(gens)
    k = 0
    while k < len(maps):
        for j in range(k + 1):
            for f, g in ((maps[k], maps[j]), (maps[j], maps[k])):
                h = tuple(g[x] for x in f)  # f then g
                if h not in maps:
                    maps.append(h)
                    if len(maps) > max_size:
                        return None
        k += 1
    return composition_table(maps)


def first_violation(table):
    """validate's contract by brute force: the lex-first triple that does not associate."""
    p = table.product
    for a, b, c in product(range(table.size), repeat=3):
        if p[p[a][b]][c] != p[a][p[b][c]]:
            return (a, b, c)
    return None


def composition_table(maps):
    """The table of a list of partial self-maps of 0..p-1, closed under "f
    then g", with ids in list order; None marks an undefined point."""
    index = {f: i for i, f in enumerate(maps)}
    table = SemigroupTable.from_rows([
        [index[tuple(None if y is None else g[y] for y in f)] for g in maps]
        for f in maps
    ])
    assert validate(table).ok
    return table


def full_transformation_monoid(points):
    """T_points, all self-maps, larger images first: the permutations, its
    units, are the first points! ids."""
    maps = product(range(points), repeat=points)
    return composition_table(sorted(maps, key=lambda f: -len(set(f))))


def symmetric_inverse_monoid(points):
    """I_points, the partial injections, larger domains first: the
    permutations, its units, are the first points! ids."""
    maps = [
        f for f in product([None, *range(points)], repeat=points)
        if len({y for y in f if y is not None}) == sum(y is not None for y in f)
    ]
    return composition_table(sorted(maps, key=lambda f: f.count(None)))


def random_semigroup_pool(count=50, seed=20260823):
    """count validated tables of size <= 5: half rejection-sampled, half
    transformation monoids."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count // 2:
        pool.append(_random_reject(rng, rng.randint(1, 3)))
    while len(pool) < count:
        table = _random_transformation_monoid(rng)
        if table is not None:
            pool.append(table)
    return pool


def null_semigroup(size):  # every product is 0
    return SemigroupTable.from_rows([[0] * size] * size)


def left_zero_band(size):  # a*b = a, so every subset is closed
    return SemigroupTable.from_rows([[a] * size for a in range(size)])


def cyclic_group(order):  # Z/order under addition
    return SemigroupTable.from_rows([[(a + b) % order for b in range(order)] for a in range(order)])


def rectangular_band(rows, cols):  # (i, j)(k, l) = (i, l), with id i * cols + j
    return SemigroupTable.from_rows([
        [a - a % cols + b % cols for b in range(rows * cols)]
        for a in range(rows * cols)
    ])


def dihedral_group(k):  # r^i s^f with id f * k + i: the rotations first, the identity 0
    return SemigroupTable.from_rows([
        [(f ^ g) * k + (i + (j if f == 0 else -j)) % k for g in (0, 1) for j in range(k)]
        for f in (0, 1) for i in range(k)
    ])


def chain(size):  # a*b = min(a, b), so every product is one of its factors
    return SemigroupTable.from_rows([[min(a, b) for b in range(size)] for a in range(size)])


def semilattice(masks):
    """The given bitmasks closed under union, as a table over their sorted order."""
    elements = set(masks)
    while True:
        grown = elements | {a | b for a in elements for b in elements}
        if grown == elements:
            break
        elements = grown
    order = sorted(elements)
    index = {a: i for i, a in enumerate(order)}
    return SemigroupTable.from_rows([[index[a | b] for b in order] for a in order])


def direct_product(s, t):  # (a, b)(c, d) = (ac, bd), with id a * |t| + b
    m = t.size
    return SemigroupTable.from_rows([
        [s.product[a // m][b // m] * m + t.product[a % m][b % m] for b in range(s.size * m)]
        for a in range(s.size * m)
    ])


def with_zero(table):  # table with a new last id z, where z*a = a*z = z
    n = table.size
    return SemigroupTable.from_rows([list(row) + [n] for row in table.product] + [[n] * (n + 1)])


def relabel(table, perm):  # old id a becomes perm[a]
    old = sorted(range(table.size), key=perm.__getitem__)  # old[perm[a]] == a
    return SemigroupTable.from_rows([[perm[table.product[a][b]] for b in old] for a in old])


def special_tables():
    """Hand-picked degenerate shapes the searches must not trip over."""
    right_zero = SemigroupTable.from_rows([list(range(4)) for _ in range(4)])
    one = SemigroupTable.from_rows([[0]])
    return [null_semigroup(3), left_zero_band(4), right_zero, cyclic_group(4), one]
