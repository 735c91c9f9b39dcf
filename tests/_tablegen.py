"""Deterministic pools of small associative tables for engine property tests."""

import random

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
    index = {f: i for i, f in enumerate(maps)}
    rows = [
        [index[tuple(g[x] for x in f)] for g in maps]
        for f in maps
    ]
    table = SemigroupTable.from_rows(rows)
    assert validate(table).ok
    return table


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


def special_tables():
    """Hand-picked degenerate shapes the searches must not trip over."""
    right_zero = SemigroupTable.from_rows([list(range(4)) for _ in range(4)])
    one = SemigroupTable.from_rows([[0]])
    return [null_semigroup(3), left_zero_band(4), right_zero, cyclic_group(4), one]
