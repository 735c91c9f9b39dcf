import math
from itertools import permutations

import pytest

from sgranks.brandt import THETA, element_to_id
from sgranks.core import ResourceLimitError, SemigroupTable, idempotents, restrict, validate
from sgranks.endo import (
    AUTOMORPHISM,
    NONZERO_CONSTANT,
    ZERO_CONSTANT,
    EndoMonoid,
    classify,
    compose,
    constant_map,
    enumerate_endomorphisms_oracle,
    enumerate_endomorphisms_structural,
    from_image,
    full_cycle,
    perm_compose,
    perm_identity,
    perm_label,
    phi_of_perm,
    transposition,
)


def test_perm_helpers():
    assert perm_identity(3) == (1, 2, 3)
    assert transposition(3, 1, 2) == (2, 1, 3)
    assert full_cycle(4) == (2, 3, 4, 1)
    # right action: apply (1 2) then (2 3); 1 -> 2 -> 3
    assert perm_compose((2, 1, 3), (1, 3, 2)) == (3, 1, 2)
    assert perm_label((1, 2, 3)) == "id"
    assert perm_label((2, 1, 4, 3)) == "(1,2)(3,4)"
    assert perm_label(full_cycle(3)) == "(1,2,3)"
    with pytest.raises(ValueError):
        transposition(3, 2, 2)


def test_phi_of_perm_maps_pairs_componentwise():
    phi = phi_of_perm((2, 1), 2)
    assert phi.image[element_to_id((1, 2), 2)] == element_to_id((2, 1), 2)
    assert phi.image[0] == 0
    phi3 = phi_of_perm(full_cycle(3), 3)
    assert phi3.image[element_to_id((1, 1), 3)] == element_to_id((2, 2), 3)
    assert phi3.image[element_to_id((3, 1), 3)] == element_to_id((1, 2), 3)
    with pytest.raises(ValueError):
        phi_of_perm((1, 1), 2)


def test_phi_of_perm_matches_element_to_id_for_every_permutation():
    for n in range(1, 5):
        for sigma in permutations(range(1, n + 1)):
            image = [0] * (n * n + 1)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    image[element_to_id((i, j), n)] = element_to_id(
                        (sigma[i - 1], sigma[j - 1]), n
                    )
            assert phi_of_perm(sigma, n).image == tuple(image), sigma
    for sigma, n in (((1, 1), 2), ((0, 1), 2), ((1, 2, 4), 3), ((1, 2), 3), ((2, 3, 1), 2)):
        with pytest.raises(ValueError):
            phi_of_perm(sigma, n)


def test_constant_maps():
    xi = constant_map((2, 2), 3)
    assert xi.kind == NONZERO_CONSTANT and xi.value == 2
    assert set(xi.image) == {element_to_id((2, 2), 3)}
    zero = constant_map(THETA, 3)
    assert zero.kind == ZERO_CONSTANT and set(zero.image) == {0}
    with pytest.raises(ValueError):
        constant_map((1, 2), 3)  # not idempotent, not multiplicative


def test_labels():
    assert phi_of_perm((1, 2), 2).label == "phi_id"
    assert phi_of_perm((2, 1), 2).label == "phi_(1,2)"
    assert constant_map((1, 1), 2).label == "xi_(1,1)"
    assert constant_map(THETA, 2).label == "xi_theta"


def test_compose_is_right_action():
    # constant onto (1,1) followed by phi_sigma lands on (1 sigma, 1 sigma)
    sigma = (3, 1, 2)
    out = compose(constant_map((1, 1), 3), phi_of_perm(sigma, 3))
    assert out.kind == NONZERO_CONSTANT and out.value == 3
    # the other order collapses straight to the constant
    out2 = compose(phi_of_perm(sigma, 3), constant_map((1, 1), 3))
    assert out2.kind == NONZERO_CONSTANT and out2.value == 1
    both = compose(phi_of_perm((2, 1), 2), phi_of_perm((2, 1), 2))
    assert both.kind == AUTOMORPHISM and both.perm == (1, 2)


def test_compose_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        compose(constant_map(THETA, 2), constant_map(THETA, 3))


def test_from_image_verifies_multiplicativity():
    good = from_image(2, phi_of_perm((2, 1), 2).image)
    assert good.kind == AUTOMORPHISM
    # swapping theta and (1,1) is a bijection but not multiplicative
    with pytest.raises(ValueError):
        from_image(1, (1, 0))
    with pytest.raises(ValueError):
        from_image(2, (2,) * 5)  # constant onto the non-idempotent (1,2)
    with pytest.raises(ValueError):
        from_image(2, (0, 1, 3, 2, 4))  # bijection that swaps (1,2) and (2,1) only
    with pytest.raises(ValueError):
        from_image(2, (0, 1, 2))  # wrong length


def test_classify_round_trips_all_elements(monoids):
    for m in monoids.values():
        if m.n > 3:
            continue  # pairwise re-verification is quadratic in table size
        for f in m.elements:
            assert classify(f) == f.kind


def test_monoid_canonical_order(monoids):
    m = monoids[2]
    assert [f.label for f in m.elements] == [
        "phi_id", "phi_(1,2)", "xi_(1,1)", "xi_(2,2)", "xi_theta",
    ]
    assert m.zero_id == 4
    assert m.constant_id(1) == 2 and m.constant_id(2) == 3
    assert m.perm_id((2, 1)) == 1
    assert list(m.automorphism_ids) == [0, 1]
    assert list(m.constant_ids) == [2, 3, 4]


def test_monoid_sizes(monoids):
    for n, m in monoids.items():
        assert len(m) == math.factorial(n) + n + 1
        assert m.table.size == len(m)


def test_monoid_tables_are_associative(monoids):
    for m in monoids.values():
        assert validate(m.table).ok


def test_identity_and_zero_in_table(monoids):
    for m in monoids.values():
        p = m.table.product
        size = len(m)
        assert all(p[0][b] == b and p[b][0] == b for b in range(size))
        assert all(p[a][m.zero_id] == m.zero_id for a in range(size))


def test_monoid_idempotents(monoids):
    # identity, all constants; no other automorphism is idempotent
    m = monoids[2]
    assert idempotents(m.table) == {0, 2, 3, 4}
    m3 = monoids[3]
    assert idempotents(m3.table) == {0} | set(m3.constant_ids)


def test_index_of_rejects_foreign_maps(monoids):
    with pytest.raises(ValueError):
        monoids[2].index_of(constant_map(THETA, 3))
    # the ids of B_16 do not fit in a byte, the key of the index
    with pytest.raises(ValueError, match="does not belong to this monoid"):
        monoids[2].index_of(constant_map((16, 16), 16))


def test_monoid_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate endomorphisms"):
        EndoMonoid(2, [constant_map(THETA, 2), constant_map(THETA, 2)])
    # an image past a byte is reported first
    with pytest.raises(ValueError, match="n <= 15"):
        EndoMonoid(16, [constant_map((16, 16), 16)] * 2)


def test_monoid_rejects_elements_out_of_canonical_order():
    # ids are read off the canonical order, so any other order is refused
    elements = enumerate_endomorphisms_structural(2).elements
    with pytest.raises(ValueError, match="canonical order"):
        EndoMonoid(2, reversed(elements))
    # the duplicate check comes first and keeps its message
    with pytest.raises(ValueError, match="duplicate endomorphisms"):
        EndoMonoid(2, [elements[4], elements[0], elements[4]])


def test_monoid_ids_come_from_its_elements():
    # a monoid of the zero constant alone has no automorphism
    m = EndoMonoid(2, [constant_map(THETA, 2)])
    assert list(m.automorphism_ids) == []
    assert list(m.constant_ids) == [0] and m.zero_id == 0
    with pytest.raises(ValueError, match="does not belong"):
        m.constant_id(1)
    # the identity and the constants of End(B_2), without phi_(1,2)
    elements = enumerate_endomorphisms_structural(2).elements
    m = EndoMonoid(2, elements[:1] + elements[2:])
    assert list(m.automorphism_ids) == [0]
    assert list(m.constant_ids) == [1, 2, 3]
    assert (m.constant_id(1), m.constant_id(2), m.zero_id) == (1, 2, 3)


def test_aut_subtable_is_symmetric_group(monoids):
    for n in (2, 3, 4):
        sub = monoids[n].aut_subtable()
        assert sub.size == math.factorial(n)
        assert validate(sub).ok
        assert sub.labels[0] == "phi_id"
        # closed under inverses: every row is a permutation of the ids
        for row in sub.product:
            assert sorted(row) == list(range(sub.size))


def test_aut_subtable_matches_permutation_composition(monoids):
    m = monoids[3]
    sub = m.aut_subtable()
    perms = [f.perm for f in m.elements[: math.factorial(3)]]
    index = {p: i for i, p in enumerate(perms)}
    for a, sigma in enumerate(perms):
        for b, tau in enumerate(perms):
            assert sub.product[a][b] == index[perm_compose(sigma, tau)]


def test_structural_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_endomorphisms_structural(7)


def test_oracle_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_endomorphisms_oracle(4)


def test_oracle_n1_finds_exactly_three_maps():
    maps = enumerate_endomorphisms_oracle(1)
    assert len(maps) == 3
    assert sorted(f.kind for f in maps) == sorted(
        [AUTOMORPHISM, NONZERO_CONSTANT, ZERO_CONSTANT]
    )


def test_oracle_matches_structural(monoids):
    for n in (1, 2, 3):
        oracle = enumerate_endomorphisms_oracle(n)
        structural = monoids[n].elements
        assert {f.image for f in oracle} == {f.image for f in structural}
        # same canonical order as well
        assert [f.image for f in oracle] == [f.image for f in structural]


def test_monoid_from_oracle_elements_matches(monoids):
    for n in (1, 2, 3):
        m = EndoMonoid(n, enumerate_endomorphisms_oracle(n))
        assert m.table == monoids[n].table


def test_monoid_table_matches_compose(monoids):
    for m in monoids.values():
        p = m.table.product
        for a, f in enumerate(m.elements):
            for b, g in enumerate(m.elements):
                assert p[a][b] == m.index_of(compose(f, g)), (m.n, a, b)


def _by_definition(elements):
    """The product rows of elements by the definition of fg, or the message
    naming the first composite, in row-major order, that is not among them."""
    index = {f.image: k for k, f in enumerate(elements)}
    rows = []
    for f in elements:
        row = []
        for g in elements:
            fg = tuple(g.image[v] for v in f.image)
            if fg not in index:
                return f"the composite {f.label} then {g.label} is not among the elements"
            row.append(index[fg])
        rows.append(tuple(row))
    return tuple(rows)


def test_monoid_table_of_end_b5_matches_the_definition():
    m = enumerate_endomorphisms_structural(5)
    assert len(m) == 126  # 15,876 pairs
    assert m.table.product == _by_definition(m.elements)


def test_monoid_of_the_constants_alone():
    # a closed list in which no row follows from the others: every element is
    # a generator, and fg = g for constants f and g
    elements = [constant_map((i, i), 3) for i in (1, 2, 3)] + [constant_map(THETA, 3)]
    m = EndoMonoid(3, elements)
    assert m.table.product == _by_definition(elements) == ((0, 1, 2, 3),) * 4


def test_monoid_sublists_build_or_name_the_first_missing_composite():
    # one element dropped, prefixes and suffixes: the build and the first
    # failing pair must be those of composing every row by definition
    closed = 0
    for n in (2, 3, 4):
        els = enumerate_endomorphisms_structural(n).elements
        sublists = [els[:k] + els[k + 1:] for k in range(len(els))]
        sublists += [els[:k] for k in range(1, len(els))] + [els[k:] for k in range(1, len(els))]
        for sub in sublists:
            expected = _by_definition(sub)
            if isinstance(expected, str):
                with pytest.raises(ValueError) as info:
                    EndoMonoid(n, sub)
                assert str(info.value) == expected, (n, [f.label for f in sub])
            else:
                assert EndoMonoid(n, sub).table.product == expected
                closed += 1
    assert closed > 0


def test_monoid_rejects_elements_not_closed_under_composition():
    elements = [phi_of_perm((1, 2), 2), phi_of_perm((2, 1), 2), constant_map((1, 1), 2)]
    # xi_(1,1) then phi_(1,2) is the constant onto (2,2), which is missing
    with pytest.raises(ValueError, match=r"xi_\(1,1\) then phi_\(1,2\)"):
        EndoMonoid(2, elements)


def test_monoid_rejects_image_ids_past_a_byte():
    # B_16 has 257 elements, so the id 256 of (16,16) does not fit in a byte
    with pytest.raises(ValueError, match="n <= 15"):
        EndoMonoid(16, [phi_of_perm(perm_identity(16), 16)])


def test_sidecar_shape(monoids):
    side = monoids[2].sidecar()
    assert side["n"] == 2 and side["size"] == 5
    assert [e["id"] for e in side["elements"]] == list(range(5))
    first = side["elements"][0]
    assert first["label"] == "phi_id" and first["perm"] == [1, 2]
    assert side["elements"][4]["kind"] == "zero_constant"


def test_sidecar_labels_are_the_element_labels(monoids):
    for monoid in monoids.values():
        labels = [e["label"] for e in monoid.sidecar()["elements"]]
        assert labels == [f.label for f in monoid.elements] == list(monoid.table.labels)


def test_one_element_monoid_table():
    monoid = EndoMonoid(2, [constant_map(THETA, 2)])
    assert monoid.table.product == ((0,),) and monoid.table.labels == ("xi_theta",)


@pytest.mark.parametrize("n", range(1, 7))
def test_monoid_table_passes_the_checked_constructor(n):
    # the build skips SemigroupTable's check, as its entries are ids by
    # construction; the checked constructor must accept the same table
    table = enumerate_endomorphisms_structural(n).table
    assert table == SemigroupTable.from_rows(table.product, table.labels)
    assert type(table.product) is tuple and type(table.labels) is tuple
    assert all(type(row) is tuple for row in table.product)
    assert all(type(v) is int for row in table.product for v in row)


def test_monoid_of_no_elements_raises_the_table_error():
    with pytest.raises(ValueError, match="^a semigroup table needs at least one element$"):
        EndoMonoid(2, [])
