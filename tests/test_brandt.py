import pytest

from sgranks import brandt
from sgranks.brandt import (
    THETA,
    brandt_add,
    build_brandt,
    element_label,
    element_to_id,
    id_to_element,
)
from sgranks.core import ResourceLimitError, closure, idempotents, is_band, validate


def test_addition_law():
    assert brandt_add((1, 2), (2, 3), 3) == (1, 3)
    assert brandt_add((1, 2), (3, 1), 3) is THETA
    assert brandt_add((2, 2), (2, 2), 3) == (2, 2)
    assert brandt_add((1, 2), (1, 2), 2) is THETA
    assert brandt_add(THETA, (1, 1), 2) is THETA
    assert brandt_add((1, 1), THETA, 2) is THETA
    assert brandt_add(THETA, THETA, 1) is THETA


def test_addition_rejects_out_of_range():
    with pytest.raises(ValueError):
        brandt_add((1, 3), (1, 1), 2)
    with pytest.raises(ValueError):
        brandt_add((0, 1), (1, 1), 2)
    with pytest.raises(ValueError):
        brandt_add("x", (1, 1), 2)


def test_indexing_round_trip():
    for n in (1, 2, 3, 4):
        for eid in range(n * n + 1):
            assert element_to_id(id_to_element(eid, n), n) == eid
    assert element_to_id(THETA, 3) == 0
    assert element_to_id((1, 1), 3) == 1
    assert element_to_id((2, 3), 3) == 1 + 1 * 3 + 2
    with pytest.raises(ValueError):
        id_to_element(10, 3)


def test_build_rejects_bad_n():
    with pytest.raises(ValueError):
        build_brandt(0)


def test_build_refuses_n_above_the_cap_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("the table build started")

    monkeypatch.setattr(brandt, "id_to_element", never)
    for n in (27, 10**9):
        with pytest.raises(ResourceLimitError, match=rf"^n={n} exceeds the Brandt table cap n <= 26$"):
            build_brandt(n)
    with pytest.raises(AssertionError):  # B_26 is within the cap
        build_brandt(26)


def test_table_sizes_and_labels():
    for n in (1, 2, 3):
        table = build_brandt(n)
        assert table.size == n * n + 1
        assert table.labels[0] == "theta"
        assert table.labels[1] == "(1,1)"
    assert element_label((2, 3)) == "(2,3)"
    assert element_label(THETA) == "theta"


def test_tables_are_associative(b_tables):
    for table in b_tables.values():
        assert validate(table).ok
    assert validate(build_brandt(4)).ok


def test_zero_absorbs(b_tables):
    for table in b_tables.values():
        for a in range(table.size):
            assert table.product[a][0] == 0
            assert table.product[0][a] == 0


def test_idempotents_are_diagonal_pairs_plus_zero(b_tables):
    for n, table in b_tables.items():
        expected = {0} | {element_to_id((i, i), n) for i in range(1, n + 1)}
        assert idempotents(table) == expected
        assert len(expected) == n + 1


def test_band_only_for_n1(b_tables):
    assert is_band(b_tables[1])
    assert not is_band(b_tables[2])
    assert not is_band(b_tables[3])


def test_b2_closures(b_tables):
    t = b_tables[2]
    assert closure([2], t) == {0, 2}  # (1,2) squares to theta, nothing else
    assert closure([2, 3], t) == {0, 1, 2, 3, 4}  # off-diagonal pair generates


def test_b2_table_entries(b_tables):
    t = b_tables[2]
    # ids: 0 theta, 1 (1,1), 2 (1,2), 3 (2,1), 4 (2,2)
    assert t.product[2][3] == 1  # (1,2)+(2,1) = (1,1)
    assert t.product[3][2] == 4  # (2,1)+(1,2) = (2,2)
    assert t.product[2][2] == 0  # (1,2)+(1,2) = theta
    assert t.product[1][2] == 2  # (1,1)+(1,2) = (1,2)
