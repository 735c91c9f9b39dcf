import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgranks.core import (
    SemigroupTable,
    closure,
    format_table_text,
    idempotents,
    is_band,
    is_generating,
    is_independent,
    is_prime_subset,
    parse_table_text,
    restrict,
    validate,
)
from sgranks.reference import subset_flags

from _tablegen import random_semigroup_pool

POOL = random_semigroup_pool()

# left-zero semigroup on two elements: associative, not commutative
LEFT_ZERO_2 = SemigroupTable.from_rows([[0, 0], [1, 1]])
# 0*0 = 1 with everything else 0 cannot associate: (0*0)*1 = 0 but 0*(0*1) = 1
NOT_ASSOC = SemigroupTable.from_rows([[1, 0], [0, 0]])


def test_table_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SemigroupTable.from_rows([])
    with pytest.raises(ValueError):
        SemigroupTable.from_rows([[0, 1], [0]])
    with pytest.raises(ValueError):
        SemigroupTable.from_rows([[0, 2], [0, 1]])
    with pytest.raises(ValueError):
        SemigroupTable.from_rows([[0]], labels=["a", "b"])


def test_validate_reports_first_violation_in_lex_order():
    report = validate(NOT_ASSOC)
    assert not report.ok
    # (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*0 = 1; nothing earlier fails
    assert report.violation == (0, 0, 1)


def test_validate_accepts_associative_tables():
    assert validate(LEFT_ZERO_2).ok
    for table in POOL:
        assert validate(table).ok


def test_closure_of_empty_set_is_empty():
    assert closure([], LEFT_ZERO_2) == frozenset()
    assert not is_generating([], LEFT_ZERO_2)


def test_closure_range_check():
    with pytest.raises(ValueError):
        closure([2], LEFT_ZERO_2)
    with pytest.raises(ValueError):
        closure([-1], LEFT_ZERO_2)


def test_closure_small_cases():
    c3 = SemigroupTable.from_rows([[(a + b) % 3 for b in range(3)] for a in range(3)])
    assert closure([1], c3) == {0, 1, 2}
    assert closure([0], c3) == {0}
    assert is_generating([1], c3)
    assert not is_generating([0], c3)


def test_independence_basics():
    c3 = SemigroupTable.from_rows([[(a + b) % 3 for b in range(3)] for a in range(3)])
    assert is_independent([], c3)
    assert is_independent([1], c3)
    assert not is_independent([1, 2], c3)  # 2 = 1 + 1
    assert is_independent([0, 1], LEFT_ZERO_2)


def test_band_and_idempotents():
    assert is_band(LEFT_ZERO_2)
    assert idempotents(LEFT_ZERO_2) == {0, 1}
    c2 = SemigroupTable.from_rows([[0, 1], [1, 0]])
    assert not is_band(c2)
    assert idempotents(c2) == {0}


def test_prime_subset_definition():
    c4 = SemigroupTable.from_rows([[(a + b) % 4 for b in range(4)] for a in range(4)])
    # products landing on 1: 2+3, 3+2 (and 0+1, 1+0); {1} misses the first two
    assert not is_prime_subset([1], c4)
    assert is_prime_subset([1, 3], c4)  # odd elements: sums of evens stay even
    assert is_prime_subset(range(4), c4)
    with pytest.raises(ValueError):
        is_prime_subset([], c4)


def test_restrict_requires_closed_subset():
    c4 = SemigroupTable.from_rows([[(a + b) % 4 for b in range(4)] for a in range(4)])
    sub = restrict(c4, [0, 2])
    assert sub.size == 2
    assert sub.product == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        restrict(c4, [0, 1])
    with pytest.raises(ValueError):
        restrict(c4, [])


def test_restrict_keeps_labels():
    t = SemigroupTable.from_rows([[0, 0], [0, 1]], labels=["z", "e"])
    sub = restrict(t, [1])
    assert sub.labels == ("e",)


def test_text_format_round_trip():
    t = SemigroupTable.from_rows([[0, 0], [0, 1]], labels=["z", "e"])
    text = format_table_text(t)
    assert parse_table_text(text) == t
    bare = SemigroupTable.from_rows([[0, 0], [0, 1]])
    assert parse_table_text(format_table_text(bare)) == bare


def test_text_format_accepts_crlf_and_trailing_blanks():
    text = "2\r\n0 0\r\n0 1\r\nz e\r\n\r\n"
    t = parse_table_text(text)
    assert t.size == 2 and t.labels == ("z", "e")


def test_text_format_parse_errors():
    for bad in ["", "x\n", "0\n", "2\n0 0\n", "2\n0 0\n0 1 1\n", "2\n0 0\n0 1\na\n",
                "2\n0 0\n0 1\na b\nextra\n", "2\n0 q\n0 1\n"]:
        with pytest.raises(ValueError):
            parse_table_text(bad)


def test_labels_with_whitespace_rejected_on_write():
    t = SemigroupTable.from_rows([[0]], labels=["a b"])
    with pytest.raises(ValueError):
        format_table_text(t)


# --- engine properties over the random pool ---------------------------------

_pool_index = st.integers(min_value=0, max_value=len(POOL) - 1)


@settings(max_examples=200, deadline=None)
@given(_pool_index, st.data())
def test_closure_contains_extends_and_is_idempotent(idx, data):
    table = POOL[idx]
    bits = data.draw(st.integers(min_value=0, max_value=(1 << table.size) - 1))
    subset = frozenset(a for a in range(table.size) if bits >> a & 1)
    cl = closure(subset, table)
    assert subset <= cl
    assert closure(cl, table) == cl
    for a in cl:
        for b in cl:
            assert table.product[a][b] in cl


@settings(max_examples=200, deadline=None)
@given(_pool_index, st.data())
def test_closure_monotone(idx, data):
    table = POOL[idx]
    top = (1 << table.size) - 1
    small = data.draw(st.integers(min_value=0, max_value=top))
    extra = data.draw(st.integers(min_value=0, max_value=top))
    u = frozenset(a for a in range(table.size) if small >> a & 1)
    v = u | frozenset(a for a in range(table.size) if extra >> a & 1)
    assert closure(u, table) <= closure(v, table)


def test_independence_hereditary_exhaustively_on_pool():
    for table in POOL:
        n = table.size
        flags = subset_flags(table).independent
        for bits, independent in enumerate(flags):
            subset = [a for a in range(n) if bits >> a & 1]
            assert is_independent(subset, table) == independent
            if independent:
                assert all(flags[bits ^ (1 << a)] for a in subset)
