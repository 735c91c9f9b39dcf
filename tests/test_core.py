import io
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgranks import core
from sgranks.brandt import build_brandt
from sgranks.core import (
    SemigroupTable,
    _adjoin,
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
    write_table_text,
)
from sgranks.endo import enumerate_endomorphisms_structural
from sgranks.ranks import _Search
from sgranks.reference import subset_flags

from _tablegen import (
    cyclic_group,
    first_violation,
    full_transformation_monoid,
    random_semigroup_pool,
    relabel,
    special_tables,
    symmetric_inverse_monoid,
    with_zero,
)

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
    assert bool(report) is False and bool(validate(LEFT_ZERO_2)) is True
    # (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*0 = 1; nothing earlier fails
    assert report.violation == (0, 0, 1)


def test_validate_accepts_associative_tables():
    assert validate(LEFT_ZERO_2).ok
    for table in POOL:
        assert validate(table).ok


def _assert_validate_matches_brute_force(table):
    expected = first_violation(table)
    report = validate(table)
    assert (report.ok, report.violation) == (expected is None, expected)


def test_validate_matches_brute_force_on_small_cases():
    # the 1-element table, where a row of one entry must still compare as a row
    _assert_validate_matches_brute_force(SemigroupTable.from_rows([[0]]))
    # left-zero band with 1*2 changed to 2: (1*0)*2 = 2 but 1*(0*2) = 1, so
    # the first violation is (1, 0, 2), past the first row and at c > 0
    table = SemigroupTable.from_rows([[0, 0, 0], [1, 1, 2], [2, 2, 2]])
    assert validate(table).violation == (1, 0, 2)
    for table in (table, NOT_ASSOC, LEFT_ZERO_2):
        _assert_validate_matches_brute_force(table)


def _greedy_generators(table):
    """The generating set validate's test reads: each id the closure so far misses."""
    gens = []
    for x in range(table.size):
        if x not in closure(gens, table):
            gens.append(x)
    return gens


def test_validate_matches_brute_force_with_faults_on_and_off_the_generators(monoids, b_tables):
    # Light's test reads the rows of a*b only for b among the greedy generators,
    # so a wrong entry in a generator's row, in a generator's column and where
    # neither factor is a generator must each be reported as the full scan would
    rng = random.Random(20261019)
    tables = [
        monoids[3].table,
        b_tables[3],
        full_transformation_monoid(3),
        symmetric_inverse_monoid(3),
    ]
    for table in tables:
        n = table.size
        gens = _greedy_generators(table)
        others = [a for a in range(n) if a not in gens]
        places = {
            "generator's row": [(g, rng.randrange(n)) for g in gens],
            "generator's column": [(rng.randrange(n), g) for g in gens],
            "neither factor a generator": rng.sample([(x, y) for x in others for y in others], 4),
        }
        for where, entries in places.items():
            violated = 0
            for x, y in entries:
                rows = [list(row) for row in table.product]
                rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]])
                faulty = SemigroupTable.from_rows(rows)
                expected = first_violation(faulty)
                report = validate(faulty)
                assert (report.ok, report.violation) == (expected is None, expected), (n, where, x, y)
                violated += expected is not None
            assert violated, (n, where)


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


def _prime_by_definition(subset, table):
    """Every product a*b that lands in subset has a or b in subset."""
    inside = set(subset)
    return all(
        a in inside or b in inside
        for a in range(table.size)
        for b in range(table.size)
        if table.product[a][b] in inside
    )


def test_prime_subset_definition(monoids, b_tables, random_tables):
    c4 = SemigroupTable.from_rows([[(a + b) % 4 for b in range(4)] for a in range(4)])
    # products landing on 1: 2+3, 3+2 (and 0+1, 1+0); {1} misses the first two
    assert not is_prime_subset([1], c4)
    assert is_prime_subset([1, 3], c4)  # odd elements: sums of evens stay even
    assert is_prime_subset(range(4), c4)
    with pytest.raises(ValueError):
        is_prime_subset([], c4)
    # every singleton and pair, the whole table and seeded random subsets,
    # against the double loop of the definition
    rng = random.Random(34)
    tables = [monoids[n].table for n in (1, 2, 3)] + [b_tables[n] for n in (1, 2, 3)] + random_tables
    seen = set()
    for table in tables:
        n = table.size
        subsets = [[a] for a in range(n)]
        subsets += [[a, b] for a in range(n) for b in range(a + 1, n)]
        subsets.append(range(n))
        subsets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(20)]
        for subset in subsets:
            want = _prime_by_definition(subset, table)
            seen.add(want)
            assert is_prime_subset(subset, table) == want, (table, subset)
    assert seen == {True, False}


def test_restrict_requires_closed_subset(monoids, random_tables):
    c4 = SemigroupTable.from_rows([[(a + b) % 4 for b in range(4)] for a in range(4)])
    sub = restrict(c4, [0, 2])
    assert sub.size == 2
    assert sub.product == ((0, 1), (1, 0))
    # the first pair in row-major order whose product lies outside is named
    with pytest.raises(ValueError, match=r"^subset is not closed: 1\*1 = 2 lies outside it$"):
        restrict(c4, [0, 1])
    with pytest.raises(ValueError):
        restrict(c4, [])
    # the ids are checked in ascending order, so the lowest bad one is named
    with pytest.raises(ValueError, match=r"^element id -1 out of range \[0, 4\)$"):
        restrict(c4, [9, 2, -1, 4])
    # restrict skips SemigroupTable's check; its subtables must be the ones
    # the checked constructor makes of the same rows and labels
    rng = random.Random(34)
    subtables = [enumerate_endomorphisms_structural(n).aut_subtable() for n in range(1, 6)]
    for table in random_tables:
        picked = rng.sample(range(table.size), rng.randint(1, table.size))
        subtables.append(restrict(table, closure(picked, table)))
    for sub in subtables:
        assert sub == SemigroupTable.from_rows(sub.product, sub.labels)
        assert type(sub.product) is tuple and all(type(row) is tuple for row in sub.product)
        assert all(type(v) is int for row in sub.product for v in row)


def test_pick_returns_a_tuple_getter():
    # the three kinds of table its callers pass: tuples, bytes and dicts
    row, flags, index = (5, 6, 7), bytes([1, 0, 1]), {"0": 0, "1": 1, "2": 2}
    assert core._pick([2])(row) == (7,)
    assert core._pick((2, 0, 2))(row) == (7, 5, 7)
    assert core._pick([1])(flags) == (0,)
    assert core._pick([2, 0])(flags) == (1, 1)
    assert core._pick(["1"])(index) == (1,)
    assert core._pick(["2", "0"])(index) == (2, 0)
    for keys, table, error in (([3], row, IndexError), ([0, 3], flags, IndexError),
                               (["3"], index, KeyError), (["0", "3"], index, KeyError)):
        with pytest.raises(error):
            core._pick(keys)(table)


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


def test_text_format_refuses_repeated_labels():
    # a label names one element, so a label line that repeats one is refused,
    # naming the first label met a second time
    with pytest.raises(ValueError, match="^label 'a' names more than one element$"):
        parse_table_text("2\n0 0\n0 1\na a\n")
    with pytest.raises(ValueError, match="^label 'b' names more than one element$"):
        parse_table_text("3\n0 0 0\n0 1 2\n0 2 1\na b b\n")
    # in a b b a, b is met a second time before a is
    with pytest.raises(ValueError, match="^label 'b' names more than one element$"):
        parse_table_text("4\n" + "0 0 0 0\n" * 4 + "a b b a\n")
    # the constructor holds the same rule, with the same message, so a table
    # it accepts has labels that name one element each
    with pytest.raises(ValueError, match="^label 'a' names more than one element$"):
        SemigroupTable.from_rows([[0, 0], [0, 1]], labels=["a", "a"])
    with pytest.raises(ValueError, match="^label 'b' names more than one element$"):
        SemigroupTable([(0,) * 4] * 4, ("a", "b", "b", "a"))
    # and a label is a string, as the certificates and the text format need
    for labels, message in [([5, 6], "^label 5 is not a string$"),
                            (["a", None], "^label None is not a string$"),
                            ([b"a", "b"], "^label b'a' is not a string$"),
                            ([5, 5], "^label 5 is not a string$")]:
        with pytest.raises(ValueError, match=message):
            SemigroupTable.from_rows([[0, 0], [0, 1]], labels=labels)


def _old_format_rows(table):
    """The row lines as the text format has always rendered them."""
    return [" ".join(map(str, row)) for row in table.product]


def test_text_format_rows_render_as_before():
    tables = POOL + special_tables() + [
        enumerate_endomorphisms_structural(n).table for n in range(1, 6)
    ]
    for table in tables:
        text = format_table_text(table)
        lines = text.splitlines()
        assert lines[0] == str(table.size)
        assert lines[1 : table.size + 1] == _old_format_rows(table)
        assert parse_table_text(text) == table


def _text_tables():
    """End(B_1..5), B_1..4 and the pool with its ids shuffled by a seed."""
    rng = random.Random(31)
    pool = []
    for table in POOL:
        perm = list(range(table.size))
        rng.shuffle(perm)
        pool.append(relabel(table, perm))
    return (
        [enumerate_endomorphisms_structural(n).table for n in range(1, 6)]
        + [build_brandt(n) for n in range(1, 5)]
        + pool
    )


TEXT_TABLES = _text_tables()


def _labelled_tables():
    """The pool with distinct, non-empty labels free of whitespace, drawn by a seed."""
    rng = random.Random(32)
    letters = "ab_(),.\u03be\u03b8\u00e9\u2014\U0001f600"
    tables = []
    for table in POOL:
        labels = []
        while len(labels) < table.size:
            label = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            if label not in labels:
                labels.append(label)
        tables.append(SemigroupTable(table.product, tuple(labels)))
    return tables


def _text_by_definition(table):
    """The text format spelled out line by line from its definition."""
    lines = [str(table.size), *_old_format_rows(table)]
    if table.labels is not None:
        lines.append(" ".join(table.labels))
    return "".join(line + "\n" for line in lines)


def test_text_format_parses_back_to_a_checked_table():
    # parse skips SemigroupTable's check when every token is an id; the table
    # it returns must be the one the checked constructor accepts
    for table in TEXT_TABLES + _labelled_tables():
        parsed = parse_table_text(format_table_text(table))
        assert parsed == table
        assert parsed == SemigroupTable.from_rows(parsed.product, parsed.labels)
        assert all(type(v) is int for row in parsed.product for v in row)


def test_text_format_rejects_a_mutated_entry():
    # one random entry of each table respelled in turn: an int outside
    # 0..N-1 keeps SemigroupTable's message, any other spelling names its token
    rng = random.Random(31)
    for table in TEXT_TABLES:
        n = table.size
        lines = format_table_text(table).splitlines(keepends=True)
        i = rng.randrange(1, n + 1)
        j = rng.randrange(n)
        cases = [
            ("-1", rf"^table entry -1 out of range \[0, {n}\)$"),
            (str(n), rf"^table entry {n} out of range \[0, {n}\)$"),
        ] + [
            (token, rf"^row {i} has entry {re.escape(repr(token))}, which is not an element id$")
            for token in ("1.0", "+1", "01")
        ]
        for token, message in cases:
            parts = lines[i].split()
            parts[j] = token
            text = "".join(lines[:i] + [" ".join(parts) + "\n"] + lines[i + 1 :])
            with pytest.raises(ValueError, match=message):
                parse_table_text(text)


def test_write_table_text_writes_the_format():
    for table in TEXT_TABLES + special_tables():
        buf = io.StringIO()
        assert write_table_text(table, buf) is None
        assert buf.getvalue() == format_table_text(table) == _text_by_definition(table)


def test_write_table_text_checks_labels_before_writing():
    # the constructor refuses a label the format cannot hold, even the last
    # one, so no table the writer gets carries it and a write checks nothing
    with pytest.raises(ValueError, match=r"^label 'a b' cannot be written to the text format$"):
        SemigroupTable.from_rows([[0, 0], [0, 1]], labels=["z", "a b"])


def test_text_format_rejects_respelled_tokens():
    # an entry is an id as format_table_text writes it; other spellings that
    # int() would read as an id are refused, naming the row and the token
    assert parse_table_text("3\n0 1 2\n1 2 0\n2 0 1\n").product == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for row, token in [("00 1 2", "00"), ("0 +1 2", "+1"), ("0 01 2", "01"), ("0 0_1 2", "0_1"),
                       ("0 \u0661 2", "\u0661"), ("0 1 -0", "-0")]:
        message = rf"^row 1 has entry {re.escape(repr(token))}, which is not an element id$"
        with pytest.raises(ValueError, match=message):
            parse_table_text(f"3\n{row}\n1 2 0\n2 0 1\n")
    with pytest.raises(ValueError, match=r"^row 1 has entry '000', which is not an element id$"):
        parse_table_text("1\n000\n")
    # the element count follows the same rule
    for count in ["+2", "02", "0_2", "\u0662"]:
        message = rf"^first line must be the element count, got {re.escape(repr(count))}$"
        with pytest.raises(ValueError, match=message):
            parse_table_text(f"{count}\n0 1\n1 0\n")
    assert parse_table_text(" 2 \n0 1\n1 0\n").size == 2


def test_text_format_error_messages():
    # an integer in plain decimal keeps SemigroupTable's out-of-range message
    with pytest.raises(ValueError, match=r"^table entry -1 out of range \[0, 2\)$"):
        parse_table_text("2\n0 0\n-1 1\n")
    with pytest.raises(ValueError, match=r"^table entry 2 out of range \[0, 2\)$"):
        parse_table_text("2\n0 0\n0 2\n")
    with pytest.raises(ValueError, match=r"^table entry 727 out of range \[0, 2\)$"):
        parse_table_text("2\n0 0\n727 1\n")
    for bad in ["x", "1.0", "0x1", "1e0"]:
        with pytest.raises(ValueError, match=rf"^row 1 has entry '{bad}', which is not an element id$"):
            parse_table_text(f"2\n0 {bad}\n0 1\n")
    # the first faulty row decides, whichever its fault
    with pytest.raises(ValueError, match="^row 1 has entry 'q', which is not an element id$"):
        parse_table_text("2\n0 q\n0 5\n")
    with pytest.raises(ValueError, match=r"^table entry 5 out of range \[0, 2\)$"):
        parse_table_text("2\n0 5\n0 q\n")
    # the label line comes before a line after it, so it decides first
    with pytest.raises(ValueError, match="^label line has 1 entries, expected 2$"):
        parse_table_text("2\n0 0\n0 1\na\nextra\n")


def test_text_format_row_count_is_checked_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^expected 1000000000 table rows, found 1$"):
            parse_table_text("1000000000\n0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_table_construction_rejects_non_integer_entries():
    for rows in ([[0.5]], [[0, 1.0], [1, 0]], [[0, 1], [1, 0.0]], [[0, "1"], [1, 0]]):
        with pytest.raises(ValueError, match="is not an integer"):
            SemigroupTable.from_rows(rows)
    with pytest.raises(ValueError, match=r"^table entry 1\.0 is not an integer$"):
        SemigroupTable(((0, 1.0), (1, 0)))
    with pytest.raises(ValueError, match=r"^table entry 0\.5 is not an integer$"):
        SemigroupTable(((0.5,),))


def test_table_construction_reports_the_first_bad_row():
    # rows are checked in order, each for shape, then integer entries, then range
    cases = [
        ([[5, 0], [0]], r"^table entry 5 out of range \[0, 2\)$"),
        ([[5, 0], [0.5, 0]], r"^table entry 5 out of range \[0, 2\)$"),
        ([[0, 1], [0.5]], r"^product table must be square$"),
        ([[0, 1.0], [2, 0]], r"^table entry 1\.0 is not an integer$"),
        ([[2, 0.5], [0, 1]], r"^table entry 0\.5 is not an integer$"),
        ([[0, -1], [1, 0]], r"^table entry -1 out of range \[0, 2\)$"),
        ([[0, 1], [1, 0], [0, 0]], r"^product table must be square$"),
    ]
    for rows, message in cases:
        with pytest.raises(ValueError, match=message):
            SemigroupTable.from_rows(rows)


def _first_entry_error(rows, n):
    """SemigroupTable's entry message by its definition: rows in order, each
    for its length, then its first non-int, then its first int outside 0..n-1."""
    for row in rows:
        if len(row) != n:
            return "product table must be square"
        for v in row:
            if not isinstance(v, int):
                return f"table entry {v!r} is not an integer"
        for v in row:
            if not 0 <= v < n:
                return f"table entry {v} out of range [0, {n})"
    return None


def test_table_construction_names_the_first_of_several_faults():
    # 1-3 faults at seeded rows and columns; the first bad row decides, and in
    # a row like [n, 0.5] the non-integer is named before the id out of range
    rng = random.Random(32)
    tables = (
        [enumerate_endomorphisms_structural(n).table for n in range(2, 5)]
        + [build_brandt(n) for n in range(1, 5)]
        + POOL
    )
    seen = set()
    for table in tables:
        n = table.size
        for _ in range(4):
            rows = [list(row) for row in table.product]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                fault = rng.choice([1.0, 0.5, "1", None, -1, n, "short row", "long row", "row [n, 0.5]"])
                if fault == "short row":
                    del rows[i][-1:]
                elif fault == "long row":
                    rows[i].append(0)
                elif fault == "row [n, 0.5]":
                    rows[i][:2] = [n, 0.5]
                elif j < len(rows[i]):
                    rows[i][j] = fault
            message = _first_entry_error(rows, n)
            if message is None:  # a short and a long row fault met in one row
                continue
            seen.add(next(k for k in ("square", "integer", "range") if k in message))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SemigroupTable.from_rows(rows, table.labels)
    assert seen == {"square", "integer", "range"}


def _first_text_error(text):
    """parse_table_text's message by its definition, for a text whose first
    line is a count: the lines in order, each row for its token count, then
    its first token not in plain decimal, then its first int outside 0..n-1;
    then the label count and a repeated label, then a line after the label
    line."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    n = int(lines[0])
    if len(lines) < n + 1:
        return f"expected {n} table rows, found {len(lines) - 1}"
    for i in range(1, n + 1):
        parts = lines[i].split()
        if len(parts) != n:
            return f"row {i} has {len(parts)} entries, expected {n}"
        for t in parts:
            if not re.fullmatch(r"0|-?[1-9][0-9]*", t):
                return f"row {i} has entry {t!r}, which is not an element id"
        for t in parts:
            if not 0 <= int(t) < n:
                return f"table entry {t} out of range [0, {n})"
    if len(lines) > n + 1:
        labels = lines[n + 1].split()
        if len(labels) != n:
            return f"label line has {len(labels)} entries, expected {n}"
        for k, lab in enumerate(labels):
            if lab in labels[:k]:
                return f"label {lab!r} names more than one element"
    if len(lines) > n + 2:
        return "unexpected content after the label line"
    return None


def test_text_format_names_the_first_of_several_faults():
    # 1-3 faults at seeded lines and columns: a respelled token, an int out
    # of range, a short or long row, a repeated or short label line (added
    # when the table has none) and a trailing line; the first faulty line decides
    rng = random.Random(33)
    tables = (
        [enumerate_endomorphisms_structural(n).table for n in range(1, 5)]
        + [build_brandt(n) for n in range(1, 4)]
        + POOL
    )
    faults = ["x", "1.0", "+1", "01", "-0", "-1", "N", "short row", "long row",
              "repeated label", "short label line", "trailing line"]
    # each message by a phrase of it; "row" last, as the token message holds it too
    kinds = ("element id", "out of range", "after the label", "label line has", "more than one", "row")
    seen = set()
    for table in tables:
        n = table.size
        names = list(table.labels or (f"e{a}" for a in range(n)))
        for _ in range(8):
            lines = format_table_text(table).splitlines()
            for _ in range(rng.randint(1, 3)):
                fault = rng.choice(faults)
                i, j = rng.randrange(1, n + 1), rng.randrange(n)
                parts = lines[i].split()
                labels = list(names)
                if fault == "short row":
                    lines[i] = " ".join(parts[:-1])
                elif fault == "long row":
                    lines[i] = " ".join(parts + ["0"])
                elif fault == "trailing line":
                    lines.append("extra")
                elif fault in ("repeated label", "short label line"):
                    if fault == "short label line":
                        del labels[-1]
                    elif n > 1:
                        k = rng.randrange(1, n)
                        labels[k] = labels[rng.randrange(k)]
                    del lines[n + 1 : n + 2]
                    lines.insert(n + 1, " ".join(labels))
                elif j < len(parts):
                    parts[j] = str(n) if fault == "N" else fault
                    lines[i] = " ".join(parts)
            text = "".join(line + "\n" for line in lines)
            message = _first_text_error(text)
            if message is None:  # the faults met and undid each other
                parse_table_text(text)
                continue
            seen.add(next(k for k in kinds if k in message))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_table_text(text)
    assert seen == set(kinds)


def test_table_construction_accepts_bools_as_ids():
    t = SemigroupTable.from_rows([[False, True], [True, False]])
    assert t == SemigroupTable.from_rows([[0, 1], [1, 0]])
    assert format_table_text(t) == "2\n0 1\n1 0\n"
    # list rows and labels given to the constructor are stored as tuples, so
    # the table validates, hashes and equals its from_rows twin
    for t, labels in [(SemigroupTable([[0, 1], [1, 0]]), None),
                      (SemigroupTable(([0, 1], [1, 0]), ["a", "b"]), ("a", "b"))]:
        assert validate(t).ok
        twin = SemigroupTable.from_rows(((0, 1), (1, 0)), labels)
        assert t == twin and hash(t) == hash(twin)
        assert t.product == ((0, 1), (1, 0)) and t.labels == labels


def test_labels_with_whitespace_rejected_on_write():
    # refused at construction, so no table with it reaches the writer
    with pytest.raises(ValueError, match=r"^label 'a b' cannot be written to the text format$"):
        SemigroupTable.from_rows([[0]], labels=["a b"])


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "a\u2003b", "\xa0"])
def test_empty_or_unicode_whitespace_labels_rejected_on_write(label):
    # refused at construction, so no table with it reaches the writer
    message = rf"^label {re.escape(repr(label))} cannot be written to the text format$"
    with pytest.raises(ValueError, match=message):
        SemigroupTable.from_rows([[0]], labels=[label])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=1, max_size=5))
def test_labels_accepted_exactly_when_writable(labels):
    # a label list is accepted exactly when each label is one token of a
    # whitespace-split line and none repeats; every accepted table round-trips
    n = len(labels)
    rows = [[0] * n] * n  # the null semigroup
    if not (all(lab.split() == [lab] for lab in labels) and len(set(labels)) == n):
        with pytest.raises(ValueError):
            SemigroupTable.from_rows(rows, labels)
        return
    table = SemigroupTable.from_rows(rows, labels)
    text = format_table_text(table)
    parsed = parse_table_text(text)
    assert parsed == table and format_table_text(parsed) == text


@pytest.mark.parametrize("label", ["phi_(1,2)", "\u03be_\u03b8", "\u00e9\u2014\U0001f600"])
def test_labels_without_whitespace_written(label):
    t = SemigroupTable.from_rows([[0]], labels=[label])
    assert format_table_text(t) == f"1\n0\n{label}\n"


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
    # minimality: the closure is exactly the fixpoint of adding pairwise products
    fixpoint = set(subset)
    while True:
        grown = fixpoint | {table.product[a][b] for a in fixpoint for b in fixpoint}
        if grown == fixpoint:
            break
        fixpoint = grown
    assert cl == fixpoint


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


@settings(max_examples=200, deadline=None)
@given(_pool_index, st.data())
def test_validate_matches_brute_force_with_one_entry_changed(idx, data):
    table = POOL[idx]
    n = table.size
    entry = st.integers(min_value=0, max_value=n - 1)
    a, b, v = data.draw(entry), data.draw(entry), data.draw(entry)
    rows = [list(row) for row in table.product]
    rows[a][b] = v
    _assert_validate_matches_brute_force(SemigroupTable.from_rows(rows))


def test_independence_hereditary_exhaustively_on_pool():
    for table in POOL:
        n = table.size
        flags = subset_flags(table).independent
        for bits, independent in enumerate(flags):
            subset = [a for a in range(n) if bits >> a & 1]
            assert is_independent(subset, table) == independent
            if independent:
                assert all(flags[bits ^ (1 << a)] for a in subset)


def test_adjoin_gives_the_closure_with_x(monoids, monkeypatch):
    # adjoining any x to <gens> gives the closure of gens + [x] computed from
    # scratch, both through the plain _adjoin, as validate calls it, and
    # through a search context's adjoin, as the searches call it, where a
    # unit joined to a nonempty closed set of units grows coset by coset.
    # End(B_3) relabelled spreads its units over the ids, and T_3 read the
    # other way round has left zeros that are not right zeros
    t3 = full_transformation_monoid(3)
    perm = list(range(10))
    random.Random(3).shuffle(perm)
    tables = [cyclic_group(size) for size in (1, 2, 3, 5, 6, 24)] + [
        monoids[4].aut_subtable(),
        monoids[4].table,
        relabel(monoids[3].table, perm),
        t3,
        SemigroupTable.from_rows(zip(*t3.product)),
        symmetric_inverse_monoid(2),
        with_zero(cyclic_group(3)),
    ] + special_tables()
    rng = random.Random(20261018)
    cosets = 0  # the calls the search contexts make to _cosets
    real = core._cosets

    def counted(product, gens, group, x, units):
        nonlocal cosets
        cosets += 1
        # its precondition: a unit x outside a nonempty closed set of units
        assert group and not group & ~units and units >> x & 1 and not group >> x & 1
        return real(product, gens, group, x, units)

    monkeypatch.setattr(core, "_cosets", counted)
    for table in tables:
        n = table.size
        full = (1 << n) - 1
        s = _Search(table, None)
        units = s.units
        assert s.right_zeros == sum(
            1 << z for z in range(n) if all(row[z] == z for row in table.product)
        )
        unit_ids = [a for a in range(n) if units >> a & 1]
        gen_sets = [[]] + [rng.sample(range(n), rng.randint(1, min(n, 3))) for _ in range(12)]
        if unit_ids:
            gen_sets += [rng.sample(unit_ids, rng.randint(1, min(len(unit_ids), 2)))
                         for _ in range(12)]
        for gens in gen_sets:
            mask = sum(1 << a for a in closure(gens, table))
            for x in range(n):
                expected = sum(1 << a for a in closure(gens + [x], table))
                assert _adjoin(table.product, gens, mask, x, full) == expected, (n, gens, x)
                assert s.adjoin(gens, mask, x) == expected, (table.product, gens, x)
    assert cosets
