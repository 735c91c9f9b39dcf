import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgranks
from sgranks import cli
from sgranks.brandt import build_brandt
from sgranks.core import format_table_text, parse_table_text
from sgranks.endo import EndoMonoid, enumerate_endomorphisms_oracle, enumerate_endomorphisms_structural
from sgranks.ranks import ConjectureReport, rank_report, verify_conjecture

from _tablegen import left_zero_band


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_brandt_emits_parseable_table(capsys):
    code, out, err = run(capsys, "brandt", "--n", "2")
    assert code == 0
    table = parse_table_text(out)
    assert table == build_brandt(2)
    assert "|B_2| = 5" in err


def test_brandt_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["brandt", "--n", "0"])
    assert exc.value.code == 1


def test_brandt_above_the_cap_exits_one():
    # run as a process, so that an uncaught error would show its traceback
    env = {**os.environ, "PYTHONPATH": str(Path(sgranks.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from sgranks.cli import main; sys.exit(main(sys.argv[1:]))",
         "brandt", "--n", "27"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "sgranks brandt: n=27 exceeds the Brandt table cap n <= 26\n"


@pytest.mark.parametrize("n, digest", [
    (1, "4337d29b76d890901acf23dffbf27d9b"),
    (2, "e700693c5986dbae2d8221e4ca49eb35"),
    (3, "305e84f141a781cbb32504014979a53e"),
    (4, "c64543dad63d54ad27e59ac1e43eba15"),
    (5, "78eb851c85b5e56e1b767704c1c4057d"),
    (6, "d3782912d82c02fe4157c7f9d0503251"),
])
def test_brandt_text_is_pinned(capsys, n, digest):
    # md5 of the table text brandt --n 1..6 has always written
    code, out, err = run(capsys, "brandt", "--n", str(n))
    assert code == 0 and err == f"|B_{n}| = {n * n + 1}\n"
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ranks"])  # neither --n nor --table
    assert exc.value.code == 1


def test_one_parser_serves_a_sequence_of_commands(capsys, monkeypatch):
    # main builds its parser once per process; a usage error in between must
    # not change what the commands around it print or return
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(sgranks.__file__).parents[1])}
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    runs = ((["ranks", "--n", "2"], 0), (["ranks", "--n", "0"], 1), (["verify", "--n", "2"], 0))
    for argv, expected in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        alone = subprocess.run(
            [sys.executable, "-c",
             "import sys; from sgranks.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env,
        )
        assert (code, captured.out, captured.err) == (
            alone.returncode, alone.stdout, alone.stderr
        ), argv
        assert code == expected, argv


@pytest.mark.parametrize("command", ["ranks", "verify", "conjecture"])
@pytest.mark.parametrize("budget", ["nan", "inf", "1e309"])
def test_non_finite_budget_exits_one(capsys, command, budget):
    # a deadline of nan or inf would leave the search unbounded
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--n", "2", "--budget", budget])
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert err.endswith(f"sgranks {command}: error: argument --budget: must be finite, got {budget}\n")


def test_zero_budget_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ranks", "--n", "2", "--budget", "0"])
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert err.endswith("sgranks ranks: error: argument --budget: must be > 0, got 0.0\n")


def test_endo_table_output(capsys, monoids):
    code, out, _ = run(capsys, "endo", "--n", "2")
    assert code == 0
    assert parse_table_text(out) == monoids[2].table


@pytest.mark.parametrize(
    "argv, build",
    [
        (["endo", "--n", "5"], lambda: enumerate_endomorphisms_structural(5).table),
        (["brandt", "--n", "4"], lambda: build_brandt(4)),
    ],
)
def test_out_file_holds_the_table_text(capsys, tmp_path, argv, build):
    # the table is written to --out row by row; the file is the one text
    path = tmp_path / "table.tbl"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == format_table_text(build())


def test_endo_json_prints_the_element_list(capsys, monoids):
    code, out, err = run(capsys, "endo", "--n", "2", "--json")
    assert code == 0
    assert out == json.dumps(monoids[2].sidecar(), indent=2) + "\n"
    assert [e["label"] for e in json.loads(out)["elements"]] == list(monoids[2].table.labels)
    assert err == "|End(B_2)| = 5\n"


def test_endo_oracle_flag(capsys, monoids):
    code, out, _ = run(capsys, "endo", "--n", "2", "--oracle")
    assert code == 0
    assert parse_table_text(out) == monoids[2].table
    code, _, err = run(capsys, "endo", "--n", "4", "--oracle")
    assert code == 1 and "cap" in err
    assert err == "sgranks endo: n=4 exceeds the oracle enumeration cap n <= 3\n"


@pytest.mark.parametrize("command", ["endo", "ranks", "verify", "conjecture"])
def test_enumeration_cap_exits_one(capsys, command):
    code, out, err = run(capsys, command, "--n", "7")
    assert code == 1 and out == ""
    assert err == f"sgranks {command}: n=7 exceeds the factorial enumeration cap n <= 6\n"


def test_endo_json_sidecar(capsys, tmp_path):
    out_path = tmp_path / "end2.tbl"
    code, _, _ = run(capsys, "endo", "--n", "2", "--out", str(out_path))
    assert code == 0
    assert parse_table_text(out_path.read_text()).size == 5
    side = json.loads((tmp_path / "end2.tbl.json").read_text())
    assert side["size"] == 5
    assert side["elements"][4]["label"] == "xi_theta"


def test_ranks_json_matches_library(capsys, monoids):
    code, out, _ = run(capsys, "ranks", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == rank_report(monoids[2].table, n=2).to_dict()
    assert data["ranks"] == {"r1": 1, "r2": 3, "r3": 3, "r4": 4, "r5": 5}


def test_ranks_text_report(capsys):
    code, out, err = run(capsys, "ranks", "--n", "2")
    assert code == 0 and err == ""
    assert out == (
        "End(B_2): 5 elements\n"
        "r1 = 1   [fast-path]\n"
        "r2 = 3   [exhaustive]   witness: phi_(1,2) xi_(1,1) xi_theta\n"
        "r3 = 3   [pruned-search]   witness: phi_(1,2) xi_(1,1) xi_theta\n"
        "r4 = 4   [pruned-search]   witness: phi_id xi_(1,1) xi_(2,2) xi_theta\n"
        "r5 = 5   [exhaustive]   prime subset: xi_theta\n"
        "chain: 1 <= 3 <= 3 <= 4 <= 5\n"
    )


def test_ranks_which_filter(capsys):
    code, out, _ = run(capsys, "ranks", "--n", "2", "--json", "--which", "r1,r5")
    assert code == 0
    data = json.loads(out)
    assert set(data["ranks"]) == {"r1", "r5"}
    code, _, err = run(capsys, "ranks", "--n", "2", "--which", "bogus")
    assert code == 1 and "--which" in err


def test_ranks_round_trip_through_table_files(capsys, tmp_path):
    # emitted B_k tables re-read from disk must reproduce the in-memory report
    for k in (1, 2, 3):
        path = tmp_path / f"b{k}.tbl"
        code, _, _ = run(capsys, "brandt", "--n", str(k), "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "ranks", "--table", str(path), "--json")
        assert code == 0
        assert json.loads(out) == rank_report(build_brandt(k)).to_dict()


def test_ranks_of_end_b5_read_back_from_text(capsys, tmp_path):
    # End(B_5) written by endo and read back keeps its ids, so it takes the
    # walk split at its constants and reports what --n 5 does, but n
    path = tmp_path / "end5.tbl"
    assert run(capsys, "endo", "--n", "5", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "ranks", "--table", str(path), "--json")
    assert code == 0
    code, direct, _ = run(capsys, "ranks", "--n", "5", "--json")
    assert code == 0
    assert json.loads(out) == {**json.loads(direct), "n": None}


def test_ranks_r1_of_a_large_band(capsys, tmp_path):
    # past the reference oracle's cap, r1 comes from the closed form
    path = tmp_path / "lz24.tbl"
    path.write_text(format_table_text(left_zero_band(24)))
    code, out, err = run(capsys, "ranks", "--table", str(path), "--which", "r1")
    assert (code, out, err) == (0, "table: 24 elements\nr1 = 24   [fast-path]\n", "")


def test_ranks_r2_of_end_b5_within_budget(capsys):
    code, out, _ = run(capsys, "ranks", "--n", "5", "--which", "r2", "--budget", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ranks"] == {"r2": 4}
    assert data["budget_exhausted"] is False


def test_ranks_rejects_non_associative_table(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n1 0\n0 0\n")
    code, _, err = run(capsys, "ranks", "--table", str(bad))
    assert code == 1
    assert "(0*0)*1" in err


def test_ranks_rejects_malformed_table(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n0 0\n")
    code, _, err = run(capsys, "ranks", "--table", str(bad))
    assert code == 1 and "cannot read table" in err
    code, _, err = run(capsys, "ranks", "--table", str(tmp_path / "missing.tbl"))
    assert code == 1
    # a certificate names elements by label, so labels that repeat are refused
    bad.write_text("2\n0 0\n0 1\na a\n")
    code, out, err = run(capsys, "ranks", "--table", str(bad), "--json")
    assert code == 1 and out == ""
    assert "cannot read table: label 'a' names more than one element" in err


def test_ranks_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "ranks", "--n", "1", "--json", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["ranks"]["r5"] == 3


@pytest.mark.parametrize("command", ["ranks", "endo", "brandt"])
def test_unwritable_out_exits_one(tmp_path, command):
    # run as a process, so that an uncaught error would show its traceback
    path = tmp_path / "missing" / "x.json"
    env = {**os.environ, "PYTHONPATH": str(Path(sgranks.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from sgranks.cli import main; sys.exit(main(sys.argv[1:]))",
         command, "--n", "2", "--out", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 1 and done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith(f"sgranks {command}: ") and str(path) in line
    assert "Traceback" not in done.stderr


def test_out_is_opened_before_any_work(capsys, monkeypatch, tmp_path):
    # an unwritable --out ends the run before the build or the search starts
    def never(*args, **kwargs):
        raise AssertionError("the work started before --out was opened")

    monkeypatch.setattr(cli.ranks, "rank_report", never)
    monkeypatch.setattr(cli, "enumerate_endomorphisms_structural", never)
    monkeypatch.setattr(cli.brandt, "build_brandt", never)
    missing = str(tmp_path / "missing" / "x.json")
    for command in ("ranks", "endo", "brandt"):
        code, out, err = run(capsys, command, "--n", "6", "--out", missing)
        assert code == 1 and out == ""
        assert err.startswith(f"sgranks {command}: ") and missing in err
    # the sidecar path of endo is opened before the build too
    (tmp_path / "end.tbl.json").mkdir()
    code, _, err = run(capsys, "endo", "--n", "6", "--out", str(tmp_path / "end.tbl"))
    assert code == 1 and "end.tbl.json" in err


def test_ranks_out_may_name_its_table(capsys, tmp_path):
    # the table file is read before --out is opened and emptied
    path = tmp_path / "b2.tbl"
    path.write_text(format_table_text(build_brandt(2)))
    code, out, _ = run(capsys, "ranks", "--table", str(path), "--json", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["ranks"] == rank_report(build_brandt(2)).ranks


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln[0].isdigit()]
    assert all(ln.startswith(("PASS", "FAIL", "SKIPPED")) for ln in lines)
    assert not any(ln.startswith("FAIL") for ln in lines)


def test_conjecture_confirmed_exits_zero(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "2")
    assert code == 0
    assert "confirmed" in out


def test_conjecture_refutation_exits_two(capsys, monkeypatch):
    # no refutation is known, so a stub search reports all of End(B_2) as one
    def refuted(n, budget=None, monoid=None):
        witness, found = (0,) + tuple(monoid.constant_ids), tuple(range(len(monoid)))
        return ConjectureReport(n, n + 2, witness, "refuted-with-witness", found, found)

    monkeypatch.setattr(cli.ranks, "verify_conjecture", refuted)
    code, out, _ = run(capsys, "conjecture", "--n", "2")
    assert code == 2
    assert out.splitlines()[-1] == (
        "verdict: refuted-with-witness "
        "(independent set of size 5: phi_id phi_(1,2) xi_(1,1) xi_(2,2) xi_theta)"
    )
    code, out, _ = run(capsys, "conjecture", "--n", "2", "--json")
    assert code == 2 and json.loads(out)["refutation"][0] == "phi_id"


def test_conjecture_json(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "confirmed"
    assert data["computed_r4"] == 5
    assert data["witness"][0] == "phi_id"


def test_conjecture_cut_by_the_wall_clock_is_inconclusive(capsys):
    # the walk polls the wall clock first at tick 1024, so a budget of 1e-9 s
    # cuts End(B_5)'s walk there, with no sleeps
    code, out, _ = run(capsys, "conjecture", "--n", "5", "--budget", "1e-9")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: inconclusive (budget exhausted; r4 >= 7)"


def test_conjecture_rejects_n1(capsys):
    code, _, err = run(capsys, "conjecture", "--n", "1")
    assert code == 1 and "n >= 2" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("command", [["ranks", "--json"], ["verify"], ["conjecture", "--json"]])
def test_stdout_matches_golden(capsys, command, n):
    # stdout byte for byte as recorded in tests/golden, values, witnesses and
    # layout alike, so that a change to the searches cannot alter an output
    # unnoticed
    code, out, _ = run(capsys, *command, "--n", str(n))
    assert code == 0
    expected = (GOLDEN / f"{command[0]}_n{n}.txt").read_text(encoding="utf-8")
    assert out == expected


# --- the CLI's JSON writer ---------------------------------------------------


def assert_indent2(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_json_text_writes_end_bn_element_lists_as_json(n):
    assert_indent2(enumerate_endomorphisms_structural(n).sidecar())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_json_text_writes_oracle_element_lists_as_json(n):
    assert_indent2(EndoMonoid(n, enumerate_endomorphisms_oracle(n)).sidecar())


def test_json_text_writes_rank_reports_as_json(random_tables):
    for n in (1, 2, 3, 4, 5):
        assert_indent2(rank_report(enumerate_endomorphisms_structural(n).table, n=n).to_dict())
    for table in random_tables:
        assert_indent2(rank_report(table).to_dict())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_json_text_writes_conjecture_reports_as_json(n):
    monoid = enumerate_endomorphisms_structural(n)
    assert_indent2(verify_conjecture(n, monoid=monoid).to_dict(monoid))


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers() | st.booleans())
    | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
@example({})
@example({"": [], "a": {}, "b": ()})
@example({'q"\\\n\t\x00': ["\u00e9", "\u2028", "\U0001f600", "\ud800"]})
@example([0, 1, True, False, -1, 2**100, -(2**100)])
@example((1, 2, 3))
@example([1.0, -0.0, math.inf, -math.inf, math.nan, 1e300])
@example({"n": None, "x": [None, [[]], [{}], [[1, 2], [3]]]})
def test_json_text_equals_json_dumps_indent2(value):
    assert_indent2(value)


def test_cli_commands_leave_no_cyclic_garbage(capsys, tmp_path):
    # with the collector off, each command must free all it allocates by
    # reference counting, so that when the collector runs cannot move peak memory
    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        for n in ("3", "4"):
            for argv in (
                ["endo", "--n", n, "--out", str(tmp_path / f"end{n}.tbl")],
                ["endo", "--n", n, "--json"],
                ["ranks", "--n", n, "--json"],
                ["conjecture", "--n", n, "--json"],
            ):
                code, _, _ = run(capsys, *argv)
                assert code == 0
                assert gc.collect() == 0, argv
    finally:
        gc.enable()
