"""Command-line interface.

Subcommands: brandt (emit a B_n table), endo (emit the End(B_n) table and a
JSON element list), ranks (compute r1..r5 with certificates for End(B_n) or
any table file), verify (the per-claim checklist), conjecture (search for an
independent set beating the predicted maximum size).

Exit codes: 0 success or inconclusive, 1 usage/validation error, 2 when the
conjecture search finds a refutation (the one newsworthy outcome).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import brandt, core, ranks, verify
from .core import ResourceLimitError
from .endo import enumerate_endomorphisms_structural

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; argparse's default of 2 is reserved for refutation
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_budget(parser: argparse.ArgumentParser, text: str) -> None:
    parser.add_argument(
        "--budget",
        type=_positive_float,
        default=ranks.DEFAULT_BUDGET_SECONDS,
        help=f"{text} (default %(default)s)",
    )


@functools.cache  # the parser depends on no input, so main builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgranks",
        description="Rank computations for Brandt semigroups and their endomorphism monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_brandt = sub.add_parser("brandt", help="emit the Cayley table of B_n")
    p_brandt.add_argument("--n", type=_positive_int, required=True)
    p_brandt.add_argument("--out", help="write the table here instead of stdout")

    p_endo = sub.add_parser("endo", help="emit the Cayley table of End(B_n)")
    p_endo.add_argument("--n", type=_positive_int, required=True)
    p_endo.add_argument("--out", help="write the table here (element list goes to PATH.json)")
    p_endo.add_argument("--json", action="store_true", help="print the element list as JSON")

    p_ranks = sub.add_parser("ranks", help="compute r1..r5 with certificates")
    target = p_ranks.add_mutually_exclusive_group(required=True)
    target.add_argument("--n", type=_positive_int, help="use End(B_n)")
    target.add_argument("--table", help="path to a Cayley-table text file")
    p_ranks.add_argument("--json", action="store_true")
    _add_budget(p_ranks, "search budget in seconds for r3/r4")
    p_ranks.add_argument("--which", help="comma-separated subset of r1,r2,r3,r4,r5")
    p_ranks.add_argument("--out", help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the per-claim checklist for End(B_n)")
    p_verify.add_argument("--n", type=_positive_int, required=True)
    _add_budget(p_verify, "search budget in seconds for the rank checks")

    p_conj = sub.add_parser(
        "conjecture",
        help="search End(B_n) for an independent set larger than n + 2",
    )
    p_conj.add_argument("--n", type=_positive_int, required=True)
    _add_budget(p_conj, "search budget in seconds")
    p_conj.add_argument("--json", action="store_true")

    return parser


_PLAIN_INTS = {int}


def _write_json(obj, out) -> None:
    """Write json.dumps(obj, indent=2) and a newline to out, byte for byte,
    for the values the CLI writes, part by part: no document string is built.

    json runs its pure-Python encoder whenever indent is set; this writer
    joins each list of plain ints (no bools) in one call and quotes strings
    with json's C quoter. Dicts must have str keys; any scalar other than
    str, int and None (bool, float) is written by json.dumps itself.
    """
    _json_parts(obj, "\n", out.write)
    out.write("\n")


def _json_parts(o, nl: str, write) -> None:
    # nl is the newline and indent that close o; its members sit one step deeper
    kind = type(o)
    if kind is str:
        write(_quote(o))
    elif kind is int:
        write(str(o))
    elif o is None:
        write("null")
    elif isinstance(o, dict):
        if not o:
            write("{}")
            return
        inner = nl + "  "
        sep, nxt = "{" + inner, "," + inner
        for k, v in o.items():
            write(sep + _quote(k) + ": ")
            _json_parts(v, inner, write)
            sep = nxt
        write(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            write("[]")
            return
        inner = nl + "  "
        sep, nxt = "[" + inner, "," + inner
        if set(map(type, o)) == _PLAIN_INTS:
            write(sep + nxt.join(map(str, o)) + nl + "]")
            return
        for v in o:
            write(sep)
            _json_parts(v, inner, write)
            sep = nxt
        write(nl + "]")
    else:
        write(json.dumps(o))


def _open_out(path: str | None):
    # --out is opened before the work it receives, so an unwritable path fails at once
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _note(message: str, stdout_taken: bool) -> None:
    # keep machine-readable stdout clean when the payload goes there
    print(message, file=sys.stderr if stdout_taken else sys.stdout)


def cmd_brandt(args) -> int:
    with _open_out(args.out) as out:
        table = brandt.build_brandt(args.n)
        core.write_table_text(table, out)
    _note(f"|B_{args.n}| = {table.size}", stdout_taken=args.out is None)
    return EXIT_OK


def cmd_endo(args) -> int:
    sidecar = args.out and not args.json  # the element list goes to PATH.json
    with _open_out(args.out) as out, (
        _open_out(args.out + ".json") if sidecar else contextlib.nullcontext()
    ) as side:
        monoid = enumerate_endomorphisms_structural(args.n)
        if args.json:
            _write_json(monoid.sidecar(), out)
        else:
            core.write_table_text(monoid.table, out)
            if sidecar:
                _write_json(monoid.sidecar(), side)
    _note(f"|End(B_{args.n})| = {len(monoid)}", stdout_taken=args.out is None)
    return EXIT_OK


def _parse_which(text: str | None):
    if text is None:
        return None
    keys = [part.strip() for part in text.split(",") if part.strip()]
    bad = [k for k in keys if k not in ranks.RANK_KEYS]
    if bad or not keys:
        raise ValueError(f"--which must name ranks among {','.join(ranks.RANK_KEYS)}")
    return keys


def cmd_ranks(args) -> int:
    try:
        which = _parse_which(args.which)
    except ValueError as exc:
        print(f"sgranks ranks: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.table is not None:
        try:
            with open(args.table, "r", encoding="utf-8") as fh:
                table = core.parse_table_text(fh.read())
        except (OSError, ValueError) as exc:
            print(f"sgranks ranks: cannot read table: {exc}", file=sys.stderr)
            return EXIT_ERROR

    # opened after the table is read, so that --out may name the table file
    with _open_out(args.out) as out:
        if args.table is not None:
            report = core.validate(table)
            if not report.ok:
                a, b, c = report.violation
                print(
                    f"sgranks ranks: table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})",
                    file=sys.stderr,
                )
                return EXIT_ERROR
            n = None
        else:
            table = enumerate_endomorphisms_structural(args.n).table
            n = args.n

        budget = ranks.Budget(seconds=args.budget)
        result = ranks.rank_report(table, budget=budget, n=n, which=which)
        if args.json:
            _write_json(result.to_dict(), out)
        else:
            out.write(result.format_text())
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = ranks.Budget(seconds=args.budget)
    results = verify.run_checks(args.n, budget=budget)
    for res in results:
        print(f"{res.status:<8}{res.name}: {res.detail}")
    failed = sum(res.status == verify.FAIL for res in results)
    print(f"{len(results)} checks, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_ERROR


def cmd_conjecture(args) -> int:
    if args.n < 2:
        print("sgranks conjecture: the size question concerns n >= 2", file=sys.stderr)
        return EXIT_ERROR
    monoid = enumerate_endomorphisms_structural(args.n)
    report = ranks.verify_conjecture(args.n, budget=ranks.Budget(seconds=args.budget), monoid=monoid)
    if args.json:
        _write_json(report.to_dict(monoid), sys.stdout)
    else:
        lab = monoid.table.label
        names = " ".join(lab(a) for a in report.witness)
        print(f"n = {report.n}: predicted largest independent set size {report.predicted}")
        print(f"verified independent witness of size {len(report.witness)}: {names}")
        if report.verdict == "confirmed":
            print(f"verdict: confirmed (no independent set of size {report.predicted + 1}; r4 = {report.predicted})")
        elif report.verdict == "refuted-with-witness":
            refs = " ".join(lab(a) for a in report.refutation)
            print(f"verdict: refuted-with-witness (independent set of size {len(report.refutation)}: {refs})")
        else:
            print(f"verdict: inconclusive (budget exhausted; r4 >= {report.lower_bound})")
    return EXIT_REFUTED if report.verdict == "refuted-with-witness" else EXIT_OK


_HANDLERS = {
    "brandt": cmd_brandt,
    "endo": cmd_endo,
    "ranks": cmd_ranks,
    "verify": cmd_verify,
    "conjecture": cmd_conjecture,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ResourceLimitError, OSError) as exc:  # an unwritable --out among them
        print(f"sgranks {args.command}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
