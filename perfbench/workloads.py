"""The four workloads: how each builds its inputs, runs one operation, and
checks that operation's output.

Every operation calls the package through its module attributes
(``sgranks.ranks.upper_rank``, not a name bound at import), so the tracing
wrappers see each call.  Every search budget is a node budget with
``seconds=None``: the work in an operation never depends on machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from itertools import permutations
from pathlib import Path

import sgranks
import sgranks.cli
import sgranks.verify

# nodes per End(B_5) walk; each walk is cut short, so it visits exactly this many
WALK_NODES = 1000
# node budget for the r3/r4 searches of one pool table
POOL_NODES = 2000


class CheckFailed(Exception):
    """An operation returned a wrong or unverifiable result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """sgranks.cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sgranks.cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# certificate replay, through the core predicates


def replay_report(table, ranks: dict, certs: dict) -> None:
    """Replay every certificate of a rank report given as id tuples."""
    core = sgranks.core
    chain = [ranks[k] for k in ("r1", "r2", "r3", "r4", "r5")]
    require(chain == sorted(chain), f"rank chain violated: {ranks}")
    r2, r3, r4 = certs["r2"], certs["r3"], certs["r4"]
    require(len(r2) == ranks["r2"] and core.is_generating(r2, table), "r2 certificate")
    require(
        len(r3) == ranks["r3"]
        and core.is_independent(r3, table)
        and core.is_generating(r3, table),
        "r3 certificate",
    )
    require(len(r4) == ranks["r4"] and core.is_independent(r4, table), "r4 certificate")
    prime = certs["r5_prime"]
    require(
        len(prime) == table.size - ranks["r5"] + 1 and core.is_prime_subset(prime, table),
        "r5 prime-subset certificate",
    )


def end_ranks(n: int) -> dict:
    """Known ranks of End(B_n) for 2 <= n <= 4 (the paper's desk-scale values)."""
    return {
        "r1": 1,
        "r2": 3 if n == 2 else 4,
        "r3": n + 1,
        "r4": n + 2,
        "r5": math.factorial(n) + n + 1,
    }


# ---------------------------------------------------------------------------
# end4-session


class EndSession:
    """ranks, verify and conjecture on End(B_n) through the CLI; one op is all three."""

    name = "end4-session"
    round = 1

    def __init__(self, toy: bool):
        self.n = 2 if toy else 4
        n = str(self.n)
        self.commands = (
            ["ranks", "--n", n, "--json"],
            ["verify", "--n", n],
            ["conjecture", "--n", n, "--json"],
        )

    def setup(self, seed: int) -> None:
        # the reference table maps the CLI's labels back to ids for replay
        self.table = sgranks.endo.enumerate_endomorphisms_structural(self.n).table
        self.ids = {label: k for k, label in enumerate(self.table.labels)}
        self.expected = end_ranks(self.n)

    def tables(self):
        return [self.table]

    def op(self, i: int):
        return [run_cli(argv) for argv in self.commands]

    def _ids(self, labels) -> tuple[int, ...]:
        require(all(lab in self.ids for lab in labels), f"unknown labels {labels}")
        return tuple(self.ids[lab] for lab in labels)

    def check(self, i: int, out) -> None:
        (rc_r, ranks_out), (rc_v, verify_out), (rc_c, conj_out) = out
        n, table, core = self.n, self.table, sgranks.core
        require(rc_r == 0 and rc_v == 0 and rc_c == 0, f"exit codes {rc_r}, {rc_v}, {rc_c}")

        report = json.loads(ranks_out)
        require(report["ranks"] == self.expected, f"ranks {report['ranks']}")
        require(report["budget_exhausted"] is False, "the 60 s default cut a rank search")
        certs = {k: self._ids(v) for k, v in report["certificates"].items()}
        replay_report(table, report["ranks"], certs)

        lines = verify_out.strip().splitlines()
        require(lines[-1].endswith(", 0 failed"), f"verify: {lines[-1]}")
        require(not any(l.startswith("FAIL") for l in lines), "verify printed a FAIL line")
        require(
            not any("budget exhausted" in l for l in lines),
            "the 60 s default cut a verify search",
        )

        conj = json.loads(conj_out)
        require(conj["verdict"] == "confirmed", f"conjecture verdict {conj['verdict']}")
        require(conj["computed_r4"] == n + 2, f"conjecture r4 {conj['computed_r4']}")
        for key in ("witness", "best_found"):
            ids = self._ids(conj[key])
            require(
                len(ids) == n + 2 and core.is_independent(ids, table),
                f"conjecture {key} failed replay",
            )


# ---------------------------------------------------------------------------
# end5-walk


class EndWalk:
    """Node-budgeted walks over End(B_n), rotating conjecture, r4 and r3."""

    name = "end5-walk"
    round = 3

    def __init__(self, toy: bool):
        self.n = 3 if toy else 5
        self.nodes = 100 if toy else WALK_NODES

    def setup(self, seed: int) -> None:
        self.monoid = sgranks.endo.enumerate_endomorphisms_structural(self.n)

    def tables(self):
        return [self.monoid.table]

    def op(self, i: int):
        ranks = sgranks.ranks
        budget = ranks.Budget(seconds=None, max_nodes=self.nodes)
        kind = i % 3
        if kind == 0:
            return ranks.verify_conjecture(self.n, budget, monoid=self.monoid)
        if kind == 1:
            return ranks.upper_rank(self.monoid.table, budget)
        return ranks.intermediate_rank(self.monoid.table, budget)

    def check(self, i: int, out) -> None:
        table, core = self.monoid.table, sgranks.core
        kind = i % 3
        if kind == 0:
            # inconclusive means the walk was cut, so it visited exactly self.nodes nodes
            require(out.verdict == "inconclusive", f"conjecture verdict {out.verdict}")
            require(core.is_independent(out.witness, table), "conjecture witness")
            require(core.is_independent(out.best_found, table), "conjecture best_found")
            return
        require(out.exact is False, "walk finished inside its node budget")
        require(len(out.witness) == out.value, "witness size differs from value")
        require(core.is_independent(out.witness, table), "witness is not independent")
        if kind == 2:
            require(core.is_generating(out.witness, table), "r3 witness does not generate")


# ---------------------------------------------------------------------------
# table-pool


def left_zero(n):
    return [[a] * n for a in range(n)]


def null(n):
    return [[0] * n for _ in range(n)]


def cyclic(k):
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def rectangular(rows, cols):
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    index = {c: k for k, c in enumerate(cells)}
    return [[index[(a[0], b[1])] for b in cells] for a in cells]


def random_monoid(rng: random.Random, cap: int):
    """Rows of the identity plus the closure of 2 or 3 random non-bijective maps
    on 4 or 5 points, so its group of units is trivial; None past cap maps."""
    points = rng.choice((4, 5))
    maps = [tuple(range(points))]
    for _ in range(rng.choice((2, 3))):
        f = tuple(rng.randrange(points) for _ in range(points))
        if len(set(f)) < points and f not in maps:
            maps.append(f)
    seen = set(maps)
    k = 1
    while k < len(maps):
        f = maps[k]
        for g in maps[1 : k + 1]:
            for h in (tuple(g[x] for x in f), tuple(f[x] for x in g)):
                if h not in seen:
                    if len(maps) == cap:
                        return None
                    seen.add(h)
                    maps.append(h)
        k += 1
    index = {f: i for i, f in enumerate(maps)}
    return [[index[tuple(g[x] for x in f)] for g in maps] for f in maps]


def transformation_monoids(rng: random.Random, sizes, draws: int = 200) -> dict:
    """A random monoid near each wanted size, keyed by that size.

    A fixed number of candidates is drawn, so the set-up time hardly depends
    on the seed; each size, in ascending order, takes the first-drawn unused
    candidate of the nearest size (8 elements at least).
    """
    if not sizes:
        return {}
    cap = max(sizes)
    pool: list = []
    drawn = 0
    while drawn < draws or len(pool) < len(sizes):
        rows = random_monoid(rng, cap)
        if rows is not None and len(rows) >= 8:
            pool.append(rows)
        drawn += 1
    chosen = {}
    for size in sorted(sizes):
        best = min(range(len(pool)), key=lambda k: abs(len(pool[k]) - size))
        chosen[size] = pool.pop(best)
    return chosen


def distinct_primes(k: int) -> list[int]:
    return [p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))]


def closed_form(kind: str, params, size: int) -> dict:
    """Known rank values of a pool shape; a missing key has no closed form here."""
    if kind == "left-zero":
        return dict.fromkeys(("r1", "r2", "r3", "r4", "r5"), size)
    if kind == "null":
        return {"r1": 1, "r2": size - 1, "r3": size - 1, "r4": size - 1, "r5": size}
    if kind == "cyclic":
        primes = distinct_primes(size)
        return {"r1": 1, "r2": 1, "r3": len(primes), "r4": len(primes), "r5": 1 + size // primes[0]}
    if kind == "rectangular":
        rows, cols = params
        return {
            "r1": 2,
            "r2": max(rows, cols),
            "r3": rows + cols - 2,
            "r4": rows + cols - 2,
            "r5": size - min(rows, cols) + 1,
        }
    # transformation monoid with trivial units: the identity is a prime singleton
    return {"r5": size}


# (kind, params) of one pool, params being a monoid's target size; the seed
# relabels every table and draws the monoids.  The heaviest table comes twice a round so that, over a run of
# ten rounds or more, the tail percentile (10 samples beyond it) lies inside its
# cluster of times instead of at the edge, and the odd count keeps the median
# inside one table's cluster too.
POOL = (
    [("left-zero", n) for n in (8, 10, 12, 12)]
    + [("null", n) for n in (9, 11, 13)]
    + [("cyclic", k) for k in (9, 12, 15, 16)]
    + [("rectangular", rc) for rc in ((2, 4), (3, 3), (3, 4), (2, 6), (4, 4))]
    + [("monoid", n) for n in (10, 14, 18, 22, 24)]
)
TOY_POOL = [("left-zero", 4), ("cyclic", 6), ("null", 5)]


def build_rows(kind: str, params, monoids: dict):
    if kind == "left-zero":
        return left_zero(params)
    if kind == "null":
        return null(params)
    if kind == "cyclic":
        return cyclic(params)
    if kind == "rectangular":
        return rectangular(*params)
    return monoids[params]


def relabel(rows, perm):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return out


def table_text(rows) -> str:
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


class TablePool:
    """Seeded --table inputs: parse, validate and rank_report under a node budget."""

    name = "table-pool"

    def __init__(self, toy: bool):
        self.spec = TOY_POOL if toy else POOL
        self.round = len(self.spec)

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        monoids = transformation_monoids(rng, {p for k, p in self.spec if k == "monoid"})
        items = []
        for kind, params in self.spec:
            rows = build_rows(kind, params, monoids)
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            rows = relabel(rows, perm)
            items.append((kind, params, rows, table_text(rows)))
        rng.shuffle(items)
        self.items = items

    def tables(self):
        return [sgranks.core.SemigroupTable.from_rows(item[2]) for item in self.items]

    def op(self, i: int):
        text = self.items[i % len(self.items)][3]
        core = sgranks.core
        table = core.parse_table_text(text)
        valid = core.validate(table)
        report = sgranks.ranks.rank_report(
            table, sgranks.ranks.Budget(seconds=None, max_nodes=POOL_NODES)
        )
        return table, valid, report

    def check(self, i: int, out) -> None:
        kind, params, rows, _ = self.items[i % len(self.items)]
        table, valid, report = out
        where = f"{kind} {params}"
        require(valid.ok, f"{where}: validate rejected an associative table")
        require([list(r) for r in table.product] == rows, f"{where}: parse changed the table")
        ranks = report.ranks
        replay_report(table, ranks, report.certificates)
        for key, value in closed_form(kind, params, len(rows)).items():
            if key in ("r3", "r4") and report.budget_exhausted:
                # a cut search reports a sound lower bound
                require(ranks[key] <= value, f"{where}: {key} = {ranks[key]} > {value}")
            else:
                require(ranks[key] == value, f"{where}: {key} = {ranks[key]}, expected {value}")
        if kind == "monoid" and any(rows[a][a] != a for a in range(len(rows))):
            require(ranks["r1"] == 1, f"{where}: r1 of a non-band is 1")


# ---------------------------------------------------------------------------
# endo-roundtrip


def brandt_id(i: int, j: int, n: int) -> int:
    return 1 + (i - 1) * n + (j - 1)


def brandt_rows(n: int):
    """B_n from its definition: id 0 is the zero, pairs follow row-major."""
    size = n * n + 1
    rows = [[0] * size for _ in range(size)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                rows[brandt_id(i, j, n)][brandt_id(j, l, n)] = brandt_id(i, l, n)
    return rows


def brandt_labels(n: int):
    return ["theta"] + [f"({i},{j})" for i in range(1, n + 1) for j in range(1, n + 1)]


def end_images(n: int):
    """Image vectors of End(B_n) in the package's element order: automorphisms by
    permutation, then the constants onto (1,1)..(n,n), then the zero constant."""
    size = n * n + 1
    images = []
    for sigma in permutations(range(1, n + 1)):
        image = [0] * size
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                image[brandt_id(i, j, n)] = brandt_id(sigma[i - 1], sigma[j - 1], n)
        images.append(tuple(image))
    images += [(brandt_id(i, i, n),) * size for i in range(1, n + 1)]
    images.append((0,) * size)
    return images


class EndImages:
    def __init__(self, n: int):
        self.images = end_images(n)
        self.index = {img: k for k, img in enumerate(self.images)}

    def product(self, f: int, g: int) -> int:
        """Right action: apply f, then g."""
        g_img = self.images[g]
        return self.index[tuple(g_img[v] for v in self.images[f])]


class EndoRoundtrip:
    """endo --out and brandt --out through the CLI, each file parsed back."""

    name = "endo-roundtrip"
    round = 1
    SPOT_CHECKS = 2000

    def __init__(self, toy: bool, workdir: Path):
        self.big, self.small = (3, 2) if toy else (6, 5)
        self.dir = workdir

    def setup(self, seed: int) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.big_ref = EndImages(self.big)
        small = EndImages(self.small)
        self.small_ref = small
        count = len(small.images)
        self.small_rows = [[small.product(f, g) for g in range(count)] for f in range(count)]
        self.brandt_rows = brandt_rows(self.big)
        rng = random.Random(seed)
        count = len(self.big_ref.images)
        self.spots = [(rng.randrange(count), rng.randrange(count)) for _ in range(self.SPOT_CHECKS)]

    def tables(self):
        from_rows = sgranks.core.SemigroupTable.from_rows
        return [from_rows(self.small_rows), from_rows(self.brandt_rows)]

    def _path(self, name: str) -> Path:
        return self.dir / name

    def op(self, i: int):
        core = sgranks.core
        out = {}
        for n, check_assoc in ((self.big, False), (self.small, True)):
            path = self._path(f"end{n}.tbl")
            code, _ = run_cli(["endo", "--n", str(n), "--out", str(path)])
            table = core.parse_table_text(path.read_text(encoding="utf-8"))
            out[n] = (code, table, core.validate(table) if check_assoc else None)
        path = self._path(f"b{self.big}.tbl")
        code, _ = run_cli(["brandt", "--n", str(self.big), "--out", str(path)])
        table = core.parse_table_text(path.read_text(encoding="utf-8"))
        out["brandt"] = (code, table, core.validate(table))
        return out

    def _check_endo(self, n: int, code, table, ref: EndImages) -> None:
        require(code == 0, f"endo --n {n} exited {code}")
        require(table.size == math.factorial(n) + n + 1, f"|End(B_{n})| = {table.size}")
        with open(self._path(f"end{n}.tbl.json"), encoding="utf-8") as fh:
            sidecar = json.load(fh)
        elements = sidecar["elements"]
        require(
            [tuple(e["image"]) for e in elements] == ref.images,
            f"End(B_{n}) sidecar images differ from the definition",
        )
        require(
            list(table.labels) == [e["label"] for e in elements],
            f"End(B_{n}) labels differ from the sidecar",
        )

    def check(self, i: int, out) -> None:
        code, table, _ = out[self.big]
        self._check_endo(self.big, code, table, self.big_ref)
        p = table.product
        require(
            all(p[f][g] == self.big_ref.product(f, g) for f, g in self.spots),
            f"End(B_{self.big}) product differs from composing images",
        )
        code, table, valid = out[self.small]
        self._check_endo(self.small, code, table, self.small_ref)
        require([list(r) for r in table.product] == self.small_rows, f"End(B_{self.small}) table")
        require(valid.ok, f"End(B_{self.small}) failed validate")
        code, table, valid = out["brandt"]
        require(code == 0, f"brandt exited {code}")
        require([list(r) for r in table.product] == self.brandt_rows, "B_n table")
        require(list(table.labels) == brandt_labels(self.big), "B_n labels")
        require(valid.ok, "B_n failed validate")


def make(name: str, toy: bool, workdir: Path):
    if name == EndSession.name:
        return EndSession(toy)
    if name == EndWalk.name:
        return EndWalk(toy)
    if name == TablePool.name:
        return TablePool(toy)
    if name == EndoRoundtrip.name:
        return EndoRoundtrip(toy, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (EndSession.name, EndWalk.name, TablePool.name, EndoRoundtrip.name)
