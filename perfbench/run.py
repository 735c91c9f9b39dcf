"""sgranks benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload end4-session --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ./src, never
from an installed copy.  Each operation starts only after the previous one
has finished and been checked.  With --trace 0 the last stdout line is a JSON
object carrying the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run (see tracing.py) and the tracing overhead.
Operation times in that object are given in units of a fixed reference loop
timed next to each operation (see reference()); the lines above it give them
in milliseconds too.
Human-readable lines, the machine description and per-span tables go above it.
The process exits 1 if any operation fails its check and 2 if the package
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_OPS = 12  # enough operations that a percentile has 10 samples beyond it
CLOSURE_SAMPLES = 400
MAX_SPANS = 300_000  # a traced run stops early rather than hold more in memory
REF_ORDER = 97
REF_ROWS = tuple(
    tuple((a * b + a + b) % REF_ORDER for b in range(REF_ORDER)) for a in range(REF_ORDER)
)
REF_SPAN = 16  # partners per element in reference(); about 50 ms on a 2-vCPU Xeon VM


def import_package():
    src = ROOT / "src"
    if not (src / "sgranks" / "__init__.py").is_file():
        print(f"perfbench: no sgranks package under {src}; run from a checkout root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import sgranks

    if Path(sgranks.__file__).resolve().parent != src / "sgranks":
        print(f"perfbench: imported sgranks from {sgranks.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return sgranks


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


def reference() -> float:
    """Seconds taken by a fixed piece of plain-Python work that shares no code with sgranks.

    It closes pairs of elements of the semigroup (Z_97, a*b + a + b) under
    right multiplication, the same kind of set-and-list work as the package's
    closure.  On a shared host the speed at which Python runs can swing by
    almost 2x for tens of seconds; timed just before and just after an
    operation, this loop measures that speed, and dividing the operation's time
    by it leaves the operation's cost in units that the swings cancel from.
    """
    rows = REF_ROWS
    start = time.perf_counter()
    for s in range(REF_ORDER):
        for t in range(s + 1, s + 1 + REF_SPAN):
            gens = (s, t % REF_ORDER)
            seen = set(gens)
            todo = list(gens)
            for x in todo:
                row = rows[x]
                for g in gens:
                    z = row[g]
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
    return time.perf_counter() - start


def run_op(workload, i: int, tracer=None) -> tuple[float, bool]:
    """Operation i, timed, then its check; returns (seconds, failed)."""
    error = None
    if tracer is not None:
        tracer.op_id = i
        tracer.active = True
    start = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception:  # one broken op is counted, the run goes on
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            workload.check(i, out)
        except Exception as exc:  # CheckFailed, or a malformed output
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        print(f"perfbench: {workload.name} op {i} failed: {error}", file=sys.stderr)
    return elapsed, error is not None


def timed_setup(workload, seed: int) -> float:
    start = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - start


def measure(workload, seconds: float, setup):
    """Closed loop: returns (per-op seconds, per-op reference units, failed
    count, set-up seconds).

    Stops at the first round boundary after ``seconds`` of wall time once
    MIN_OPS operations have run.  Only the operation is timed; its check runs
    after the clock stops.  reference() runs between operations, and an
    operation's time in reference units is its time over the mean of the
    reference times just before and just after it.  ``setup()`` builds and
    times the inputs of a spare copy of the workload after each operation,
    so set-up is sampled across the whole run, not in one stretch of it.
    """
    latencies: list[float] = []
    relative: list[float] = []
    setups: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    before = reference()
    i = 0
    while True:
        elapsed, bad = run_op(workload, i)
        after = reference()
        latencies.append(elapsed)
        relative.append(2 * elapsed / (before + after))
        setups.append(setup())
        before = after
        failed += bad
        i += 1
        if i % workload.round == 0 and i >= MIN_OPS and time.perf_counter() >= deadline:
            return latencies, relative, failed, setups


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 samples beyond it.

    Needs more than 10 samples, which MIN_OPS guarantees.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def closure_us(sgranks, tables, seed: int) -> float:
    """Median microseconds of core.closure on seeded random 1..4-element subsets."""
    rng = random.Random(seed)
    closure = sgranks.core.closure
    times = []
    for k in range(CLOSURE_SAMPLES):
        table = tables[k % len(tables)]
        subset = rng.sample(range(table.size), min(table.size, rng.randint(1, 4)))
        start = time.perf_counter_ns()
        closure(subset, table)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e3


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, setup, first_setup: float):
    latencies, relative, failed, setups = measure(workload, seconds, setup)
    setups.append(first_setup)
    setup_s = statistics.median(setups)
    print(f"setup_s is the median of {len(setups)} set-ups")
    n = len(latencies)
    value, pct = tail(latencies)
    total = sum(latencies)
    print(f"ops: {n} in {total:.3f} s of operation time")
    print(f"tail: p{pct:.1f} of {n} samples (10 beyond it), for op_tail_ms and op_tail_ref")
    print(f"ops_per_s = {n / total:.6g} 1/s")
    print(f"op_p50_ms = {statistics.median(latencies) * 1e3:.6g} ms")
    print(f"op_tail_ms = {value * 1e3:.6g} ms")
    if workload.name == "end5-walk":
        # each walk was checked to stop at its budget, so it visited exactly that many nodes
        print(f"nodes_per_s = {workload.nodes * n / total:.1f} 1/s")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ref": metric(statistics.median(relative), "ref"),
        "op_tail_ref": metric(tail(relative)[0], "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, n, failed


SEARCH_NAMES = ("ranks.intermediate_rank", "ranks.upper_rank", "ranks.verify_conjecture")
LAYER_TIMES = (
    "ranks.intermediate_rank",
    "ranks.upper_rank",
    "ranks.lower_rank",
    "ranks.small_rank",
    "ranks.large_rank",
    "ranks.verify_conjecture",
    "core.is_independent",
    "core.is_generating",
    "core.is_prime_subset",
    "core.validate",
    "core.parse_table_text",
    "core.format_table_text",
    "endo.enumerate_endomorphisms_structural",
    "endo.EndoMonoid.sidecar",
    "brandt.build_brandt",
    "verify.run_checks",
)
LAYER_CALLS = ("core.is_independent", "core.is_generating", "brandt.build_brandt")
LAYER_SELF = ("ranks.rank_report", "cli.main")


def traced(sgranks, workload, seconds: float, seed: int):
    from tracing import LAYERS, Tracer

    # every operation runs twice, untraced and traced, alternating which goes
    # first, so both sides see the same machine; the time ratio is the overhead
    tracer = Tracer()
    plain: list[float] = []
    spans: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    ops = 0
    while True:
        for traced_side in (False, True) if ops % 2 == 0 else (True, False):
            if traced_side:
                tracer.install(sgranks)
                try:
                    elapsed, bad = run_op(workload, ops, tracer)
                finally:
                    tracer.uninstall()
                spans.append(elapsed)
            else:
                elapsed, bad = run_op(workload, ops)
                plain.append(elapsed)
            failed += bad
        ops += 1
        if ops % workload.round == 0 and (
            time.perf_counter() >= deadline or len(tracer.spans) >= MAX_SPANS
        ):
            break
    overhead = statistics.median(t / p for t, p in zip(spans, plain))
    rows = tracer.summary()

    def per_op(name: str, key: str) -> float:
        return rows.get(name, {}).get(key, 0) / ops

    metrics = {"core.closure_us": metric(closure_us(sgranks, workload.tables(), seed), "us")}
    for name in LAYER_TIMES:
        metrics[f"{name}.s"] = metric(per_op(name, "s"), "s/op")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = metric(per_op(name, "calls"), "calls/op")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = metric(per_op(name, "self_s"), "s/op")
    for layer in LAYERS:
        own = sum(r["self_s"] for n, r in rows.items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = metric(own / ops, "s/op")
    searches = tracer.searches
    metrics["ranks.exact_frac"] = metric(
        sum(searches) / len(searches) if searches else 0.0, "fraction"
    )
    search_s = sum(rows.get(name, {}).get("s", 0.0) for name in SEARCH_NAMES)
    metrics["ranks.nodes_per_s"] = metric(tracer.nodes() / search_s if search_s else 0.0, "1/s")
    metrics["trace.overhead"] = metric(overhead, "x")

    print(f"traced {ops} ops; {len(tracer.spans)} spans; overhead {overhead:.4f}x, the median "
          f"of traced over untraced time per op (totals {sum(spans):.3f} s / {sum(plain):.3f} s)")
    print(f"searches: {sum(searches)} of {len(searches)} completed; {tracer.nodes()} nodes")
    print(f"{'span':48s} {'calls/op':>10s} {'incl s/op':>11s} {'self s/op':>11s}")
    for name in sorted(rows, key=lambda n: -rows[n]["self_s"]):
        r = rows[name]
        print(f"{name:48s} {r['calls'] / ops:10.2f} {r['s'] / ops:11.6f} {r['self_s'] / ops:11.6f}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics, 2 * ops, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sgranks = import_package()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    workdir = OUT / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, args.toy, workdir)
    print(f"machine: {machine()}")
    print(f"workload: {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} toy={args.toy}")
    try:
        first_setup = timed_setup(workload, args.seed)
        if args.trace:
            metrics, attempted, failed = traced(sgranks, workload, args.seconds, args.seed)
        else:
            def spare_setup():
                return timed_setup(workloads.make(args.workload, args.toy, workdir), args.seed)

            metrics, attempted, failed = end_to_end(
                workload, args.seconds, spare_setup, first_setup
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
