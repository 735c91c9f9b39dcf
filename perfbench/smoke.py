"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at toy size (End(B_2) and End(B_3) instead of End(B_4..6),
a 3-table pool), untraced and traced, and checks that each prints every metric
BENCHMARK.json names, with its unit, and that no operation failed.  That
includes end5-walk and table-pool, which BENCHMARK.json leaves out.  Takes a
few seconds; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import machine  # noqa: E402  (needs the paths above)
from workloads import NAMES  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"machine: {machine()}")
    problems = []
    for workload in NAMES:  # the benchmark's workloads and the ones run by hand
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--toy",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{workload} trace={trace}: no result line\n{proc.stderr}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            for name, unit in want.items():
                if not any(
                    l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines[:-1]
                ):
                    problems.append(f"{workload} trace={trace}: {name} not printed in {unit}")
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}, {result}")
            print(f"{workload} trace={trace}: {result['attempted']} ops, "
                  f"{len(got)} metrics, exit {proc.returncode}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
