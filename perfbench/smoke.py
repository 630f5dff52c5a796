"""Harness smoke test: every workload at a reduced size, tracing off
and on; the printed metric names and units, and run.py's metric
tables, must match BENCHMARK.json.

Usage (from the repository root; about a minute)::

    python3 perfbench/smoke.py

Exits 1 on the first mismatch, a failed output check or a crash.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        print(f"workloads differ: BENCHMARK.json {declared}, "
              f"run.py {list(WORKLOADS)}")
        return 1
    for key, table in (("end_to_end", END_TO_END),
                       ("per_layer", PER_LAYER)):
        want = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if want != [tuple(row) for row in table]:
            print(f"{key}: run.py's table differs from BENCHMARK.json")
            return 1
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(BENCH / "run.py"),
                    "--workload", workload, "--seed", "1995",
                    "--seconds", "1", "--trace", str(trace),
                    "--size", "smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n"
                      f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"]
                   for name, m in result["metrics"].items()}
            if got != want or not result["correct"] or \
                    result["attempted"] < 1:
                print(f"FAIL {label}: metrics {sorted(got)} vs "
                      f"{sorted(want)}, correct={result['correct']}, "
                      f"attempted={result['attempted']}")
                return 1
            print(f"ok   {label}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
