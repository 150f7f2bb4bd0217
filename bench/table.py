#!/usr/bin/env python3
"""Print every end-to-end metric, with its unit, for each workload on its
own row, plus the error rate (failed ops / attempted ops).

    python3 bench/table.py [--seed N]

Runs bench/run.py once per workload named in BENCHMARK.json, for its
`run_seconds`."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description="one row of end-to-end metrics per workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print(lines[-2], flush=True)
        status |= not json.loads(lines[-1])["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
