"""Steadiness check: run workloads N times with different seeds and compare
each end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 bench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs are sequential subprocesses of ``bench/run.py --trace 0``.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the spread (quartile distance over the median) and the bound.  A spread above
a third of the bound is marked ``wide``, above the bound ``OVER``; setup_s
has no spread limit.  The share of failed operations must be the same in
every run.  Exits 1 if any run fails or any spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bad = False
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            print(f"{workload}: incorrect runs or unequal failed shares {sorted(shares)}")
            bad = True
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            limit = metric["bound"]
            if metric["name"] == "setup_s":
                mark = "-"
            else:
                mark = "OVER" if spread > limit else ("wide" if spread > limit / 3 else "ok")
                bad |= mark == "OVER"
            print(f"  {workload:18s} {metric['name']:12s} median {median:10.4f} {metric['unit']:6s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} bound {limit:5.3f} {mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
