"""Check that two sets of runs of one commit agree within the bounds.

Usage::

    python3 perfbench/check.py [--runs 10] [--sets 2] [--workloads a,b]
                               [--seed-base 1000]

Runs ``perfbench/run.py`` (untraced) ``runs`` times per workload and
set, each run with its own seed, and applies the acceptance rules of
``BENCHMARK.json`` to every end-to-end metric:

* the spread of a set -- the distance between the first and third
  quartile (``statistics.quantiles(values, n=4)``) as a share of the
  median -- stays within the metric's bound;
* the median of each later set is no worse than the first set's by
  more than the bound.

Spreads above a third of the bound are flagged as wide.  Every run
must also report ``correct``.  Prints one line per workload and
metric, writes every run's result under ``.perfbench/check/``, and
exits 1 when a rule fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: A run must end within this many seconds.
RUN_TIMEOUT = 180


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse *later* is than *first*, as a share of *first*."""
    if not first:
        return 0.0 if later == first else float("inf")
    change = (later - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: "
                           f"{completed.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    out_dir = ROOT / ".perfbench" / "check"
    out_dir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, List[List[Dict]]] = {}
    for workload in workloads:
        results[workload] = []
        for index in range(args.sets):
            runs = []
            for run in range(args.runs):
                seed = args.seed_base + index * args.runs + run
                started = time.perf_counter()
                result = run_once(workload, seed, spec["run_seconds"])
                result["seed"] = seed
                result["run_s"] = time.perf_counter() - started
                runs.append(result)
                print(f"{workload} set {index} seed {seed}: "
                      f"{result['run_s']:.1f}s correct={result['correct']}",
                      file=sys.stderr, flush=True)
            results[workload].append(runs)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"check-{stamp}.json").write_text(
        json.dumps(results, indent=1))

    failures = 0
    for workload, sets in results.items():
        incorrect = sum(not r["correct"] for runs in sets for r in runs)
        if incorrect:
            failures += 1
            print(f"FAIL {workload}: {incorrect} incorrect runs")
        longest = max(r["run_s"] for runs in sets for r in runs)
        print(f"{workload}: longest run {longest:.1f}s")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs]
                       for runs in sets]
            spreads = [spread(values) for values in per_set]
            medians = [statistics.median(values) for values in per_set]
            drift = max((worse_by(medians[0], m, metric["better"])
                         for m in medians[1:]), default=0.0)
            status = "ok"
            if max(spreads) > bound:
                status = "FAIL spread"
            elif drift > bound:
                status = "FAIL drift"
            elif max(spreads) > bound / 3:
                status = "wide"
            failures += status.startswith("FAIL")
            print(f"  {status:12s} {name:18s} bound {bound:.2f} "
                  f"medians {' '.join(f'{m:.6g}' for m in medians)} "
                  f"spreads {' '.join(f'{s:.3f}' for s in spreads)} "
                  f"worse_by {drift:+.3f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
