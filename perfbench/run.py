"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload offline_long --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  Inputs are made from ``--seed`` before any timing
starts.  With ``--trace 0`` the run prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it alternates plain and traced
rounds and prints every per-layer metric.  The second-to-last line of
standard output is the run's provenance; the last line is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

A full record (provenance, every metric, per-round figures) is also
written under ``.perfbench/results/``.  The exit code is 0 when every
round's profiles equal the scalar reference and no operation failed,
1 when a profile is wrong or an operation failed, and 2 when the
checkout holds no program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: Workload name -> (module, function).
WORKLOADS = {
    "offline_long": ("perfbench.inproc", "offline_long"),
    "shard_fold": ("perfbench.inproc", "shard_fold"),
    "service_push": ("perfbench.service", "service_push"),
}

#: Per-round fields kept in the written record.
_ROUND_FIELDS = ("traced", "warmup", "setup_s", "setup_samples", "events",
                 "wall_s", "cpu_s", "peak_rss_mb", "digest", "attempted",
                 "failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        common.import_program()
    except FileNotFoundError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    module, function = WORKLOADS[args.workload]
    run = getattr(importlib.import_module(module), function)
    outcome = run(args.seed, args.seconds, bool(args.trace))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome["layers"] if args.trace else outcome["e2e"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": bool(outcome["correct"]),
              "attempted": int(outcome["attempted"]),
              "failed": int(outcome["failed"]), "metrics": metrics}
    provenance = {**common.provenance(args.seed), "workload": args.workload,
                  "seconds": args.seconds, "trace": args.trace,
                  **outcome["info"]}
    record = {**result, "provenance": provenance,
              "rounds": [{key: r[key] for key in _ROUND_FIELDS if key in r}
                         for r in outcome["rounds"]]}
    results_dir = common.OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"provenance": provenance}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
