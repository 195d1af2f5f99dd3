"""The repository's benchmark: four workloads, end-to-end and per-layer
metrics, and a span tracer that wraps the program from outside.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``run.py`` and ``BENCHMARK.json``.
"""
