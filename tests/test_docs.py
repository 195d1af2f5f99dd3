"""The hand-readable docs tables agree with the checked-in BENCH JSON."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = ("| workload | point | scalar | scalar-chunked | vectorized "
          "| vs scalar | vs chunked |")


def _table_rows(text, header):
    lines = text.splitlines()
    start = lines.index(header) + 2  # skip the alignment row
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("*").strip()
                     for cell in line.strip("|").split("|")])
    return rows


def _at_printed_precision(printed, value, suffix):
    assert printed.endswith(suffix), printed
    number = printed[:-len(suffix)].strip()
    decimals = len(number.partition(".")[2])
    return number == f"{value:.{decimals}f}"


def test_performance_throughput_table_matches_bench_kernels_json():
    text = (ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    bench = json.loads((ROOT / "benchmarks" / "results"
                        / "BENCH_kernels.json").read_text(encoding="utf-8"))
    rows = _table_rows(text, HEADER)
    workloads = bench["workloads"]
    assert len(rows) == len(workloads)
    for cells, workload in zip(rows, workloads):
        (name, point, scalar, chunked, vectorized,
         vs_scalar, vs_chunked) = cells
        assert name == f"{workload['figure']} {workload['architecture']}"
        length = workload["interval_length"]
        match = re.fullmatch(r"(\w+) \((\d+)×(\d+)K @ ([\d.]+)%\)", point)
        assert match, point
        assert match.group(1) == workload["point"]
        assert int(match.group(2)) * length == workload["events"]
        assert int(match.group(3)) * 1000 == length
        assert float(match.group(4)) == workload["threshold"] * 100
        expected = [
            (scalar, workload["rows"]["scalar"]["events_per_second"] / 1e6,
             "M ev/s"),
            (chunked, workload["rows"]["scalar-chunked"][
                "events_per_second"] / 1e6, "M ev/s"),
            (vectorized, workload["rows"]["vectorized"][
                "events_per_second"] / 1e6, "M ev/s"),
            (vs_scalar, workload["speedup_vs_scalar"], "×"),
            (vs_chunked, workload["speedup_vs_chunked"], "×"),
        ]
        for printed, value, suffix in expected:
            assert _at_printed_precision(printed, value, suffix), (
                f"{name} {point}: docs say {printed}, JSON gives "
                f"{value:.3f} {suffix}")
