"""Shared pieces of the benchmark: inputs, references, digests, usage.

Everything here runs outside the timed windows.  Inputs are made from
the run's ``--seed`` only, and each workload's profiles are checked
against a reference computed by the ``scalar`` backend -- the per-event
reading of the paper's hardware, an implementation path independent
of the NumPy kernels (``vectorized``) and of the segmented fold
(``batched``) that the timed windows run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Directory (under the checkout) for span files and per-run records.
#: Listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench"

#: Tenants of the multi-tenant workloads (``shard_fold`` and
#: ``service_push``).
TENANTS = 64

#: Events per tenant chunk: one service frame or one fold tick's share.
CHUNK_EVENTS = 128

#: Interval of the multi-tenant workloads: 2048 events at 1 %.
TENANT_INTERVAL = (2048, 0.01)

Chunks = List[Tuple[np.ndarray, np.ndarray]]


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import it.

    Raises :class:`FileNotFoundError` when the checkout holds no
    program, so a directory with only the benchmark fails loudly.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no program source under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fail here, not mid-run)


def spans_dir(workload: str, seed: int) -> Path:
    """A fresh directory for one traced run's span files."""
    path = OUT_DIR / "spans" / f"{workload}-seed{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def derive_seed(seed: int, *salt: int) -> int:
    """A 63-bit seed mixed from the run seed and *salt* values."""
    digest = hashlib.sha256(
        json.dumps([seed, *salt]).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# -- inputs ------------------------------------------------------------


def tenant_configs(backend: str):
    """Tenant profiler configs: BSH and MH4-C1 alternating."""
    from repro.core.config import (IntervalSpec, best_multi_hash,
                                   best_single_hash)

    interval = IntervalSpec(*TENANT_INTERVAL)
    return [best_single_hash(interval, backend=backend) if t % 2 == 0
            else best_multi_hash(interval, backend=backend)
            for t in range(TENANTS)]


def tenant_inputs(seed: int, chunks_per_tenant: int) -> List[Chunks]:
    """Per-tenant ``stress_test`` scenario streams, split into chunks.

    Each tenant's stream is the preset seeded from (*seed*, tenant);
    it is generated in one piece and sliced into
    :data:`CHUNK_EVENTS`-event views.
    """
    from repro.workloads.scenarios import ScenarioStream, load_scenario

    preset = load_scenario("stress_test")
    inputs = []
    for tenant in range(TENANTS):
        events = chunks_per_tenant * CHUNK_EVENTS
        stream = ScenarioStream(preset, seed=derive_seed(seed, tenant))
        pcs, values = stream.chunk(events)
        inputs.append([(pcs[a:a + CHUNK_EVENTS], values[a:a + CHUNK_EVENTS])
                       for a in range(0, events, CHUNK_EVENTS)])
    return inputs


# -- profile records and digests -----------------------------------------


def record_from_result(result) -> Dict[str, Any]:
    """Canonical record of one profiler's run (a ``ProfilerResult``).

    The same shape is built from a service snapshot by
    :func:`record_from_snapshot`, so in-process and served profiles
    compare directly.  ``keep_profiles`` must have been on.
    """
    summary = result.summary
    totals = {error.index: error.total for error in summary.intervals}
    return {
        "intervals": [
            [profile.index, profile.events_observed,
             100.0 * totals.get(profile.index, 0.0),
             _sorted_candidates([pc, value, count] for (pc, value), count
                                in profile.candidates.items())]
            for profile in result.profiles],
        "errors": [100.0 * value for value in summary.series()],
        "net_error_percent": summary.percent(),
        "breakdown_percent": summary.breakdown_percent(),
    }


def record_from_snapshot(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical record of one served stream's final snapshot."""
    summary = snapshot["summary"]
    return {
        "intervals": [
            [interval["index"], interval["events_observed"],
             interval["error_percent"],
             _sorted_candidates(interval["candidates"])]
            for interval in snapshot["intervals"]],
        "errors": list(summary["per_interval_error_percent"]),
        "net_error_percent": summary["net_error_percent"],
        "breakdown_percent": summary["breakdown_percent"],
    }


def _sorted_candidates(triples: Iterable[Sequence[int]]) -> List[List[int]]:
    return sorted(([int(pc), int(value), int(count)]
                   for pc, value, count in triples),
                  key=lambda t: (-t[2], t[0], t[1]))


def digest(records: Dict[str, Dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of every record."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pooled_error_percent(records: Dict[str, Dict[str, Any]]) -> float:
    """The paper's net error E over every record's intervals, in %."""
    errors = [value for record in records.values()
              for value in record["errors"]]
    return float(np.mean(errors)) if errors else 0.0


def reference_records(configs, inputs: Sequence[Chunks],
                      names: Sequence[str], flush: bool = False
                      ) -> Dict[str, Dict[str, Any]]:
    """Scalar-backend records: one session per (config, chunks) pair.

    Each tenant's chunks are fed as one batch; the feeder's
    split-invariance makes that equal to any chunking of the events.
    """
    from repro.profiling.session import ProfilingSession

    records = {}
    for name, config, chunks in zip(names, configs, inputs):
        session = ProfilingSession(config.with_backend("scalar"),
                                   keep_profiles=True)
        feeder = session.feeder()
        feeder.feed(np.concatenate([pcs for pcs, _ in chunks]),
                    np.concatenate([values for _, values in chunks]))
        if flush:
            feeder.flush()
        records[name] = record_from_result(feeder.snapshot().single())
    return records


# -- measurement helpers -------------------------------------------------


def percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 (linear interpolation) with the sample count."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "samples": 0}
    p50, p95, p99 = np.percentile(np.asarray(samples, dtype=np.float64),
                                  [50, 95, 99])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99),
            "samples": len(samples)}


def median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_usage(pid: int) -> Dict[str, float]:
    """CPU seconds (user + system) and peak RSS (MiB) of one process."""
    ticks = os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th fields of the whole line.
        fields = handle.read().rsplit(b")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / ticks
    peak_kb = 0
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
                break
    return {"cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0}


def provenance(seed: int) -> Dict[str, Any]:
    """What produced a result: code identity, versions and host."""
    sha = None  # checkouts without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode("utf-8"))
        source.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# -- rounds ------------------------------------------------------------


def repeated_setup(build: Callable[[], Any], repeats: int
                   ) -> Tuple[Any, List[float]]:
    """Call *build* *repeats* times, timing each call.

    Returns the last build and every call's seconds.  The previous
    build is released before the next call is timed.
    """
    built, samples = None, []
    for _ in range(repeats):
        built = None
        started = time.perf_counter()
        built = build()
        samples.append(time.perf_counter() - started)
    return built, samples



def run_rounds(seconds: float, trace: bool,
               run_round: Callable[[bool], Dict[str, Any]],
               warmup: bool = False) -> List[Dict[str, Any]]:
    """Run rounds until *seconds* have passed (at least one of each
    kind); traced runs alternate plain and traced rounds.

    With *warmup*, one plain round runs first, before the clock: its
    profiles are checked like any other, but its timings are left out,
    so first-touch costs of the process (allocator growth, page faults
    on fresh memory) do not depend on how many rounds fit.
    """
    rounds: List[Dict[str, Any]] = []
    if warmup:
        gc.collect()
        rounds.append({**run_round(False), "warmup": True})
    started = time.perf_counter()
    while True:
        timed = [r for r in rounds if not r.get("warmup")]
        traced = trace and len(timed) % 2 == 1
        # Start each round with no garbage left by the previous one, so
        # its collection does not land in this round's set-up or window.
        gc.collect()
        rounds.append(run_round(traced))
        kinds = {r["traced"] for r in rounds if not r.get("warmup")}
        enough = kinds == ({False, True} if trace else {False})
        if enough and time.perf_counter() - started >= seconds:
            return rounds


def plain_rounds(rounds: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The untraced rounds after any warm-up: the timed ones."""
    return [r for r in rounds if not r["traced"] and not r.get("warmup")]


def summarize(rounds: List[Dict[str, Any]], reference: str,
              peak_rss_mb: float) -> Dict[str, Any]:
    """The outcome of a run: correctness, operation counts (summed
    over every round) and end-to-end metrics.

    Throughput and CPU cost are totals over the plain rounds and the
    latency percentiles pool their operations (``latency_ms``), so a
    run that spans slow and fast spells of a shared host reports their
    mix.  Set-up time is the mean of every set-up the run timed
    (``setup_samples``, else the round's ``setup_s``), for the same
    reason: on such a host single set-ups fall into two clusters, one
    per spell, and a median jumps from one to the other as the mix of
    spells in a run changes, where a mean moves with it.
    """
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r.get("failed", 0) for r in rounds)
    plain = plain_rounds(rounds)
    events = sum(r["events"] for r in plain)
    latency = percentiles([v for r in plain for v in r["latency_ms"]])
    setups = [v for r in rounds
              for v in r.get("setup_samples", [r["setup_s"]])]
    bad = [i for i, r in enumerate(rounds) if r["digest"] != reference]
    e2e = {
        "setup_s": float(np.mean(setups)),
        "events_per_s": events / sum(r["wall_s"] for r in plain),
        "cpu_us_per_event": 1e6 * sum(r["cpu_s"] for r in plain) / events,
        "latency_p50_ms": latency["p50"],
        "latency_p99_ms": latency["p99"],
        "peak_rss_mb": peak_rss_mb,
        "success_pct": 100.0 * (attempted - failed) / attempted,
    }
    return {"correct": not bad and not failed, "attempted": attempted,
            "failed": failed,
            "e2e": e2e, "rounds": rounds,
            "info": {"latency_samples": latency["samples"],
                     "setup_samples": len(setups),
                     "latency_p95_ms": latency["p95"],
                     "rounds": len(rounds),
                     "plain_rounds": len(plain),
                     "reference_digest": reference,
                     "mismatched_rounds": bad}}
