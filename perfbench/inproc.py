"""The in-process workloads: ``offline_long`` and ``shard_fold``.

Both run in *rounds*.  A round builds fresh sessions (its set-up) and
feeds them the run's pre-generated inputs, so every round must yield
the same profile digest, and that digest must equal the scalar
reference.  Rounds repeat until the run's seconds are used.  In a
traced run, plain and traced rounds alternate: end-to-end figures come
from plain rounds only, per-layer figures from traced rounds, and the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List

import numpy as np

from . import common, tracing

#: LONG-point intervals in the ``offline_long`` trace.  Two intervals
#: make the profilers carry retained candidates across a boundary.
OFFLINE_INTERVALS = 2

#: Set-ups timed per round (the last one is used).  A set-up is
#: pure-Python hash-table drawing: about 2.5 ms for ``offline_long``
#: and 50-90 ms for ``shard_fold``, so a run times many of them.
OFFLINE_SETUPS = 16
FOLD_SETUPS = 2

#: Fold ticks per ``shard_fold`` round: four 2048-event intervals per
#: tenant at 128 events per tick.  Short rounds spread the run's
#: set-ups over its length.
FOLD_TICKS = 64


def _traced_layers(rounds: List[Dict[str, Any]],
                   records: Dict[str, Dict[str, Any]],
                   profilers: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics: means over traced rounds."""
    plain = common.plain_rounds(rounds)
    traced = [r for r in rounds if r["traced"]]
    plain_ns = np.mean([1e9 * r["wall_s"] / r["events"] for r in plain])
    traced_ns = np.mean([1e9 * r["wall_s"] / r["events"]
                         for r in traced])
    layers = tracing.layer_metrics([r["reduced"] for r in traced])
    layers["trace.overhead_pct"] = 100.0 * (traced_ns / plain_ns - 1.0)
    layers["metrics.profile_error_pct"] = \
        common.pooled_error_percent(records)
    layers.update(profilers)
    return layers


# -- offline_long ------------------------------------------------------


def offline_long(seed: int, seconds: float, trace: bool
                 ) -> Dict[str, Any]:
    """Best-SH and best-MH4 together over a recorded ``gcc`` trace at
    the LONG point (1M events at 0.1 %), backend ``vectorized``."""
    from repro.core.config import (LONG_INTERVAL, best_multi_hash,
                                   best_single_hash)
    from repro.core.tuples import EventKind
    from repro.profiling import session as session_module
    from repro.workloads.benchmarks import benchmark_generator
    from repro.workloads.scenarios import session_chunks
    from repro.workloads.traces import Trace

    configs = [best_single_hash(LONG_INTERVAL, backend="vectorized"),
               best_multi_hash(LONG_INTERVAL, backend="vectorized")]
    generator = benchmark_generator("gcc",
                                    seed=common.derive_seed(seed, 0))
    pieces = list(session_chunks(generator, LONG_INTERVAL.length,
                                 OFFLINE_INTERVALS))
    recording = Trace(pcs=np.concatenate([p for p, _ in pieces]),
                      values=np.concatenate([v for _, v in pieces]),
                      kind=EventKind.VALUE, source="gcc")
    del pieces
    last: Dict[str, Any] = {}
    spans = common.spans_dir("offline_long", seed) if trace else None
    round_numbers = itertools.count()

    def run_round(traced: bool) -> Dict[str, Any]:
        tracer = tracing.Tracer()
        if traced:
            tracing.install_in_process(tracer)
        else:
            # Plain rounds time each feed (one 64K-event chunk) only.
            tracer.wrap(session_module.SessionFeeder, "feed", "session",
                        "feed")
        try:
            session, setup = common.repeated_setup(
                lambda: session_module.ProfilingSession(
                    configs, keep_profiles=True), OFFLINE_SETUPS)
            cpu = time.process_time()
            start_ns = time.perf_counter_ns()
            result = session.run(recording)
            end_ns = time.perf_counter_ns()
            cpu = time.process_time() - cpu
        finally:
            tracer.uninstall()
        records = {name: common.record_from_result(r)
                   for name, r in result.results.items()}
        last["records"] = records
        last["profilers"] = session.profilers
        round_ = {"traced": traced, "setup_s": float(np.mean(setup)),
                  "setup_samples": setup,
                  "attempted": sum(span[tracing.NAME] == "feed"
                                   for span in tracer.spans),
                  "events": len(recording),
                  "wall_s": (end_ns - start_ns) / 1e9, "cpu_s": cpu,
                  "digest": common.digest(records)}
        if traced:
            tracer.dump(str(spans / f"round-{next(round_numbers)}.json"))
            round_["reduced"] = tracing.reduce_spans(
                tracer.groups, start_ns, end_ns, end_ns - start_ns)
        else:
            round_["latency_ms"] = [
                (s[tracing.END] - s[tracing.START]) / 1e6
                for s in tracer.spans]
        return round_

    rounds = common.run_rounds(seconds, trace, run_round, warmup=True)
    peak = common.peak_rss_mb_self()
    reference = common.digest(_offline_reference(configs, recording))
    outcome = common.summarize(rounds, reference, peak)
    outcome["info"].update({
        "backends": {config.label: config.resolved_backend
                     for config in configs},
        "interval": [LONG_INTERVAL.length, LONG_INTERVAL.threshold],
        "trace_events": len(recording),
        "chunk_events": session_module.CHUNK_EVENTS,
        "latency_op": "SessionFeeder.feed of one chunk"})
    if trace:
        outcome["layers"] = _traced_layers(
            rounds, last["records"], tracing.profiler_counts(last["profilers"]))
    return outcome


def _offline_reference(configs, recording) -> Dict[str, Dict[str, Any]]:
    from repro.profiling.session import ProfilingSession

    session = ProfilingSession([c.with_backend("scalar") for c in configs],
                               keep_profiles=True)
    result = session.run(recording)
    return {name: common.record_from_result(r)
            for name, r in result.results.items()}


# -- shard_fold --------------------------------------------------------


def shard_fold(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """64 tenants advanced one 128-event chunk per tick through one
    ``feed_many`` call with a shared ``BatchedKernelRunner``."""
    from repro.core.batched import BatchedKernelRunner
    from repro.profiling import session as session_module

    configs = common.tenant_configs("batched")
    inputs = common.tenant_inputs(seed, FOLD_TICKS)
    names = [f"tenant-{t:02d}" for t in range(common.TENANTS)]
    last: Dict[str, Any] = {}
    spans = common.spans_dir("shard_fold", seed) if trace else None
    round_numbers = itertools.count()

    def build():
        sessions = [session_module.ProfilingSession(
            config, keep_profiles=True) for config in configs]
        feeders = [session.feeder() for session in sessions]
        return sessions, feeders, BatchedKernelRunner()

    def run_round(traced: bool) -> Dict[str, Any]:
        tracer = tracing.Tracer()
        if traced:
            tracing.install_in_process(tracer)
        try:
            (sessions, feeders, runner), setup = common.repeated_setup(
                build, FOLD_SETUPS)
            ticks: List[float] = []
            cpu = time.process_time()
            start_ns = time.perf_counter_ns()
            for tick in range(FOLD_TICKS):
                items = [(feeder, *chunks[tick])
                         for feeder, chunks in zip(feeders, inputs)]
                tick_ns = time.perf_counter_ns()
                session_module.feed_many(items, runner)
                ticks.append((time.perf_counter_ns() - tick_ns) / 1e6)
            end_ns = time.perf_counter_ns()
            cpu = time.process_time() - cpu
        finally:
            tracer.uninstall()
        records = {name: common.record_from_result(
            feeder.snapshot().single())
            for name, feeder in zip(names, feeders)}
        last["records"] = records
        last["profilers"] = [p for session in sessions
                             for p in session.profilers]
        round_ = {"traced": traced, "setup_s": float(np.mean(setup)),
                  "setup_samples": setup,
                  "attempted": FOLD_TICKS,
                  "events": FOLD_TICKS * common.TENANTS
                  * common.CHUNK_EVENTS,
                  "wall_s": (end_ns - start_ns) / 1e9, "cpu_s": cpu,
                  "digest": common.digest(records)}
        if traced:
            tracer.dump(str(spans / f"round-{next(round_numbers)}.json"))
            round_["reduced"] = tracing.reduce_spans(
                tracer.groups, start_ns, end_ns, end_ns - start_ns)
        else:
            round_["latency_ms"] = ticks
        return round_

    rounds = common.run_rounds(seconds, trace, run_round, warmup=True)
    peak = common.peak_rss_mb_self()
    reference = common.digest(
        common.reference_records(configs, inputs, names))
    outcome = common.summarize(rounds, reference, peak)
    outcome["info"].update({
        "backends": sorted({c.resolved_backend for c in configs}),
        "tenants": common.TENANTS,
        "interval": list(common.TENANT_INTERVAL),
        "chunk_events": common.CHUNK_EVENTS,
        "ticks_per_round": FOLD_TICKS,
        "latency_op": "feed_many tick over every tenant"})
    if trace:
        outcome["layers"] = _traced_layers(
            rounds, last["records"], tracing.profiler_counts(last["profilers"]))
    return outcome
