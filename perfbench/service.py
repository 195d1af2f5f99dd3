"""The service workload: ``service_push``.

The server runs in its own process (:mod:`perfbench.serve`); this
process is the load.  It uses one connection, and one thread, per CPU
up to two, and drives the server through the public
:class:`~repro.service.client.ProfileClient` API only.

A round starts a fresh server, opens the 64 tenant streams (together
the round's set-up), pushes every tenant's pre-generated chunks in a
round-robin order, then closes the streams and checks the final
snapshots against the scalar reference.  Rounds repeat until the run's
seconds are used.  The loop is closed: each connection sends its next
chunk when the previous reply arrives, and latency is the push round
trip.  A stream's first batch builds its hash fold tables, and all
tenants close their intervals on the same round; both costs stay in
the timed window.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from . import common, tracing

#: Chunks pushed per tenant in a round (two intervals).
PUSH_CHUNKS = 32

#: Seconds to wait for the server process to stop.
SERVER_TIMEOUT = 30.0


class _Server:
    """A server process and its command channel."""

    def __init__(self, trace_dir: Optional[str]) -> None:
        command = [sys.executable,
                   str(common.ROOT / "perfbench" / "serve.py")]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=common.ROOT)
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.process.kill()
            self.process.wait(SERVER_TIMEOUT)
            raise

    def _read(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server process exited early "
                               f"(code {self.process.poll()})")
        return json.loads(line)

    def usage(self) -> Dict[str, Any]:
        self.process.stdin.write("usage\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Drain and stop the server; kill it if it does not exit."""
        try:
            self.process.communicate("stop\n", timeout=SERVER_TIMEOUT)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.communicate()


class _Load:
    """One connection's share of the tenants and what it measured."""

    def __init__(self, client, tenants: List[int]) -> None:
        self.client = client
        self.tenants = tenants
        self.push_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.error: Optional[BaseException] = None


def _drive(load: _Load, names: List[str], inputs, chunks: int) -> None:
    """Push chunks 0 .. *chunks* - 1 of every tenant of *load*,
    round-robin, each op following the previous reply."""
    from repro.service import ServiceError
    from repro.service.protocol import ProtocolError

    client = load.client
    try:
        for k in range(chunks):
            for tenant in load.tenants:
                load.attempted += 1
                sent = time.perf_counter()
                try:
                    client.push_chunks(names[tenant], [inputs[tenant][k]])
                except ServiceError:
                    load.failed += 1
                    continue
                load.push_ms.append(1e3 * (time.perf_counter() - sent))
    except (OSError, ProtocolError) as error:  # connection lost
        load.error = error
        load.failed += 1


def _worker_totals(stats: Dict[str, Any]) -> Dict[str, float]:
    keys = ("ticks", "batches", "kernel_dispatches", "busy_seconds")
    totals = {key: float(sum(w.get(key, 0) for w in stats["workers"]))
              for key in keys}
    for key in ("frames", "busy_rejections", "protocol_errors",
                "slow_client_sheds"):
        totals[key] = float(stats["server"][key])
    return totals


def _run_round(seed_inputs, names: List[str], configs, chunks: int,
               trace_dir: Optional[str]) -> Dict[str, Any]:
    """One round; traced when *trace_dir* names where every process
    writes its spans."""
    from repro.service import ProfileClient

    traced = trace_dir is not None
    if traced:
        os.makedirs(trace_dir)
    connections = min(2, len(os.sched_getaffinity(0)))
    started = time.perf_counter()
    server = _Server(trace_dir)
    clients = []
    try:
        clients = [ProfileClient(port=server.port)
                   for _ in range(connections)]
        backends = set()
        for tenant, (name, config) in enumerate(zip(names, configs)):
            reply = clients[tenant % connections].open_stream(name, config)
            backends.add(reply["backend"])
        setup_s = time.perf_counter() - started
        usage_start = server.usage()
        stats_start = clients[0].server_stats()
        loads = [_Load(client, list(range(c, common.TENANTS,
                                          connections)))
                 for c, client in enumerate(clients)]
        tracer = tracing.Tracer()
        if traced:
            tracing.install_client(tracer)
        start_ns = time.perf_counter_ns()
        drives = [(load, names, seed_inputs, chunks) for load in loads]
        # This thread drives the first connection; one more thread per
        # further connection keeps the load within the CPU count.
        threads = [threading.Thread(target=_drive, args=args)
                   for args in drives[1:]]
        try:
            for thread in threads:
                thread.start()
            _drive(*drives[0])
            for thread in threads:
                thread.join()
        finally:
            end_ns = time.perf_counter_ns()
            tracer.uninstall()
        wall_s = (end_ns - start_ns) / 1e9
        usage_end = server.usage()
        stats_end = clients[0].server_stats()
        snapshots = {name: clients[t % connections].close_stream(name)
                     for t, name in enumerate(names)}
    finally:
        for client in clients:
            client.close()
        server.stop()
    before, after = _worker_totals(stats_start), _worker_totals(stats_end)
    delta = {key: after[key] - before[key] for key in after}
    records = {name: common.record_from_snapshot(snapshot)
               for name, snapshot in snapshots.items()}
    events = sum(len(load.push_ms) for load in loads) * common.CHUNK_EVENTS
    round_ = {
        "traced": traced, "setup_s": setup_s, "wall_s": wall_s,
        "events": events,
        "cpu_s": usage_end["cpu_s"] - usage_start["cpu_s"],
        "peak_rss_mb": usage_end["peak_rss_mb"],
        "digest": common.digest(records), "records": records,
        "backends": sorted(backends),
        "num_workers": stats_end["server"]["num_workers"],
        "data_plane": stats_end["server"]["data_plane"],
        "connections": connections,
        "stats": delta,
        "attempted": sum(load.attempted for load in loads),
        "failed": sum(load.failed for load in loads),
        "latency_ms": [v for load in loads for v in load.push_ms],
        "errors": [repr(load.error) for load in loads if load.error],
    }
    if traced:
        tracer.dump(os.path.join(trace_dir, f"load-{os.getpid()}.json"))
        groups: List[List[list]] = []
        counters: Dict[str, float] = {}
        for entry in sorted(os.listdir(trace_dir)):
            dump = tracing.load_dump(os.path.join(trace_dir, entry))
            groups.extend(dump["groups"])
            for key, value in dump["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        round_["reduced"] = tracing.reduce_spans(groups, start_ns, end_ns)
        round_["counters"] = counters
    return round_


def service_push(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Closed loop: 64 tenants over the connections, push only."""
    configs = common.tenant_configs("batched")
    inputs = common.tenant_inputs(seed, PUSH_CHUNKS)
    names = [f"tenant-{t:02d}" for t in range(common.TENANTS)]
    spans = common.spans_dir("service_push", seed) if trace else None
    round_numbers = itertools.count()
    rounds = common.run_rounds(seconds, trace, lambda traced: _run_round(
        inputs, names, configs, PUSH_CHUNKS,
        str(spans / f"round-{next(round_numbers)}") if traced else None))
    reference = common.digest(common.reference_records(
        configs, inputs, names, flush=True))
    plain = common.plain_rounds(rounds)
    traced_rounds = [r for r in rounds if r["traced"]]
    outcome = common.summarize(
        rounds, reference,
        common.median([r["peak_rss_mb"] for r in plain]))
    attempted, failed = outcome["attempted"], outcome["failed"]
    outcome["info"].update({
        "latency_op": "push round trip",
        "backends": rounds[0]["backends"],
        "data_plane": rounds[0]["data_plane"],
        "num_workers": rounds[0]["num_workers"],
        "connections": rounds[0]["connections"],
        "tenants": common.TENANTS,
        "interval": list(common.TENANT_INTERVAL),
        "chunk_events": common.CHUNK_EVENTS,
        "chunks_per_tenant": PUSH_CHUNKS,
        "errors": [e for r in rounds for e in r["errors"]]})
    if trace:
        layers = tracing.layer_metrics(
            [r["reduced"] for r in traced_rounds])
        stats = {key: np.mean([r["stats"][key] for r in traced_rounds])
                 for key in traced_rounds[0]["stats"]}
        busy_s = stats["busy_seconds"]
        wall_s = np.mean([r["wall_s"] for r in traced_rounds])
        push_plain = np.mean([v for r in plain for v in r["latency_ms"]])
        push_traced = np.mean([v for r in traced_rounds
                               for v in r["latency_ms"]])
        ratio = (lambda a, b: a / b if b else 0.0)
        layers.update({
            "trace.overhead_pct": 100.0 * (push_traced / push_plain - 1.0),
            "server.frames": stats["frames"],
            "server.busy_rejections": stats["busy_rejections"],
            "server.protocol_errors": stats["protocol_errors"],
            "server.slow_client_sheds": stats["slow_client_sheds"],
            "server.transport_ms_per_push":
                push_traced - ratio(1e3 * busy_s, stats["batches"]),
            "worker.ticks": stats["ticks"],
            "worker.ops_per_tick": ratio(stats["batches"], stats["ticks"]),
            "worker.dispatches_per_tick": ratio(
                stats["kernel_dispatches"], stats["ticks"]),
            "worker.busy_s": busy_s,
            "worker.busy_share": ratio(
                busy_s, wall_s * rounds[0]["num_workers"]),
            "metrics.profile_error_pct": common.pooled_error_percent(
                traced_rounds[-1]["records"]),
            "loadgen.failure_rate": failed / attempted,
        })
        layers.update(traced_rounds[-1]["counters"])
        outcome["layers"] = layers
    return outcome
