"""Spans around the program's public entry points, and their reduction.

A :class:`Tracer` replaces chosen functions and methods with wrappers
that record one span per call: name, layer, start and end
(``perf_counter_ns``, which reads the system-wide monotonic clock, so
spans from the load, server and shard processes share one time base),
the parent span on the same thread, a request id, and a few counts the
wrapper reads from the call's arguments or result.  The program itself
is not edited: wrappers are installed from these files, and in the
server process before :class:`~repro.service.server.ProfileServer`
starts, so forked shards inherit them.

Spans stay in memory and are written out when the process finishes.
:func:`reduce_spans` turns them into per-layer self times: a span's
self time is its duration minus that of its direct children.  A span
with ``layer=None`` is a *request root* (a client call): its duration
is the request's round trip and counts towards the wall time, and what
no traced layer covers within it is reported as unattributed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Layers in the order results list them.
LAYERS = ("client", "server", "worker", "session", "batched", "kernels",
          "metrics", "profiler")

# Span fields (spans are lists, to keep recording cheap).
NAME, LAYER, START, END, PARENT, RID, NOTE = range(7)


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers.

    Each thread records into its own span list (one of :attr:`groups`),
    so a span's parent index always refers to the same list.
    """

    def __init__(self) -> None:
        self.groups: List[List[list]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def reset(self) -> None:
        """Drop recorded spans and counters (keeps the wrappers)."""
        self.groups = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def spans(self) -> List[list]:
        """Every recorded span, thread by thread."""
        return [span for group in self.groups for span in group]

    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self.groups.append(spans)
        return spans, local.stack

    def wrap(self, owner: Any, attr: str, layer: Optional[str],
             name: str,
             rid: Optional[Callable[..., Any]] = None,
             before: Optional[Callable[..., Any]] = None,
             note: Optional[Callable[..., Any]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *rid(args, result)* gives the span's request id once the call
        returns; *before(args)* reads state ahead of the call, and
        *note(args, kwargs, result, state)* turns the call into the
        span's counts.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer._thread_state()
            span = [name, layer, 0, 0, stack[-1] if stack else -1,
                    None, None]
            state = before(args) if before else None
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if rid is not None:
                span[RID] = rid(args, result)
            if note is not None:
                span[NOTE] = note(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (atomic rename)."""
        payload = {"pid": os.getpid(), "groups": self.groups,
                   "counters": dict(self.counters)}
        temp = f"{path}.tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(temp, path)


# -- wrapper sets ------------------------------------------------------


def _dispatch_before(args):
    runner = args[0]
    return (runner.dispatches, runner.requests)


def _dispatch_note(args, kwargs, result, state):
    runner = args[0]
    return {"chains": runner.dispatches - state[0],
            "requests": runner.requests - state[1],
            "events": sum(len(request[1]) for request in args[1])}


def _closed_note(args, kwargs, result, state):
    closed = sum(result) if isinstance(result, list) else result
    return {"closed": closed}


def _kernel_note(args, kwargs, result, state):
    return {"events": len(args[1])}


def profiler_counts(profilers, counts: Optional[Dict[str, float]] = None
                    ) -> Dict[str, float]:
    """Add the profilers' ``ProfilerStats`` into *counts*, by name."""
    counts = {} if counts is None else counts
    for profiler in profilers:
        for key, value in profiler.stats.as_dict().items():
            name = f"profiler.{key}"
            counts[name] = counts.get(name, 0) + value
    return counts


def install_compute(tracer: Tracer) -> None:
    """Wrap the session, fold, kernel, metric and profiler layers."""
    from repro.core import kernels
    from repro.core.base import HardwareProfiler
    from repro.core.batched import BatchedKernelRunner
    from repro.profiling import session

    tracer.wrap(BatchedKernelRunner, "dispatch", "batched", "dispatch",
                before=_dispatch_before, note=_dispatch_note)
    for cls in (kernels.VectorizedSingleHashProfiler,
                kernels.VectorizedMultiHashProfiler):
        tracer.wrap(cls, "observe_array_chunk", "kernels",
                    "observe_array_chunk", note=_kernel_note)
    tracer.wrap(session, "interval_error", "metrics", "interval_error")
    tracer.wrap(HardwareProfiler, "end_interval", "profiler",
                "end_interval")


def install_in_process(tracer: Tracer) -> None:
    """Wrappers for the in-process workloads (session entry points)."""
    from repro.profiling import session

    install_compute(tracer)
    tracer.wrap(session.SessionFeeder, "feed", "session", "feed",
                note=_closed_note)
    tracer.wrap(session, "feed_many", "session", "feed_many",
                note=_closed_note)


def install_server(tracer: Tracer, shard_dump: Callable[[Tracer], None]
                   ) -> None:
    """Wrappers for the server process and (by fork) its shards.

    *shard_dump* runs in each shard when its worker loop returns,
    which is where that shard's spans are written out.
    """
    from repro.service import protocol, server, worker

    install_compute(tracer)
    ordinals: Dict[str, int] = defaultdict(int)

    def parse_rid(args, result):
        stream = result[0]
        ordinals[stream] += 1
        return [stream, ordinals[stream]]

    tracer.wrap(protocol, "parse_batch_header", "server",
                "parse_batch_header", rid=parse_rid)
    tracer.wrap(worker, "feed_many", "session", "feed_many",
                note=_closed_note)

    def snapshot_note(args, kwargs, result, state):
        # A stream's final snapshot carries its profilers' counts.
        if kwargs.get("final"):
            profiler_counts(args[0].session.profilers, tracer.counters)

    tracer.wrap(worker, "snapshot_dict", "worker", "snapshot_dict",
                rid=lambda args, result: [result["stream"], "snapshot"],
                note=snapshot_note)

    original_main = server.worker_main

    def worker_main(*args):
        tracer.reset()  # spans recorded before the fork are the parent's
        try:
            original_main(*args)
        finally:
            shard_dump(tracer)

    server.worker_main = worker_main
    tracer._patches.append((server, "worker_main", original_main))


def install_client(tracer: Tracer) -> None:
    """Wrappers for the load process: push request roots and encode."""
    from repro.service import protocol
    from repro.service.client import ProfileClient

    ordinals: Dict[str, int] = defaultdict(int)

    def push_rid(args, result):
        stream = args[1]
        ordinals[stream] += 1
        return [stream, ordinals[stream]]

    tracer.wrap(ProfileClient, "push_chunks", None, "push", rid=push_rid)
    tracer.wrap(protocol, "encode_batch_chunks", "client", "encode",
                note=lambda args, kwargs, result, state:
                {"bytes": len(result)})


# -- reduction ---------------------------------------------------------


def load_dump(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def reduce_spans(groups: Iterable[List[list]], start_ns: int,
                 end_ns: int, wall_ns: Optional[int] = None
                 ) -> Dict[str, Any]:
    """Per-layer self times and per-name totals of spans in a window.

    *groups* holds one span list per recording thread.  A span belongs to the
    window when it starts in ``[start_ns, end_ns]``.  The wall time is
    *wall_ns* when given (an in-process window), else the summed
    duration of the request roots.  By construction the layers' self
    times plus ``unattributed`` equal the wall time.
    """
    self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
    by_name: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    request_ns = 0
    for spans in groups:
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(spans):
            if not start_ns <= span[START] <= end_ns:
                continue
            duration = span[END] - span[START]
            if span[LAYER] is None:
                request_ns += duration
            else:
                self_ns[span[LAYER]] += duration - child_ns[index]
            totals = by_name[span[NAME]]
            totals["calls"] += 1
            totals["ns"] += duration
            for key, value in (span[NOTE] or {}).items():
                totals[key] += value
    wall = request_ns if wall_ns is None else wall_ns
    attributed = sum(self_ns.values())
    return {"wall_ns": wall, "self_ns": self_ns,
            "unattributed_ns": wall - attributed,
            "by_name": {name: dict(totals)
                        for name, totals in by_name.items()}}


def layer_metrics(reductions: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics from span reductions (means per round)."""
    count = len(reductions)

    def total(name: str, key: str) -> float:
        return sum(r["by_name"].get(name, {}).get(key, 0.0)
                   for r in reductions) / count

    def self_ms(layer: str) -> float:
        return sum(r["self_ns"][layer] for r in reductions) / count / 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    feed_ns = total("feed", "ns") + total("feed_many", "ns")
    kernel_calls = total("observe_array_chunk", "calls")
    kernel_events = total("observe_array_chunk", "events")
    chains = total("dispatch", "chains")
    out = {
        "trace.wall_ms": sum(r["wall_ns"] for r in reductions)
        / count / 1e6,
        "trace.unattributed_ms": sum(r["unattributed_ns"]
                                     for r in reductions) / count / 1e6,
        "session.feed_ms": feed_ns / 1e6,
        "session.intervals_closed": total("feed", "closed")
        + total("feed_many", "closed"),
        "metrics.score_calls": total("interval_error", "calls"),
        "metrics.score_ms": total("interval_error", "ns") / 1e6,
        "batched.dispatches": chains,
        "batched.dispatch_ms": total("dispatch", "ns") / 1e6,
        "batched.requests_per_dispatch": ratio(
            total("dispatch", "requests"), chains),
        "batched.ns_per_event": ratio(total("dispatch", "ns"),
                                      total("dispatch", "events")),
        "kernels.calls": kernel_calls,
        "kernels.observe_ms": total("observe_array_chunk", "ns") / 1e6,
        "kernels.events_per_call": ratio(kernel_events, kernel_calls),
        "kernels.ns_per_event": ratio(
            total("observe_array_chunk", "ns"), kernel_events),
        "client.frames": total("encode", "calls"),
        "client.bytes_sent": total("encode", "bytes"),
        "client.encode_us_per_frame": ratio(
            total("encode", "ns") / 1e3, total("encode", "calls")),
        "server.parse_us_per_frame": ratio(
            total("parse_batch_header", "ns") / 1e3,
            total("parse_batch_header", "calls")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms(layer)
    return out
