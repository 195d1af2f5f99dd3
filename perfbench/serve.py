"""Server process of the service workloads.

Runs one :class:`~repro.service.server.ProfileServer` with its default
shards and data plane, apart from the load process that drives it.
It prints one JSON line ``{"port": ...}`` once listening, then answers
commands read from standard input, one per line:

``usage``
    CPU seconds (user + system) and summed peak RSS of this process
    and its shard processes, as one JSON line.
``stop``
    Drain and stop the server, write spans if tracing, print
    ``{"stopped": true}`` and exit.

With ``--trace-dir`` the server-side wrappers of
:mod:`perfbench.tracing` are installed before the server starts, so
the forked shards inherit them; each process writes its spans into
that directory when it ends.

Usage: ``python3 perfbench/serve.py [--trace-dir DIR]``
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracing  # noqa: E402


def _reply(body) -> None:
    sys.stdout.write(json.dumps(body) + "\n")
    sys.stdout.flush()


def _usage() -> dict:
    pids = [os.getpid()] + [child.pid for child
                            in multiprocessing.active_children()]
    usages = [common.proc_usage(pid) for pid in pids]
    return {"cpu_s": sum(u["cpu_s"] for u in usages),
            "peak_rss_mb": sum(u["peak_rss_mb"] for u in usages),
            "processes": len(usages)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    common.import_program()
    from repro.service import ProfileServer

    # Shards must be forked for the wrappers to reach them; fork is the
    # default start method on Linux up to Python 3.13, and pinning it
    # keeps traced and plain servers alike on later versions.
    multiprocessing.set_start_method("fork", force=True)
    tracer = None
    if args.trace_dir:
        tracer = tracing.Tracer()
        tracing.install_server(tracer, lambda shard: shard.dump(
            os.path.join(args.trace_dir, f"shard-{os.getpid()}.json")))
    server = ProfileServer()
    server.start()
    try:
        _reply({"port": server.port})
        for line in sys.stdin:
            command = line.strip()
            if command == "usage":
                _reply(_usage())
            elif command == "stop":
                break
    finally:
        server.stop()
    if tracer is not None:
        tracer.dump(os.path.join(args.trace_dir,
                                 f"server-{os.getpid()}.json"))
    _reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
