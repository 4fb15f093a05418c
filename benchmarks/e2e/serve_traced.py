"""Child entry point of the traced run: the rule server with spans on.

``python serve_traced.py TRACE_OUT <repro.tools.serve arguments>`` installs
the benchmark's tracer over the engine layers, then runs the unmodified
``repro.tools.serve.main``.  On SIGUSR1 it writes the spans and the engine's
own counters to ``TRACE_OUT`` and keeps serving, so the runner can read the
trace and then SIGKILL the process for the crash check.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from dataclasses import asdict
from typing import Any


def main(argv: list[str]) -> int:
    trace_out, serve_args = argv[0], argv[1:]

    import app
    from repro.obs.metrics import metrics
    from repro.server.server import RuleServer
    from repro.tools import serve

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.wrap(app.Item, "restock", "method.restock")

    # serve.main owns the Sentinel; catch the server it builds to reach it.
    servers: list[Any] = []
    init = RuleServer.__init__

    def remembering_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        servers.append(self)

    RuleServer.__init__ = remembering_init  # type: ignore[method-assign]

    def write_trace(_signum: int, _frame: Any) -> None:
        payload = tracer.dump()
        payload["metrics"] = metrics.snapshot()
        if servers:
            sentinel, db = servers[-1].sentinel, servers[-1].db
            scheduler = asdict(sentinel.scheduler.stats)
            scheduler["errors"] = [repr(e) for e in scheduler["errors"]]
            payload["scheduler"] = scheduler
            pool = sentinel.scheduler.worker_pool
            payload["pool"] = pool.stats() if pool is not None else {}
            payload["versions"] = db.versions.stats()
            payload["txn"] = {
                "committed": db.txn_manager.committed,
                "aborted": db.txn_manager.aborted,
            }
        with open(trace_out + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(trace_out + ".tmp", trace_out)

    signal.signal(signal.SIGUSR1, write_trace)
    return serve.main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
