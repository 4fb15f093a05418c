"""Span tracer for the benchmark's traced run.

Lives in the benchmark only: it wraps the engine layers' functions at class
level (``install``), records a span per call with a thread-local stack, and
aggregates per request.  Nothing in ``src/`` knows about it, and the
end-to-end numbers are measured without it.

A span has a name, a start, an end and a parent (the frame below it on its
thread's stack); spans of one request share a sequence number.  A layer's
*self time* is its span's duration minus the time its child spans cover.
Every request's spans fold into ``stages[kind][name] = [calls, self_ns,
total_ns, errors]`` when its root span closes, where ``kind`` is what the
root span served (``invoke``, ``get``, ``query``, ``job``, ``txn``).  One
request in ``RAW_EVERY`` also keeps its raw spans, for reading a single
request's tree.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

#: Keep the raw spans of one request in this many.
RAW_EVERY = 64
#: Raw spans kept per sampled request (a range query opens thousands).
RAW_SPAN_CAP = 400
#: Sampled requests kept in total.
RAW_REQUEST_CAP = 500

_INHERITED = object()


class _ThreadState:
    __slots__ = ("stack", "seq", "kind", "agg", "raw")

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []
        self.seq = 0
        self.kind: str | None = None
        self.agg: dict[str, list[int]] = {}
        self.raw: list[tuple[int, str, int, int, int]] | None = None


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._patched: list[tuple[type, str, Any]] = []
        #: kind -> span name -> [calls, self_ns, total_ns, errors]
        self.stages: dict[str, dict[str, list[int]]] = {}
        #: kind -> root span durations (ns), one per request
        self.roots: dict[str, list[int]] = {}
        #: span name -> every duration (ns), for names in ``keep``
        self.samples: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.spans: list[list[tuple[int, str, int, int, int]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def enter(self, name: str) -> tuple[_ThreadState, list[Any]]:
        state = self._state()
        stack = state.stack
        if not stack:
            state.seq = next(self._seq)
            state.kind = None
            state.agg = {}
            state.raw = [] if state.seq % RAW_EVERY == 0 else None
        # [name, start_ns, child_ns, index of this span in state.raw]
        frame = [name, 0, 0, -1]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        return state, frame

    def exit(
        self,
        state: _ThreadState,
        frame: list[Any],
        failed: bool = False,
        end: int = 0,
    ) -> int:
        """Close ``frame``; ``end`` back-dates the close to an earlier instant."""
        end = end or perf_counter_ns()
        stack = state.stack
        stack.pop()
        name = frame[0]
        duration = end - frame[1]
        record = state.agg.get(name)
        if record is None:
            record = state.agg[name] = [0, 0, 0, 0]
        record[0] += 1
        record[1] += duration - frame[2]
        record[2] += duration
        if failed:
            record[3] += 1
        raw = state.raw
        if raw is not None and len(raw) < RAW_SPAN_CAP:
            parent = stack[-1][3] if stack else -1
            frame[3] = len(raw)
            raw.append((state.seq, name, frame[1], end, parent))
        if stack:
            stack[-1][2] += duration
        else:
            self._close_request(state, name, duration)
        return duration

    def _close_request(self, state: _ThreadState, root: str, duration: int) -> None:
        kind = state.kind or root
        with self._lock:
            stage = self.stages.setdefault(kind, {})
            for name, (calls, self_ns, total_ns, errors) in state.agg.items():
                record = stage.get(name)
                if record is None:
                    stage[name] = [calls, self_ns, total_ns, errors]
                else:
                    record[0] += calls
                    record[1] += self_ns
                    record[2] += total_ns
                    record[3] += errors
            self.roots.setdefault(kind, []).append(duration)
            if state.raw and len(self.spans) < RAW_REQUEST_CAP:
                self.spans.append(state.raw)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            with self._lock:
                if value > self.maxima.get(name, 0):
                    self.maxima[name] = value

    def span(self, name: str, kind: str | None = None) -> "_Span":
        """``with tracer.span(name):`` — a span opened by benchmark code."""
        return _Span(self, name, kind)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: type,
        attribute: str,
        name: str,
        *,
        keep: bool = False,
        after: "Callable[[Tracer, tuple, Any], None] | None" = None,
    ) -> None:
        """Replace ``owner.attribute`` by a version that records a span.

        ``keep`` stores every duration (for percentiles); ``after`` sees the
        positional arguments and the result once the span has closed, and is
        where counts are taken at the same boundary as the time.
        """
        original = owner.__dict__[attribute]
        tracer = self
        samples = self.samples.setdefault(name, []) if keep else None

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state, frame = tracer.enter(name)
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = False
            finally:
                duration = tracer.exit(state, frame, failed)
                if samples is not None:
                    samples.append(duration)
            if after is not None:
                after(tracer, args, result)
            return result

        self.patch(owner, attribute, traced)

    def patch(self, owner: type, attribute: str, replacement: Any) -> None:
        """Set ``owner.attribute``, remembering the original for ``uninstall``."""
        self._patched.append(
            (owner, attribute, owner.__dict__.get(attribute, _INHERITED))
        )
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self) -> dict[str, Any]:
        with self._lock:
            return {
                "stages": {k: dict(v) for k, v in self.stages.items()},
                "roots": {k: list(v) for k, v in self.roots.items()},
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counters": dict(self.counters),
                "maxima": dict(self.maxima),
                "spans": list(self.spans),
                "span_cost_us": span_cost_us(),
            }


def span_cost_us(calls: int = 20000) -> float:
    """Cost of one empty span: a wrapped no-op minus the bare no-op."""

    class Probe:
        def bare(self) -> None:
            pass

        def wrapped(self) -> None:
            pass

    scratch = Tracer()
    scratch.wrap(Probe, "wrapped", "probe")
    probe = Probe()
    costs = []
    for _ in range(5):
        with scratch.span("calibrate"):
            start = perf_counter()
            for _ in range(calls):
                probe.wrapped()
            wrapped = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            probe.bare()
        costs.append((wrapped - (perf_counter() - start)) / calls * 1e6)
    return sorted(costs)[len(costs) // 2]


class _Span:
    __slots__ = ("_tracer", "_name", "_kind", "_state", "_frame")

    def __init__(self, tracer: Tracer, name: str, kind: str | None) -> None:
        self._tracer = tracer
        self._name = name
        self._kind = kind

    def __enter__(self) -> "_Span":
        self._state, self._frame = self._tracer.enter(self._name)
        if self._kind is not None:
            self._state.kind = self._kind
        return self

    def __exit__(self, exc_type: Any, *_: Any) -> None:
        self._tracer.exit(self._state, self._frame, exc_type is not None)


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the engine's layer boundaries (class level, process-wide)."""
    from http.server import ThreadingHTTPServer
    from urllib.parse import urlsplit

    from repro.core.events.base import Event
    from repro.core.events.detector import EventDetector
    from repro.core.events.operators import Operator
    from repro.core.reactive import Reactive
    from repro.core.rules import Rule
    from repro.core.scheduler import RuleScheduler
    from repro.core.workers import RuleWorkerPool
    from repro.oodb.buffer import BufferPool
    from repro.oodb.database import Database, Snapshot
    from repro.oodb.locks import LockManager
    from repro.oodb.query import Query
    from repro.oodb.serializer import Serializer
    from repro.oodb.storage.heap import HeapFile
    from repro.oodb.storage.wal import WriteAheadLog
    from repro.oodb.transactions import TransactionManager
    from repro.oodb.versions import VersionStore
    from repro.server.server import RuleServer

    wrap = tracer.wrap

    # server: one root span per HTTP request, named by its route.  The span
    # ends when the handler starts writing the reply body: what follows (the
    # send, and the wait to get the GIL back once the client's next request
    # is already running) is not on the client's path to this reply.
    dispatch = RuleServer._dispatch

    def traced_dispatch(self: Any, handler: Any, method: str) -> None:
        state, frame = tracer.enter("server.dispatch")
        route = urlsplit(handler.path).path.lstrip("/")
        state.kind = "get" if route == "object" else route or "root"
        writer = handler.wfile
        handler.wfile = timed = _TimedWriter(writer)
        try:
            dispatch(self, handler, method)
        finally:
            handler.wfile = writer
            tracer.exit(state, frame, end=timed.last_write_ns)

    tracer.patch(RuleServer, "_dispatch", traced_dispatch)
    process_request = ThreadingHTTPServer.process_request

    def counted_process_request(self: Any, request: Any, address: Any) -> None:
        tracer.count("server.connects")
        process_request(self, request, address)

    tracer.patch(ThreadingHTTPServer, "process_request", counted_process_request)

    # oodb.transactions / oodb.database
    wrap(Database, "run_transaction", "txn.run")
    wrap(TransactionManager, "commit", "txn.commit")
    wrap(TransactionManager, "rollback", "txn.rollback")
    wrap(Database, "fetch", "db.fetch")
    wrap(
        Database,
        "fetch_many",
        "db.fetch_many",
        after=lambda t, args, _objects: t.count("db.fetch_many_oids", len(args[1])),
    )
    wrap(Snapshot, "fetch_or_none", "db.snapshot_fetch")
    _wrap_snapshot(tracer, Database)

    # oodb.locks
    wrap(LockManager, "acquire", "locks.acquire", keep=True)
    wrap(LockManager, "release_all", "locks.release_all")

    # oodb.storage.wal
    wrap(WriteAheadLog, "log_transaction", "wal.log_transaction")
    wrap(WriteAheadLog, "flush", "wal.flush")

    # oodb.serializer / codec, heap, buffer
    wrap(Serializer, "record_from_payload", "codec.decode")
    wrap(HeapFile, "read", "heap.read")
    wrap(HeapFile, "read_many", "heap.read_many")
    wrap(BufferPool, "get", "buffer.get")

    # oodb.query
    wrap(Query, "all", "query.all")
    wrap(Query, "count", "query.count")

    # oodb.versions
    wrap(Snapshot, "record", "versions.record")
    resolve = VersionStore.resolve

    def counted_resolve(self: Any, oid: Any, ts: int) -> Any:
        result = resolve(self, oid, ts)
        if result[0]:
            tracer.count("versions.preimage_hits")
        return result

    tracer.patch(VersionStore, "resolve", counted_resolve)
    publish = VersionStore.publish

    def measured_publish(self: Any, commit_ts: int, pre_images: Any) -> None:
        publish(self, commit_ts, pre_images)
        tracer.note_max("versions.entries_max", len(self._versions))

    tracer.patch(VersionStore, "publish", measured_publish)

    # core.reactive / core.events
    wrap(Reactive, "raise_event", "reactive.raise_event")
    wrap(Reactive, "notify_consumers", "reactive.notify")
    wrap(Event, "notify", "events.notify")
    wrap(EventDetector, "feed", "events.detector_feed")

    wrap(Operator, "on_event", "events.composite")
    signal = Operator.signal  # inherited from Event: shadowed on Operator only

    def counted_signal(self: Any, occurrence: Any) -> None:
        tracer.count("events.composite_signals")
        signal(self, occurrence)

    tracer.patch(Operator, "signal", counted_signal)

    # core.scheduler / core.rules
    wrap(RuleScheduler, "schedule", "scheduler.schedule")
    wrap(RuleScheduler, "flush_deferred", "scheduler.flush_deferred")

    def rejected(t: Tracer, _args: tuple, fired: Any) -> None:
        if fired is False:
            t.count("rules.condition_rejects")

    wrap(Rule, "fire", "rules.fire", after=rejected)

    # core.workers: the submit call, and the job it is handed
    submit = RuleWorkerPool.submit
    queue_waits = tracer.samples.setdefault("workers.queue_wait", [])

    def traced_submit(self: Any, job: Callable[[], None], label: str = "") -> bool:
        state, frame = tracer.enter("workers.submit")
        submitted_at = perf_counter_ns()

        def traced_job() -> None:
            waited = perf_counter_ns() - submitted_at
            with tracer.span("workers.job", kind="job"):
                queue_waits.append(waited)
                job()

        try:
            return submit(self, traced_job, label)
        finally:
            tracer.exit(state, frame)

    tracer.patch(RuleWorkerPool, "submit", traced_submit)


class _TimedWriter:
    """A handler's ``wfile`` that notes when its latest write began."""

    def __init__(self, writer: Any) -> None:
        self._writer = writer
        self.last_write_ns = 0

    def write(self, data: bytes) -> Any:
        self.last_write_ns = perf_counter_ns()
        return self._writer.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._writer, name)


def _wrap_snapshot(tracer: Tracer, database: type) -> None:
    """``with db.snapshot():`` as one span: opened by begin, closed by end."""
    begin = database.begin_snapshot
    end = database.end_snapshot

    def begin_snapshot(self: Any) -> Any:
        state, frame = tracer.enter("db.snapshot")
        try:
            return begin(self)
        except BaseException:
            tracer.exit(state, frame, True)
            raise

    def end_snapshot(self: Any, snap: Any) -> None:
        try:
            end(self, snap)
        finally:
            state = tracer._state()
            if state.stack and state.stack[-1][0] == "db.snapshot":
                tracer.exit(state, state.stack[-1])

    tracer.patch(database, "begin_snapshot", begin_snapshot)
    tracer.patch(database, "end_snapshot", end_snapshot)
