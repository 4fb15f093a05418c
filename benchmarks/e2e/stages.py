"""From a trace to the per-layer metrics and the stage table.

Input is what ``tracer.Tracer.dump`` wrote (plus the engine's own counters,
see ``serve_traced.py``) and what the load generator saw on its side of the
wire.  ``*_us`` metrics are mean self time per call of the span they name,
unless their glossary entry in the README says otherwise; the stage table
divides the same self times by client operations instead, so its rows add up
to the client-observed mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from catalog import PER_LAYER
from harness import percentile

#: The span under which the engine does a request's work, per request kind.
ENGINE_ROOT = {
    "invoke": "txn.run",
    "get": "db.snapshot",
    "query": "db.snapshot",
    "txn": "client.txn",
}


@dataclass
class ClientSide:
    """What the load generator measured during the traced leg."""

    #: request kind -> (acknowledged operations, summed latency in seconds)
    kinds: dict[str, tuple[int, float]] = field(default_factory=dict)
    statuses: dict[int, int] = field(default_factory=dict)
    rows_returned: int = 0

    @property
    def operations(self) -> int:
        return sum(count for count, _ in self.kinds.values())


def _merged(trace: dict[str, Any]) -> dict[str, list[int]]:
    """Stage records summed over request kinds."""
    total: dict[str, list[int]] = {}
    for stage in trace["stages"].values():
        for name, record in stage.items():
            into = total.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(record):
                into[i] += value
    return total


def layer_metrics(
    trace: dict[str, Any], client: ClientSide, extra: dict[str, float]
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; ``extra`` holds those measured elsewhere."""
    spans = _merged(trace)
    engine = trace.get("metrics", {})
    scheduler = trace.get("scheduler", {})
    pool = trace.get("pool", {})
    counters = trace.get("counters", {})
    samples = trace.get("samples", {})

    def calls(*names: str) -> int:
        return sum(spans.get(name, [0])[0] for name in names)

    def self_us(*names: str) -> float:
        """Mean self time per call, over the named spans together."""
        count = calls(*names)
        return sum(spans[n][1] for n in names if n in spans) / count / 1e3 if count else 0.0

    def total_us(name: str) -> float:
        record = spans.get(name)
        return record[2] / record[0] / 1e3 if record and record[0] else 0.0

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def root_p50_us(kind: str) -> float:
        roots = sorted(trace["roots"].get(kind, ()))
        return percentile(roots, 0.5) / 1e3 if roots else 0.0

    def mean_us(name: str) -> float:
        values = samples.get(name)
        return sum(values) / len(values) / 1e3 if values else 0.0

    operations = client.operations
    client_seconds = sum(seconds for _, seconds in client.kinds.values())
    engine_ns = engine_self_ns = 0
    for kind, root in ENGINE_ROOT.items():
        record = trace["stages"].get(kind, {}).get(root)
        if record and kind in client.kinds:
            engine_ns += record[2]
            engine_self_ns += record[1]
    acquires = sorted(samples.get("locks.acquire", ()))
    statuses = client.statuses
    query_stage = trace["stages"].get("query", {})
    fetched_rows = query_stage.get("db.snapshot_fetch", [0])[0] + counters.get(
        "db.fetch_many_oids", 0
    )
    cache_hits = engine.get("pipeline.consumer_cache_hits", 0)
    cache_total = cache_hits + engine.get("pipeline.consumer_cache_misses", 0)
    commits = engine.get("pipeline.group_commits", 0)
    txn = trace.get("txn", {})

    values = {
        "server.requests": engine.get("server_requests", 0),
        "server.connects_per_request": ratio(
            counters.get("server.connects", 0), engine.get("server_requests", 0)
        ),
        "server.http_overhead_us": (
            ratio(client_seconds * 1e6 - engine_ns / 1e3, operations)
            if "server.dispatch" in spans
            else 0.0
        ),
        "server.invoke_p50_us": root_p50_us("invoke"),
        "server.get_p50_us": root_p50_us("get"),
        "server.query_p50_us": root_p50_us("query"),
        "server.status_4xx": sum(n for s, n in statuses.items() if 400 <= s < 500),
        "server.status_409": statuses.get(409, 0),
        "server.status_5xx": sum(n for s, n in statuses.items() if s >= 500),
        "txn.count": txn.get("committed", 0) + txn.get("aborted", 0),
        "txn.run_us": self_us("txn.run"),
        "txn.commit_us": self_us("txn.commit"),
        "txn.retries": engine.get("txn_retries", 0),
        "txn.aborts": txn.get("aborted", 0),
        "locks.acquires": calls("locks.acquire"),
        "locks.acquire_us": self_us("locks.acquire"),
        "locks.acquire_p99_us": percentile(acquires, 0.99) / 1e3 if acquires else 0.0,
        "locks.release_us": self_us("locks.release_all"),
        "locks.deadlock_retries": spans.get("locks.acquire", [0, 0, 0, 0])[3],
        "wal.commits": commits,
        "wal.log_transaction_us": total_us("wal.log_transaction"),
        "wal.syncs": engine.get("pipeline.wal_syncs", 0),
        "wal.commits_per_sync": ratio(commits, engine.get("pipeline.wal_syncs", 0)),
        "wal.bytes_per_commit": ratio(extra.get("wal.bytes", 0), commits),
        "db.fetches": calls("db.fetch", "db.fetch_many", "db.snapshot_fetch"),
        "db.fetch_us": self_us("db.fetch", "db.fetch_many", "db.snapshot_fetch"),
        "codec.decodes": calls("codec.decode"),
        "codec.decode_us": self_us("codec.decode"),
        "codec.fast_objects": engine.get("pipeline.serializer_fast_objects", 0)
        + engine.get("pipeline.serializer_fast_decodes", 0),
        "codec.slow_objects": engine.get("pipeline.serializer_slow_objects", 0)
        + engine.get("pipeline.serializer_slow_decodes", 0),
        "buffer.hits": engine.get("buffer_pool.hits", 0),
        "buffer.misses": engine.get("buffer_pool.misses", 0),
        "buffer.hit_rate": engine.get("buffer_pool.hit_rate", 0.0),
        "buffer.evictions": engine.get("buffer_pool.evictions", 0),
        "buffer.readahead_pages": engine.get("buffer_pool.readahead_pages", 0),
        "heap.reads": calls("heap.read", "heap.read_many"),
        "heap.read_us": self_us("heap.read", "heap.read_many"),
        "query.count": calls("query.all", "query.count"),
        "query.exec_us": total_us("query.all"),
        "query.rows_fetched_per_row_returned": ratio(fetched_rows, client.rows_returned),
        "query.index_hits": engine.get("index_hits", 0),
        "query.access_path.index_range": engine.get(
            "query_executions{access_path=index_range}", 0
        ),
        "query.access_path.extent_scan": engine.get(
            "query_executions{access_path=extent_scan}", 0
        ),
        "versions.snapshots": calls("db.snapshot"),
        "versions.record_us": self_us("versions.record"),
        "versions.entries_max": trace.get("maxima", {}).get("versions.entries_max", 0),
        "versions.preimage_hits": counters.get("versions.preimage_hits", 0),
        "reactive.events_raised": calls("reactive.notify"),
        "reactive.notify_us": self_us("reactive.notify"),
        "reactive.consumer_cache_hit_rate": ratio(cache_hits, cache_total),
        "events.detector_feeds": calls("events.detector_feed"),
        "events.composite_us": self_us("events.composite"),
        "events.composite_signals": counters.get("events.composite_signals", 0),
        "scheduler.triggered": scheduler.get("triggered", 0),
        "scheduler.immediate": scheduler.get("immediate", 0),
        "scheduler.deferred": scheduler.get("deferred", 0),
        "scheduler.decoupled": scheduler.get("decoupled", 0),
        "scheduler.schedule_us": self_us("scheduler.schedule"),
        "scheduler.flush_deferred_us": self_us("scheduler.flush_deferred"),
        "scheduler.max_depth_seen": scheduler.get("max_depth_seen", 0),
        "rules.fires": calls("rules.fire"),
        "rules.fire_us": self_us("rules.fire"),
        "rules.condition_rejects": counters.get("rules.condition_rejects", 0),
        "workers.submitted": pool.get("submitted", 0),
        "workers.completed": pool.get("completed", 0),
        "workers.rejected": pool.get("rejected", 0),
        "workers.queue_wait_us": mean_us("workers.queue_wait"),
        "workers.job_us": total_us("workers.job"),
        "obs.flight_recorded_per_op": ratio(engine.get("flight.recorded", 0), operations),
        "trace.span_cost_us": trace.get("span_cost_us", 0.0),
        "trace.engine_coverage": 1.0 - ratio(engine_self_ns, engine_ns) if engine_ns else 0.0,
    }
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _unit, _better in PER_LAYER}


def stage_tables(trace: dict[str, Any], client: ClientSide) -> str:
    """One table per request kind: layer, calls/op, self µs/op, share.

    The rows of a kind plus its ``http transport`` row add up to the mean
    latency its client observed.  Decoupled rule jobs run after the reply,
    on worker threads; their table is per job and outside any sum.
    """
    lines: list[str] = []
    for kind, (count, seconds) in sorted(client.kinds.items()):
        if not count:
            continue
        stage = trace["stages"].get(kind, {})
        mean_us = seconds / count * 1e6
        rows = [
            (name, record[0] / count, record[1] / count / 1e3)
            for name, record in stage.items()
        ]
        dispatch = stage.get("server.dispatch")
        if dispatch:
            rows.append(("http transport", 1.0, mean_us - dispatch[2] / count / 1e3))
        lines += _table(f"{kind}: client-observed mean {mean_us:.1f} us over {count} ops",
                        rows, mean_us)
    jobs = trace["stages"].get("job", {})
    job_root = jobs.get("workers.job")
    if job_root and job_root[0]:
        count = job_root[0]
        mean_us = job_root[2] / count / 1e3
        rows = [(n, r[0] / count, r[1] / count / 1e3) for n, r in jobs.items()]
        lines += _table(
            f"decoupled rule job (asynchronous, after the reply): mean "
            f"{mean_us:.1f} us over {count} jobs", rows, mean_us)
    return "\n".join(lines)


def _table(title: str, rows: list[tuple[str, float, float]], mean_us: float) -> list[str]:
    rows.sort(key=lambda row: -row[2])
    out = [title, f"  {'layer':<24}{'calls/op':>10}{'self us/op':>12}{'share':>8}"]
    for name, calls, micros in rows:
        out.append(f"  {name:<24}{calls:>10.2f}{micros:>12.1f}{micros / mean_us:>8.1%}")
    total = sum(micros for _, _, micros in rows)
    out.append(f"  {'sum of rows':<24}{'':>10}{total:>12.1f}{total / mean_us:>8.1%}")
    return out + [""]
