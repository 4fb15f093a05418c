"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root lists the same names with the same
units and directions (``test_e2e_smoke.py`` compares them); the regression
bounds live only there.
"""

from __future__ import annotations

#: name -> (lane A, lane B, why the workload exists).  Every workload has two
#: lanes so that every workload reports every end-to-end metric.
WORKLOADS = {
    "rule_write": (
        "client 0: invoke restock",
        "client 1: invoke restock",
        "A, B: two clients invoke restock on 2,000 Items; every layer from "
        "server to WAL fsync and the rule worker pool is on the path",
    ),
    "read_mix": (
        "20-row range query on the qty B-tree",
        "get(oid) point reads",
        "A: 20-row range query, B: get, on 50,000 Items (4x the buffer pool); "
        "write path, rules and WAL bypassed; snapshots, index, heap and codec work",
    ),
    "mixed_rw": (
        "get(oid) point reads",
        "invoke restock",
        "A: get, B: invoke restock, on one hot window of the 50,000-Item store, "
        "so a write-path gain that taxes snapshot readers shows",
    ),
    "embedded_events": (
        "transaction of 20 method invocations",
        "subscribed minus passive call (overhead trials)",
        "A: transaction of 20 invocations, B: subscribed minus passive call; "
        "in-process Sentinel, no server or disk; the mirror image of rule_write",
    ),
}

#: (name, unit, better).  a_* / b_* are the workload's two lanes; *_tail_us
#: is the p99 of a lane, or a lower percentile where a run yields only a few
#: hundred samples (the report names it).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("a_ops_s", "1/s", "higher"),
    ("a_p50_us", "us", "lower"),
    ("a_tail_us", "us", "lower"),
    ("b_ops_s", "1/s", "higher"),
    ("b_p50_us", "us", "lower"),
    ("b_tail_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    # server
    ("server.requests", "count", "higher"),
    ("server.connects_per_request", "ratio", "lower"),
    ("server.http_overhead_us", "us", "lower"),
    ("server.invoke_p50_us", "us", "lower"),
    ("server.get_p50_us", "us", "lower"),
    ("server.query_p50_us", "us", "lower"),
    ("server.status_4xx", "count", "lower"),
    ("server.status_409", "count", "lower"),
    ("server.status_5xx", "count", "lower"),
    # oodb.transactions
    ("txn.count", "count", "higher"),
    ("txn.run_us", "us", "lower"),
    ("txn.commit_us", "us", "lower"),
    ("txn.retries", "count", "lower"),
    ("txn.aborts", "count", "lower"),
    # oodb.locks
    ("locks.acquires", "count", "lower"),
    ("locks.acquire_us", "us", "lower"),
    ("locks.acquire_p99_us", "us", "lower"),
    ("locks.release_us", "us", "lower"),
    ("locks.deadlock_retries", "count", "lower"),
    # oodb.storage.wal
    ("wal.commits", "count", "higher"),
    ("wal.log_transaction_us", "us", "lower"),
    ("wal.syncs", "count", "lower"),
    ("wal.commits_per_sync", "ratio", "higher"),
    ("wal.bytes", "bytes", "lower"),
    ("wal.bytes_per_commit", "bytes", "lower"),
    # oodb.database / oodb.serializer / oodb.codec
    ("db.fetches", "count", "lower"),
    ("db.fetch_us", "us", "lower"),
    ("codec.decodes", "count", "lower"),
    ("codec.decode_us", "us", "lower"),
    ("codec.fast_objects", "count", "higher"),
    ("codec.slow_objects", "count", "lower"),
    # oodb.buffer / oodb.storage.heap
    ("buffer.hits", "count", "higher"),
    ("buffer.misses", "count", "lower"),
    ("buffer.hit_rate", "ratio", "higher"),
    ("buffer.evictions", "count", "lower"),
    ("buffer.readahead_pages", "count", "higher"),
    ("heap.reads", "count", "lower"),
    ("heap.read_us", "us", "lower"),
    ("heap.bytes_per_object", "bytes", "lower"),
    # oodb.query / oodb.index
    ("query.count", "count", "higher"),
    ("query.exec_us", "us", "lower"),
    ("query.rows_fetched_per_row_returned", "ratio", "lower"),
    ("query.index_hits", "count", "higher"),
    ("query.access_path.index_range", "count", "higher"),
    ("query.access_path.extent_scan", "count", "lower"),
    # oodb.versions
    ("versions.snapshots", "count", "higher"),
    ("versions.record_us", "us", "lower"),
    ("versions.entries_max", "count", "lower"),
    ("versions.preimage_hits", "count", "lower"),
    # core.interface / core.reactive / core.events
    ("reactive.events_raised", "count", "higher"),
    ("reactive.notify_us", "us", "lower"),
    ("reactive.consumer_cache_hit_rate", "ratio", "higher"),
    ("events.detector_feeds", "count", "higher"),
    ("events.composite_us", "us", "lower"),
    ("events.composite_signals", "count", "higher"),
    # core.scheduler / core.rules
    ("scheduler.triggered", "count", "higher"),
    ("scheduler.immediate", "count", "higher"),
    ("scheduler.deferred", "count", "higher"),
    ("scheduler.decoupled", "count", "higher"),
    ("scheduler.schedule_us", "us", "lower"),
    ("scheduler.flush_deferred_us", "us", "lower"),
    ("scheduler.max_depth_seen", "count", "lower"),
    ("rules.fires", "count", "higher"),
    ("rules.fire_us", "us", "lower"),
    ("rules.condition_rejects", "count", "lower"),
    # core.workers
    ("workers.submitted", "count", "higher"),
    ("workers.completed", "count", "higher"),
    ("workers.rejected", "count", "lower"),
    ("workers.queue_wait_us", "us", "lower"),
    ("workers.job_us", "us", "lower"),
    ("workers.drain_s", "s", "lower"),
    # oodb.recovery
    ("recovery.reopen_s", "s", "lower"),
    ("recovery.txns_replayed", "count", "lower"),
    # obs, the tracer itself, the environment
    ("obs.flight_recorded_per_op", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.span_cost_us", "us", "lower"),
    ("trace.engine_coverage", "ratio", "higher"),
    ("env.fsync_probe_us", "us", "lower"),
]
