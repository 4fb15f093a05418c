"""E15 — substrate sanity: throughput of the Zeitgeist stand-in.

Object create / fetch / update / commit / abort / recovery rates, plus
indexed vs scanned queries.  These numbers contextualize every other
benchmark (how much of a rule's cost is the store vs the rule machinery).
"""

from __future__ import annotations

import pytest

from repro.oodb import Database, Persistent

BATCH = 100


class Record(Persistent):
    def __init__(self, key=0, payload=""):
        super().__init__()
        self.key = key
        self.payload = payload


@pytest.fixture
def disk_db(tmp_path):
    database = Database(str(tmp_path / "db"), sync=False)
    yield database
    database.close()


@pytest.fixture
def loaded_db(tmp_path):
    database = Database(str(tmp_path / "db"), sync=False)
    with database.transaction():
        for i in range(1000):
            database.add(Record(key=i, payload=f"payload-{i}"))
    yield database
    database.close()


def test_create_commit_batch(benchmark, disk_db):
    benchmark.group = "E15 object store"
    benchmark.name = f"create+commit batch of {BATCH}"

    def run():
        with disk_db.transaction():
            for i in range(BATCH):
                disk_db.add(Record(key=i, payload="x" * 50))

    benchmark.pedantic(run, rounds=10)


def test_update_commit_batch(benchmark, disk_db):
    benchmark.group = "E15 object store"
    benchmark.name = f"update+commit batch of {BATCH}"
    with disk_db.transaction():
        records = [Record(key=i) for i in range(BATCH)]
        for record in records:
            disk_db.add(record)

    def run():
        with disk_db.transaction():
            for record in records:
                record.key += 1

    benchmark.pedantic(run, rounds=10)


def test_abort_batch(benchmark, disk_db):
    benchmark.group = "E15 object store"
    benchmark.name = f"update+abort batch of {BATCH}"
    with disk_db.transaction():
        records = [Record(key=i) for i in range(BATCH)]
        for record in records:
            disk_db.add(record)

    def run():
        txn = disk_db.begin()
        for record in records:
            record.key += 1
        disk_db.txn_manager.rollback(txn)

    benchmark.pedantic(run, rounds=10)


def test_cold_fetch(benchmark, loaded_db):
    benchmark.group = "E15 object store"
    benchmark.name = "fetch 100 cold objects"
    oids = sorted(loaded_db.extents.of("Record"))[:100]

    def run():
        loaded_db.evict_cache()
        for oid in oids:
            loaded_db.fetch(oid)

    benchmark.pedantic(run, rounds=10)


def test_scan_query(benchmark, loaded_db):
    benchmark.group = "E15 object store"
    benchmark.name = "query scan (1000 objects)"
    query = lambda: loaded_db.query(Record).where_eq("key", 500).all()  # noqa: E731
    benchmark.pedantic(query, rounds=10)


def test_indexed_query(benchmark, loaded_db):
    benchmark.group = "E15 object store"
    benchmark.name = "query via B-tree (1000 objects)"
    loaded_db.create_index(Record, "key")
    query = lambda: loaded_db.query(Record).where_eq("key", 500).all()  # noqa: E731
    benchmark.pedantic(query, rounds=10)


def test_reopen_with_recovery(benchmark, tmp_path):
    benchmark.group = "E15 object store"
    benchmark.name = "restart recovery (500 logged updates)"
    path = str(tmp_path / "recdb")
    database = Database(path, sync=False)
    with database.transaction():
        for i in range(500):
            database.add(Record(key=i))
    # Crash-style close: WAL kept, no checkpoint.
    database._pool.flush_all()
    database._wal.flush()
    database._wal._file.close()
    database._closed = True

    def reopen():
        reopened = Database(path, sync=False)
        count = reopened.object_count()
        reopened.close()
        return count

    result = benchmark.pedantic(reopen, rounds=3)
    assert result == 500 or result is None


def test_garbage_collection(benchmark, tmp_path):
    benchmark.group = "E15 object store"
    benchmark.name = "mark+sweep GC (1000 objects, half garbage)"

    def setup():
        import shutil

        directory = tmp_path / f"gc{setup.counter}"
        setup.counter += 1
        shutil.rmtree(directory, ignore_errors=True)
        database = Database(str(directory), sync=False)
        with database.transaction():
            previous = None
            for i in range(500):
                node = Record(key=i)
                node.link = previous
                database.add(node)
                previous = node
            database.set_root("chain", previous)
            for i in range(500):
                database.add(Record(key=-i))  # unreachable
        return (database,), {}

    setup.counter = 0

    def run(database):
        marked, swept = database.collect_garbage()
        database.close()
        return marked, swept

    marked, swept = benchmark.pedantic(run, setup=setup, rounds=5)
    assert swept == 500


def test_group_commit_batch(benchmark, tmp_path):
    benchmark.group = "E15 object store"
    benchmark.name = f"create+commit batch of {BATCH} (group commit)"
    database = Database(str(tmp_path / "db"), sync=False)

    def run():
        with database.transaction():
            for i in range(BATCH):
                database.add(Record(key=i, payload="x" * 50))

    benchmark.pedantic(run, rounds=10)
    database.close()


def test_shape_group_commit_batches_wal_writes(tmp_path):
    """One transaction → one group commit covering every logged record."""
    from repro.obs.metrics import pipeline_stats, reset_pipeline_stats

    database = Database(str(tmp_path / "db"), sync=False)
    try:
        reset_pipeline_stats()
        with database.transaction():
            for i in range(BATCH):
                database.add(Record(key=i))
        assert pipeline_stats.group_commits == 1
        # BEGIN + one update per object + COMMIT, in a single flush.
        assert pipeline_stats.group_commit_records == BATCH + 2
        assert pipeline_stats.wal_syncs <= 1
    finally:
        database.close()


def test_shape_indexed_query_beats_scan(loaded_db):
    import time

    def timed(fn, repeat=30):
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        return time.perf_counter() - start

    scan = timed(lambda: loaded_db.query(Record).where_eq("key", 500).all())
    loaded_db.create_index(Record, "key")
    indexed = timed(lambda: loaded_db.query(Record).where_eq("key", 500).all())
    assert indexed < scan
