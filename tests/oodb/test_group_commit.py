"""Tests for WAL group commit and the ``sync`` setting.

Group commit batches a transaction's BEGIN/UPDATE.../COMMIT into a single
buffered write with one flush (and at most one fsync, issued by the
``wal-syncer`` thread) at the commit boundary.  The on-disk format is the
same as per-record appends, so recovery replays either identically.
"""

import os
import threading

import pytest

from repro.oodb import Database, Persistent
from repro.oodb.recovery import replay
from repro.oodb.schema import ClassRegistry
from repro.oodb.storage.wal import LogRecordType, WriteAheadLog
from repro.obs.metrics import pipeline_stats, reset_pipeline_stats


class Doc(Persistent):
    def __init__(self, body=""):
        super().__init__()
        self.body = body


def _simulate_crash(db: Database, flush_heap: bool = True) -> None:
    """Close file handles without checkpoint — as a crash would.

    With ``flush_heap=False`` dirty heap pages are lost too, so recovery
    must redo everything since the last checkpoint from the log.
    """
    assert db._heap is not None and db._wal is not None
    if flush_heap:
        db._pool.flush_all()
    db._wal.flush()
    db._heap._pool = None  # ensure no further use
    db._closed = True
    db._wal._file.close()


class TestLogTransaction:
    def test_replays_like_individual_appends(self, tmp_path):
        grouped = WriteAheadLog(tmp_path / "grouped.log", sync=False)
        grouped.log_transaction(1, [(5, None, {"v": 1}), (6, {"v": 0}, None)])
        separate = WriteAheadLog(tmp_path / "separate.log", sync=False)
        separate.log_begin(1)
        separate.log_update(1, 5, None, {"v": 1})
        separate.log_update(1, 6, {"v": 0}, None)
        separate.log_commit(1)

        def applied(wal):
            out = []
            replay(wal, lambda oid, redo: out.append((oid, redo)))
            return out

        assert applied(grouped) == applied(separate) == [(5, {"v": 1}), (6, None)]
        grouped.close()
        separate.close()

    def test_pre_encoded_redo_round_trips(self, tmp_path):
        # The commit path hands the WAL an already-encoded record string;
        # the reader must see the same dict as for a dict-valued redo.
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_transaction(3, [(9, {"old": 1}, '{"attrs":{"n":2},"class":"Doc"}')])
        records = list(wal.records())
        update = [r for r in records if r.type is LogRecordType.UPDATE][0]
        assert update.oid == 9
        assert update.undo == {"old": 1}
        assert update.redo == {"attrs": {"n": 2}, "class": "Doc"}
        wal.close()

    def test_counts_group_commit_stats(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        reset_pipeline_stats()
        wal.log_transaction(1, [(5, None, {"v": 1}), (6, None, {"v": 2})])
        assert pipeline_stats.group_commits == 1
        assert pipeline_stats.group_commit_records == 4  # BEGIN + 2 + COMMIT
        wal.close()

    def test_empty_transaction_still_brackets(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_transaction(1, [])
        types = [r.type for r in wal.records()]
        assert types == [LogRecordType.BEGIN, LogRecordType.COMMIT]
        wal.close()


class TestBufferedAppends:
    def test_records_reader_sees_buffered_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(7)  # buffered, not yet flushed
        assert [r.txn_id for r in wal.records()] == [7]
        wal.close()

    def test_truncate_discards_buffered_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(7)
        wal.truncate()
        assert list(wal.records()) == []
        assert wal.tail_size() == 0
        wal.close()

    def test_lsns_account_for_buffered_entries(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        first = wal.log_begin(1)
        second = wal.log_begin(2)
        assert first == 0
        assert second > first
        lsns = [r.lsn for r in wal.records()]
        assert lsns == [first, second]
        wal.close()


class TestFsyncPolicy:
    def test_never_policy_skips_fsync(self, tmp_path, monkeypatch):
        """A ``sync=False`` log never fsyncs, not even on truncate."""
        fsyncs = []
        monkeypatch.setattr(os, "fsync", fsyncs.append)
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        assert wal._syncer is None
        reset_pipeline_stats()
        wal.log_transaction(1, [(5, None, {"v": 1})])
        wal.truncate()
        assert pipeline_stats.wal_syncs == 0
        wal.close()
        assert fsyncs == []

    def test_commit_policy_syncs_once_per_transaction(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=True)
        reset_pipeline_stats()
        wal.log_transaction(1, [(5, None, {"v": 1}), (6, None, {"v": 2})])
        assert pipeline_stats.wal_syncs == 1
        wal.close()

    def test_database_runs_the_syncer_until_close(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        assert db.locking is False
        syncer = db._wal._syncer
        assert syncer is not None
        assert syncer.name == "wal-syncer"
        assert syncer.is_alive()
        with db.transaction():
            db.add(Doc("x"))
        db.close()
        assert not syncer.is_alive()


@pytest.mark.parametrize("locking", [True, False])
class TestRecoveryBothPaths:
    """Both ``Database`` modes commit through the one WAL path."""

    def test_committed_work_survives_crash(self, tmp_path, locking):
        path = str(tmp_path / "db")
        db = Database(path, sync=False, locking=locking)
        with db.transaction():
            doc = Doc("hello")
            db.add(doc)
            db.set_root("doc", doc)
        oid = doc.oid
        _simulate_crash(db)

        db2 = Database(path, sync=False)
        restored = db2.fetch(oid)
        assert restored.body == "hello"
        assert db2.get_root("doc") is restored
        db2.close()

    def test_update_and_delete_survive_crash(self, tmp_path, locking):
        path = str(tmp_path / "db")
        db = Database(path, sync=False, locking=locking)
        with db.transaction():
            keep = Doc("v1")
            gone = Doc("bye")
            db.add(keep)
            db.add(gone)
            db.set_root("keep", keep)
        db.checkpoint()
        keep_oid, gone_oid = keep.oid, gone.oid
        with db.transaction():
            keep.body = "v2"
            db.delete(gone)
        _simulate_crash(db)

        from repro.oodb import ObjectNotFound

        db2 = Database(path, sync=False)
        assert db2.fetch(keep_oid).body == "v2"
        with pytest.raises(ObjectNotFound):
            db2.fetch(gone_oid)
        db2.close()

    def test_reopen_after_clean_close(self, tmp_path, locking):
        path = str(tmp_path / "db")
        db = Database(path, sync=False, locking=locking)
        with db.transaction():
            db.set_root("d", Doc("x"))
        db.close()

        db2 = Database(path, sync=False)
        assert db2.last_recovery is not None
        assert db2.last_recovery.clean
        assert db2.get_root("d").body == "x"
        db2.close()


class TestCheckpointRace:
    def test_checkpoint_loop_loses_no_acked_increment(self, tmp_path):
        """Committers race a checkpoint loop; each checkpoint truncates the
        log under the syncer.  A crash that loses the dirty heap pages must
        still find every acknowledged increment in the log."""
        registry = ClassRegistry()

        class Counter(Persistent, registry=registry):
            def __init__(self) -> None:
                super().__init__()
                self.value = 0

        path = str(tmp_path / "db")
        db = Database(path, registry=registry, locking=True)
        with db.transaction():
            oids = [db.add(Counter()) for _ in range(4)]
        per_thread = 25
        acked = [0] * len(oids)
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            def bump() -> None:
                db.fetch(oids[index]).value += 1

            try:
                for _ in range(per_thread):
                    db.run_transaction(bump, attempts=25)
                    acked[index] += 1
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        checkpoints = 0
        while any(t.is_alive() for t in threads):
            db.checkpoint()
            checkpoints += 1
        for t in threads:
            t.join(30.0)
        assert [t.name for t in threads if t.is_alive()] == []
        assert errors == []
        assert checkpoints > 0
        assert db.locks.waiting_edges() == {}
        assert db.locks.lock_table_size() == 0
        _simulate_crash(db, flush_heap=False)

        db2 = Database(path, registry=registry, sync=False)
        assert [db2.fetch(oid).value for oid in oids] == acked
        assert acked == [per_thread] * len(oids)
        db2.close()
