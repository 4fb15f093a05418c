"""Tests for the write-ahead log."""

import errno
import os
import threading
import time

import pytest

from repro.oodb import Database, Persistent
from repro.oodb.errors import WALError
from repro.oodb.schema import ClassRegistry
from repro.oodb.storage.wal import LogRecord, LogRecordType, WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(tmp_path / "wal.log", sync=False)
    yield log
    log.close()


class TestAppendRead:
    def test_empty_log(self, wal):
        assert list(wal.records()) == []

    def test_single_record_roundtrip(self, wal):
        wal.log_begin(7)
        records = list(wal.records())
        assert len(records) == 1
        assert records[0].type is LogRecordType.BEGIN
        assert records[0].txn_id == 7

    def test_update_record_carries_images(self, wal):
        undo = {"class": "X", "attrs": {"a": 1}}
        redo = {"class": "X", "attrs": {"a": 2}}
        wal.log_update(3, oid=42, undo=undo, redo=redo)
        record = next(wal.records())
        assert record.oid == 42
        assert record.undo == undo
        assert record.redo == redo

    def test_full_transaction_sequence(self, wal):
        wal.log_begin(1)
        wal.log_update(1, 10, None, {"class": "A", "attrs": {}})
        wal.log_commit(1)
        wal.log_begin(2)
        wal.log_abort(2)
        types = [r.type for r in wal.records()]
        assert types == [
            LogRecordType.BEGIN,
            LogRecordType.UPDATE,
            LogRecordType.COMMIT,
            LogRecordType.BEGIN,
            LogRecordType.ABORT,
        ]

    def test_lsns_monotonic(self, wal):
        lsns = [wal.log_begin(i) for i in range(10)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 10

    def test_checkpoint_extra(self, wal):
        wal.log_checkpoint({"allocator": 99})
        record = next(wal.records())
        assert record.type is LogRecordType.CHECKPOINT
        assert record.extra == {"allocator": 99}

    def test_unicode_payloads(self, wal):
        wal.log_update(1, 1, None, {"class": "X", "attrs": {"name": "héllo ☃"}})
        record = next(wal.records())
        assert record.redo["attrs"]["name"] == "héllo ☃"


class TestDurabilityAndCorruption:
    def test_reopen_preserves_entries(self, tmp_path):
        log = WriteAheadLog(tmp_path / "w.log", sync=False)
        log.log_begin(1)
        log.log_commit(1)
        log.close()
        log2 = WriteAheadLog(tmp_path / "w.log", sync=False)
        assert len(list(log2.records())) == 2
        log2.close()

    def test_append_after_reopen(self, tmp_path):
        log = WriteAheadLog(tmp_path / "w.log", sync=False)
        log.log_begin(1)
        log.close()
        log2 = WriteAheadLog(tmp_path / "w.log", sync=False)
        log2.log_begin(2)
        assert [r.txn_id for r in log2.records()] == [1, 2]
        log2.close()

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "torn.log"
        log = WriteAheadLog(path, sync=False)
        log.log_begin(1)
        log.log_commit(1)
        log.close()
        # Simulate a crash mid-append: garbage half-frame at the tail.
        with open(path, "ab") as handle:
            handle.write(b"\x55\x00\x00\x00ga")
        log2 = WriteAheadLog(path, sync=False)
        assert len(list(log2.records())) == 2
        log2.close()

    def test_corrupt_checksum_truncates(self, tmp_path):
        path = tmp_path / "corrupt.log"
        log = WriteAheadLog(path, sync=False)
        log.log_begin(1)
        end_of_first = log.tail_size()
        log.log_begin(2)
        log.close()
        data = bytearray(path.read_bytes())
        data[end_of_first + 9] ^= 0xFF  # corrupt second record's payload
        path.write_bytes(bytes(data))
        log2 = WriteAheadLog(path, sync=False)
        assert [r.txn_id for r in log2.records()] == [1]
        log2.close()

    def test_truncate(self, wal):
        wal.log_begin(1)
        wal.truncate()
        assert list(wal.records()) == []
        assert wal.tail_size() == 0
        wal.log_begin(2)
        assert [r.txn_id for r in wal.records()] == [2]


class TestLogRecordCodec:
    def test_payload_roundtrip(self):
        record = LogRecord(
            LogRecordType.UPDATE,
            txn_id=5,
            oid=9,
            undo=None,
            redo={"class": "C", "attrs": {"x": [1, 2]}},
        )
        restored = LogRecord.from_payload(record.to_payload(), lsn=0)
        assert restored.type is LogRecordType.UPDATE
        assert restored.txn_id == 5
        assert restored.oid == 9
        assert restored.redo == record.redo

    def test_unserializable_extra_rejected(self):
        record = LogRecord(LogRecordType.COMMIT, 1, extra={"bad": object()})
        with pytest.raises(TypeError):
            record.to_payload()


@pytest.mark.parametrize("locking", [False, True])
class TestFailStopFsync:
    """A failed fsync fails the commit instead of wedging committers."""

    def test_eio_fails_commits_and_acked_work_recovers(
        self, tmp_path, monkeypatch, locking
    ):
        registry = ClassRegistry()

        class Cell(Persistent, registry=registry):
            def __init__(self) -> None:
                super().__init__()
                self.value = 0

        path = str(tmp_path / "db")
        db = Database(path, registry=registry, locking=locking)
        with db.transaction():
            oid = db.add(Cell())
        acked = 0
        for _ in range(3):
            with db.transaction():
                db.fetch(oid).value += 1
            acked += 1

        fsyncs = []

        def failing_fsync(fd):
            fsyncs.append(fd)
            raise OSError(errno.EIO, "simulated I/O error")

        monkeypatch.setattr(os, "fsync", failing_fsync)

        def bump() -> None:
            with db.transaction():
                db.fetch(oid).value += 1

        outcome: list[BaseException | None] = []

        def first_commit() -> None:
            try:
                bump()
                outcome.append(None)
            except BaseException as exc:
                outcome.append(exc)

        committer = threading.Thread(target=first_commit, daemon=True)
        committer.start()
        committer.join(1.0)
        assert not committer.is_alive(), "commit blocked on a failed fsync"
        assert len(outcome) == 1 and isinstance(outcome[0], WALError)
        assert len(fsyncs) == 1

        # Later commits fail too, without retrying the fsync.
        with pytest.raises(WALError):
            bump()
        assert len(fsyncs) == 1
        assert db.locks.waiting_edges() == {}
        assert db.locks.lock_table_size() == 0
        # Both failed commits rolled back in memory.
        assert db.fetch(oid).value == acked

        start = time.perf_counter()
        db._wal.close()
        assert time.perf_counter() - start < 1.0
        db._closed = True
        monkeypatch.undo()

        reopened = Database(path, registry=registry)
        # Every acked commit is back.  The first failed commit reached the
        # file before its fsync failed, so it is in doubt: never acked, it
        # may or may not survive the restart.
        assert reopened.fetch(oid).value in (acked, acked + 1)
        reopened.close()
