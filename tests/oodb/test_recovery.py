"""Tests for crash recovery: WAL replay and restart behaviour."""

import os

import pytest

from repro.oodb import Database, Persistent
from repro.oodb.recovery import replay
from repro.oodb.storage.wal import WriteAheadLog


class Doc(Persistent):
    def __init__(self, body=""):
        super().__init__()
        self.body = body


class TestReplayUnit:
    def test_committed_updates_applied_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(1)
        wal.log_update(1, 5, None, {"v": 1})
        wal.log_update(1, 5, {"v": 1}, {"v": 2})
        wal.log_commit(1)
        applied = []
        report = replay(wal, lambda oid, redo: applied.append((oid, redo)))
        assert applied == [(5, {"v": 1}), (5, {"v": 2})]
        assert report.committed_txns == {1}
        assert report.redone_updates == 2
        wal.close()

    def test_uncommitted_ignored(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(1)
        wal.log_update(1, 5, None, {"v": 1})
        applied = []
        report = replay(wal, lambda oid, redo: applied.append(oid))
        assert applied == []
        assert report.unfinished_txns == {1}
        assert report.clean
        wal.close()

    def test_aborted_ignored(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(1)
        wal.log_update(1, 5, None, {"v": 1})
        wal.log_abort(1)
        applied = []
        report = replay(wal, lambda oid, redo: applied.append(oid))
        assert applied == []
        assert report.aborted_txns == {1}
        wal.close()

    def test_interleaved_transactions(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(1)
        wal.log_begin(2)
        wal.log_update(1, 10, None, {"a": 1})
        wal.log_update(2, 20, None, {"b": 1})
        wal.log_commit(2)
        wal.log_update(1, 11, None, {"a": 2})
        # txn 1 never commits
        applied = []
        replay(wal, lambda oid, redo: applied.append(oid))
        assert applied == [20]
        wal.close()

    def test_deletion_redo_is_none(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(1)
        wal.log_update(1, 7, {"v": 1}, None)
        wal.log_commit(1)
        applied = []
        replay(wal, lambda oid, redo: applied.append((oid, redo)))
        assert applied == [(7, None)]
        wal.close()

    def test_max_oid_tracked(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        wal.log_begin(1)
        wal.log_update(1, 41, None, {})
        wal.log_commit(1)
        report = replay(wal, lambda oid, redo: None)
        assert report.max_oid_seen == 41
        wal.close()


def _simulate_crash(db: Database) -> None:
    """Close file handles without checkpoint — as a crash would."""
    assert db._heap is not None and db._wal is not None
    db._pool.flush_all()
    db._wal.flush()
    db._heap._pool = None  # ensure no further use
    db._closed = True
    db._wal._file.close()


class TestRestartRecovery:
    def test_committed_work_survives_crash_before_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            doc = Doc("hello")
            db.add(doc)
            db.set_root("doc", doc)
        oid = doc.oid
        _simulate_crash(db)

        db2 = Database(path, sync=False)
        assert db2.last_recovery is not None
        restored = db2.fetch(oid)
        assert restored.body == "hello"
        assert db2.get_root("doc") is restored
        db2.close()

    def test_oid_allocation_not_reused_after_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            doc = Doc("one")
            db.add(doc)
        first_oid = doc.oid
        _simulate_crash(db)

        db2 = Database(path, sync=False)
        with db2.transaction():
            doc2 = Doc("two")
            db2.add(doc2)
        assert doc2.oid.value > first_oid.value
        db2.close()

    def test_update_then_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            doc = Doc("v1")
            db.add(doc)
        db.checkpoint()
        with db.transaction():
            doc.body = "v2"
        oid = doc.oid
        _simulate_crash(db)

        db2 = Database(path, sync=False)
        assert db2.fetch(oid).body == "v2"
        db2.close()

    def test_delete_then_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            doc = Doc("bye")
            db.add(doc)
        db.checkpoint()
        oid = doc.oid
        with db.transaction():
            db.delete(doc)
        _simulate_crash(db)

        from repro.oodb import ObjectNotFound

        db2 = Database(path, sync=False)
        with pytest.raises(ObjectNotFound):
            db2.fetch(oid)
        db2.close()

    def test_clean_reopen_after_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            db.set_root("d", Doc("x"))
        db.close()  # checkpoint happens here

        db2 = Database(path, sync=False)
        assert db2.last_recovery is not None
        assert db2.last_recovery.clean
        assert db2.get_root("d").body == "x"
        db2.close()

    def test_wal_truncated_after_recovery_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            db.set_root("d", Doc("x"))
        _simulate_crash(db)

        db2 = Database(path, sync=False)
        assert not db2.last_recovery.clean
        db2.close()
        wal_size = os.path.getsize(os.path.join(path, "wal.log"))
        assert wal_size == 0

    def test_indexes_rebuilt_on_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            for i in range(4):
                db.add(Doc(f"doc-{i}"))
        db.create_index(Doc, "body")
        db.close()

        db2 = Database(path, sync=False)
        hits = db2.query(Doc).where_eq("body", "doc-2").all()
        assert len(hits) == 1
        db2.close()


class Packet(Persistent):
    """Schema'd class: its records hit the WAL as packed binary frames."""

    _p_schema = [("seq", "int"), ("tag", "str:16")]

    def __init__(self, seq=0, tag=""):
        super().__init__()
        self.seq = seq
        self.tag = tag


def _simulate_hard_crash(db: Database) -> None:
    """Crash with the WAL durable but dirty heap pages still in memory.

    Unlike :func:`_simulate_crash` this does NOT flush the buffer pool,
    so the heap on disk is stale and restart recovery must actually redo
    the committed work from the log.
    """
    assert db._heap is not None and db._wal is not None
    db._wal.flush()
    db._closed = True
    db._wal._file.close()


class TestBinaryWalEntries:
    def test_bytes_redo_round_trips_through_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        payload = b"\x01" + bytes(range(48))
        wal.log_begin(1)
        wal.log_update(1, 9, {"v": 1}, payload)
        wal.log_update(1, 10, None, payload * 2)
        wal.log_commit(1)
        applied = []
        report = replay(wal, lambda oid, redo: applied.append((oid, redo)))
        assert applied == [(9, payload), (10, payload * 2)]
        assert report.redone_updates == 2
        wal.close()

    def test_binary_and_json_entries_interleave(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", sync=False)
        packed = b"\x01packed-payload"
        wal.log_begin(1)
        wal.log_update(1, 1, None, {"v": "json"})
        wal.log_update(1, 2, {"v": "json"}, packed)
        wal.log_update(1, 3, None, None)  # delete
        wal.log_commit(1)
        applied = []
        replay(wal, lambda oid, redo: applied.append((oid, redo)))
        assert applied == [(1, {"v": "json"}), (2, packed), (3, None)]
        wal.close()


class TestPackedRecovery:
    def test_mixed_formats_survive_a_hard_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            packet = Packet(7, "urgent")
            packet.extra = {"route": [1, 2]}  # dynamic region
            doc = Doc("plain json record")
            db.set_root("packet", packet)
            db.set_root("doc", doc)
        _simulate_hard_crash(db)

        db2 = Database(path, sync=False)
        assert db2.last_recovery is not None
        assert not db2.last_recovery.clean
        packet = db2.get_root("packet")
        assert (packet.seq, packet.tag) == (7, "urgent")
        assert packet.extra == {"route": [1, 2]}
        assert db2.get_root("doc").body == "plain json record"
        db2.close()

    def test_packed_update_chain_replays_in_order(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            packet = Packet(0, "start")
            db.set_root("packet", packet)
        for seq in (1, 2, 3):
            with db.transaction():
                packet.seq = seq
                packet.tag = f"rev{seq}"
        _simulate_hard_crash(db)

        db2 = Database(path, sync=False)
        packet = db2.get_root("packet")
        assert (packet.seq, packet.tag) == (3, "rev3")
        db2.close()

    def test_extents_and_indexes_rebuilt_over_packed_records(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, sync=False)
        with db.transaction():
            for i in range(6):
                db.set_root(f"p{i}", Packet(i, f"tag{i % 2}"))
        _simulate_hard_crash(db)

        db2 = Database(path, sync=False)
        db2.create_index(Packet, "tag", kind="hash")
        assert db2.extents.count("Packet") == 6
        assert db2.query(Packet).where_eq("tag", "tag1").count() == 3
        db2.close()

    def test_pre_schema_store_reopened_with_schema(self, tmp_path):
        """A store written before the class had a ``_p_schema`` keeps its
        JSON records readable; updates rewrite them packed in place."""
        from repro.oodb import codec
        from repro.oodb.schema import ClassRegistry

        path = str(tmp_path / "db")
        old_registry = ClassRegistry()

        class Msg(Persistent, registry=old_registry):
            _p_class_name = "Msg"

            def __init__(self, n=0, text=""):
                super().__init__()
                self.n = n
                self.text = text

        db = Database(path, registry=old_registry, sync=False)
        with db.transaction():
            db.set_root("a", Msg(1, "alpha"))
            db.set_root("b", Msg(2, "beta"))
        db.close()

        new_registry = ClassRegistry()

        class MsgV2(Persistent, registry=new_registry):
            _p_class_name = "Msg"
            _p_schema = [("n", "int"), ("text", "str:32")]

            def __init__(self, n=0, text=""):
                super().__init__()
                self.n = n
                self.text = text

        db2 = Database(path, registry=new_registry, sync=False)
        a = db2.get_root("a")
        assert (a.n, a.text) == (1, "alpha")
        # The legacy record is still JSON on disk...
        assert not codec.is_packed(db2._heap.read(db2._locations[a._p_oid]))
        with db2.transaction():
            a.text = "alpha-v2"
        # ...and the rewrite switched it to the packed format.
        assert codec.is_packed(db2._heap.read(db2._locations[a._p_oid]))
        db2.close()

        db3 = Database(path, registry=new_registry, sync=False)
        assert db3.get_root("a").text == "alpha-v2"
        assert db3.get_root("b").text == "beta"  # untouched, still JSON
        db3.close()
