"""Write-ahead log.

The WAL is an append-only file of length-prefixed, checksummed records.
Transactions append ``BEGIN`` / ``UPDATE`` / ``COMMIT`` / ``ABORT`` records;
restart recovery (:mod:`repro.oodb.recovery`) replays the log to decide
which transactions' effects survive.

Log records carry *logical* undo/redo information: the OID, the before
image, and the after image of the serialized object record.  This is
simpler than physiological page logging and sufficient because the object
store applies committed images idempotently at recovery time.

Format of one log entry on disk::

    <length:4 bytes little-endian> <crc32:4 bytes> <payload: length bytes>

The payload is a JSON object (UTF-8).  A torn final entry (crash mid-append)
is detected by a short read or checksum mismatch and the log is truncated
at the last valid entry.

Concurrency: the log is shared by every committing thread.  A buffer
mutex serializes appends and file writes (so entries land in LSN order).
Durability has one path, **group commit through the syncer thread**: a
``sync=True`` log runs a ``wal-syncer`` daemon, committers publish the
offset they need durable and wait, and the syncer drains everything
buffered so far and covers it with one fsync, back to back while work is
pending.  N concurrent commits collapse into one fsync, and committers
keep doing CPU work while it is in flight.  A ``sync=False`` log never
fsyncs (benchmarks and tests).

A failed fsync is fail-stop: the syncer records the error, wakes every
waiter and exits.  Every commit waiting on it, and every later one,
raises :class:`~repro.oodb.errors.WALError`; the fsync is never retried,
because after a failed fsync Linux may already have dropped the dirty
pages.  The log stays failed until it is reopened, and recovery then
decides from what actually reached the disk.  A commit that got the
error was never acknowledged; it may or may not survive the restart.
"""

from __future__ import annotations

import enum
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from time import perf_counter

from ...obs.metrics import pipeline_stats
from ...obs.signals import engine_signals as _signals
from ...obs.slowlog import slow_op_log as _slowlog
from ...obs.tracer import tracer as _tracer
from ..errors import WALError

__all__ = [
    "LogRecordType",
    "LogRecord",
    "WriteAheadLog",
    "read_records",
]

_FRAME = struct.Struct("<II")

#: First payload byte of a *binary* update entry.  JSON payloads start
#: with ``{`` (0x7B), so one byte disambiguates — the same trick the heap
#: uses for packed vs JSON record payloads.
_BINARY_UPDATE = 0x01
_BINARY_HEAD = struct.Struct("<BQQI")

class LogRecordType(str, enum.Enum):
    """Kinds of log record."""

    BEGIN = "begin"
    UPDATE = "update"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One entry in the write-ahead log.

    ``lsn`` is assigned by the log at append time (position in the file).
    ``undo``/``redo`` are serialized object records (or ``None`` for
    creation/deletion respectively).
    """

    type: LogRecordType
    txn_id: int
    lsn: int = 0
    oid: int | None = None
    undo: dict[str, Any] | None = None
    #: Redo image: a record dict (legacy JSON entries) or the raw packed
    #: record payload (binary entries) — recovery applies either.
    redo: dict[str, Any] | bytes | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> bytes:
        body = {
            "type": self.type.value,
            "txn": self.txn_id,
            "oid": self.oid,
            "undo": self.undo,
            "redo": self.redo,
            "extra": self.extra,
        }
        return _PAYLOAD_ENCODER.encode(body).encode()

    @classmethod
    def from_payload(cls, payload: bytes, lsn: int) -> "LogRecord":
        if payload[:1] == bytes([_BINARY_UPDATE]):
            return cls._from_binary_payload(payload, lsn)
        try:
            body = json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WALError(f"corrupt log payload at lsn {lsn}: {exc}") from exc
        return cls(
            type=LogRecordType(body["type"]),
            txn_id=body["txn"],
            lsn=lsn,
            oid=body.get("oid"),
            undo=body.get("undo"),
            redo=body.get("redo"),
            extra=body.get("extra") or {},
        )

    @classmethod
    def _from_binary_payload(cls, payload: bytes, lsn: int) -> "LogRecord":
        """Parse a binary UPDATE entry (packed-record redo carried as-is)."""
        if len(payload) < _BINARY_HEAD.size:
            raise WALError(f"truncated binary log payload at lsn {lsn}")
        _tag, txn_id, oid, undo_len = _BINARY_HEAD.unpack_from(payload)
        undo_end = _BINARY_HEAD.size + undo_len
        if len(payload) < undo_end:
            raise WALError(f"truncated binary log payload at lsn {lsn}")
        undo: dict[str, Any] | None = None
        if undo_len:
            try:
                undo = json.loads(payload[_BINARY_HEAD.size : undo_end].decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WALError(
                    f"corrupt binary log payload at lsn {lsn}: {exc}"
                ) from exc
        return cls(
            type=LogRecordType.UPDATE,
            txn_id=txn_id,
            lsn=lsn,
            oid=oid,
            undo=undo,
            redo=payload[undo_end:],
        )


def _json_default(value: Any) -> Any:
    raise TypeError(
        f"log records must be JSON-serializable; got {type(value).__name__}. "
        "Serialize objects to records before logging."
    )


# Shared instance: ``json.dumps`` with non-default options constructs a
# fresh JSONEncoder per call, and the log encodes one payload per record.
_PAYLOAD_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_json_default)


class WriteAheadLog:
    """Append-only, checksummed log with crash-safe truncation.

    Appends accumulate in an in-process buffer; :meth:`flush` writes the
    whole buffer with one ``write`` call and, when ``sync`` is set, waits
    for the syncer thread to fsync it.  Commit boundaries
    (:meth:`log_commit`, :meth:`log_transaction`, :meth:`log_checkpoint`)
    always flush, so a committed transaction's records are on disk before
    commit returns.  Records buffered at crash time belong to uncommitted
    transactions and recovery discards them anyway.

    ``sync`` is the only durability setting: ``True`` (production) runs the
    ``wal-syncer`` thread, ``False`` never fsyncs the log.
    """

    def __init__(self, path: str | os.PathLike[str], sync: bool = True) -> None:
        self._path = os.fspath(path)
        self._sync = sync
        self._pending: list[bytes] = []
        self._file = open(self._path, "ab+")
        self._file.seek(0, os.SEEK_END)
        self._end = self._file.tell()
        # Guards _pending/_end and all writes to _file (entries must hit
        # the OS in LSN order).  Never held across an fsync.
        self._mutex = threading.Lock()
        # Committers publish a target offset in _requested_end and block
        # until the syncer's watermark _synced_end covers it.
        self._sync_cond = threading.Condition()
        self._synced_end = self._end
        self._requested_end = self._end
        # Bumped by truncate() so a syncer fsync that raced it cannot
        # publish a stale (pre-truncate) watermark.
        self._epoch = 0
        #: The write or fsync error that stopped the syncer; once set the
        #: log refuses commits until it is reopened.
        self._failed: OSError | None = None
        self._syncer_stop = False
        self._syncer: threading.Thread | None = None
        if sync:
            self._syncer = threading.Thread(
                target=self._sync_loop, name="wal-syncer", daemon=True
            )
            self._syncer.start()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @staticmethod
    def _frame(record: LogRecord) -> bytes:
        payload = record.to_payload()
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    def append(self, record: LogRecord) -> int:
        """Buffer ``record`` for the next flush and return its LSN."""
        framed = self._frame(record)
        with self._mutex:
            lsn = self._end
            self._pending.append(framed)
            self._end += len(framed)
        return lsn

    def _drain_locked(self) -> int:
        """Write buffered entries to the OS (caller holds ``_mutex``).

        Returns the end-of-log offset the file now covers.
        """
        pending = self._pending
        if pending:
            self._file.write(b"".join(pending))
            pending.clear()
        self._file.flush()
        return self._end

    def flush(self) -> None:
        """Write buffered entries in one call; a ``sync`` log then waits
        until they are durable."""
        with self._mutex:
            target = self._drain_locked()
        if self._sync:
            self._sync_to(target)

    def _check_failed(self) -> None:
        if self._failed is not None:
            raise WALError(
                f"WAL fsync failed ({self._failed}); the log refuses "
                "commits until it is reopened"
            ) from self._failed

    def _sync_to(self, target: int) -> None:
        """Block until the syncer has made the log durable through ``target``.

        Returns at once if an earlier fsync already covered ``target`` (the
        racy unlocked read is safe: ``_synced_end`` only grows between
        truncates, and truncate resets it under ``_mutex``, which the
        caller's append took after it).  Raises :class:`WALError` if the
        syncer failed, or stopped, before covering it.
        """
        if self._synced_end >= target:
            return
        with self._sync_cond:
            if self._requested_end < target:
                self._requested_end = target
                self._sync_cond.notify_all()
            while (
                self._synced_end < target
                and self._failed is None
                and not self._syncer_stop
            ):
                self._sync_cond.wait()
            if self._synced_end >= target:
                return
        self._check_failed()
        raise WALError("write-ahead log closed before the commit was durable")

    def _fsync_instrumented(self) -> None:
        """One fsync, timed for the slow-fsync signal / slow-op log."""
        if _signals.active or _slowlog.enabled:
            start = perf_counter()
            os.fsync(self._file.fileno())
            micros = (perf_counter() - start) * 1e6
            if _signals.active and micros >= _signals.fsync_slow_us:
                _signals.emit(
                    "wal_fsync_slow",
                    micros=round(micros, 1),
                    threshold_us=_signals.fsync_slow_us,
                )
            if _slowlog.enabled and micros >= _slowlog.slow_fsync_us:
                # The sysmon signal for slow fsyncs predates the
                # slow-op log and keeps its own threshold above.
                _slowlog.record(
                    "fsync",
                    micros,
                    _slowlog.slow_fsync_us,
                    path=self._path,
                )
        else:
            os.fsync(self._file.fileno())

    def _sync_loop(self) -> None:
        """The syncer: fsync back-to-back while work is pending.

        Each pass drains whatever committers buffered (including entries
        appended *during the previous fsync*) and makes it durable with
        one fsync, then publishes the new watermark and wakes every
        waiting committer whose target it covered.  Commits keep doing
        CPU work while the fsync is in flight — the disk and the
        interpreter stay busy simultaneously.  A failed write or fsync
        marks the log failed, wakes every waiter and ends the thread.
        """
        while True:
            with self._sync_cond:
                while (
                    self._requested_end <= self._synced_end
                    and not self._syncer_stop
                ):
                    self._sync_cond.wait()
                if self._syncer_stop:
                    return
                epoch = self._epoch
            try:
                with self._mutex:
                    covered = self._drain_locked()
                self._fsync_instrumented()
            except OSError as exc:
                with self._sync_cond:
                    self._failed = exc
                    self._sync_cond.notify_all()
                return
            with self._sync_cond:
                if self._epoch == epoch:
                    self._synced_end = covered
                    pipeline_stats.wal_syncs += 1
                self._sync_cond.notify_all()

    def log_begin(self, txn_id: int) -> int:
        return self.append(LogRecord(LogRecordType.BEGIN, txn_id))

    def log_update(
        self,
        txn_id: int,
        oid: int,
        undo: dict[str, Any] | None,
        redo: dict[str, Any] | str | bytes | None,
    ) -> int:
        """Append one UPDATE.  ``redo`` may be a record dict, a pre-encoded
        record JSON string, or raw packed-record bytes (binary entry)."""
        framed = self._update_frame(txn_id, oid, undo, redo)
        with self._mutex:
            lsn = self._end
            self._pending.append(framed)
            self._end += len(framed)
        return lsn

    def log_commit(self, txn_id: int) -> int:
        lsn = self.append(LogRecord(LogRecordType.COMMIT, txn_id))
        self.flush()
        if _tracer.enabled:
            _tracer.point("wal", f"commit:{txn_id}", txn=txn_id, lsn=lsn)
        return lsn

    def _update_frame(
        self,
        txn_id: int,
        oid: int,
        undo: dict[str, Any] | None,
        redo: dict[str, Any] | str | bytes | None,
    ) -> bytes:
        if isinstance(redo, bytes):
            # Packed record: the redo image is the exact heap payload, so
            # it is carried verbatim in a binary entry — no JSON wrapping,
            # no base64, and recovery writes the bytes straight back.
            undo_bytes = (
                _PAYLOAD_ENCODER.encode(undo).encode()
                if undo is not None
                else b""
            )
            payload = (
                _BINARY_HEAD.pack(_BINARY_UPDATE, txn_id, oid, len(undo_bytes))
                + undo_bytes
                + redo
            )
            return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        if isinstance(redo, str):
            # ``redo`` is an already-encoded record: splice it into the
            # payload instead of re-encoding the dict.  Byte-identical to
            # the LogRecord path modulo key order, which json.loads (the
            # only reader) does not observe.
            head = _PAYLOAD_ENCODER.encode(
                {"type": "update", "txn": txn_id, "oid": oid, "undo": undo}
            )
            payload = (head[:-1] + ',"redo":' + redo + ',"extra":{}}').encode()
            return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        return self._frame(
            LogRecord(LogRecordType.UPDATE, txn_id, oid=oid, undo=undo, redo=redo)
        )

    def log_transaction(
        self,
        txn_id: int,
        updates: Iterable[
            tuple[int, dict[str, Any] | None, dict[str, Any] | str | bytes | None]
        ],
    ) -> int:
        """Group commit: BEGIN, all UPDATEs, and COMMIT in one write.

        ``updates`` yields ``(oid, undo, redo)`` triples; ``redo`` may be a
        record dict, a pre-encoded record JSON string, or raw packed-record
        bytes (see :meth:`_update_frame`).  The whole batch is framed in
        memory and lands in a single buffered write with one flush (and at most one
        fsync) at the commit boundary, instead of a write per record.
        Returns the COMMIT record's LSN.
        """
        if _tracer.enabled:
            span = _tracer.begin("wal", f"group-commit:{txn_id}", txn=txn_id)
            try:
                lsn, count, nbytes = self._log_transaction_inner(txn_id, updates)
            except BaseException as exc:
                _tracer.end(span, error=type(exc).__name__)
                raise
            _tracer.end(span, records=count, bytes=nbytes, lsn=lsn)
            return lsn
        return self._log_transaction_inner(txn_id, updates)[0]

    def _log_transaction_inner(
        self,
        txn_id: int,
        updates: Iterable[
            tuple[int, dict[str, Any] | None, dict[str, Any] | str | bytes | None]
        ],
    ) -> tuple[int, int, int]:
        # A failed log takes no more commits: their records would reach
        # the file and could resurrect a transaction reported as failed.
        self._check_failed()
        frames = [self._frame(LogRecord(LogRecordType.BEGIN, txn_id))]
        count = 2
        for oid, undo, redo in updates:
            frames.append(self._update_frame(txn_id, oid, undo, redo))
            count += 1
        commit = self._frame(LogRecord(LogRecordType.COMMIT, txn_id))
        batch = b"".join(frames)
        with self._mutex:
            lsn = self._end + len(batch)
            self._pending.append(batch + commit)
            self._end = lsn + len(commit)
        self.flush()
        pipeline_stats.group_commits += 1
        pipeline_stats.group_commit_records += count
        return lsn, count, len(batch) + len(commit)

    def log_abort(self, txn_id: int) -> int:
        return self.append(LogRecord(LogRecordType.ABORT, txn_id))

    def log_checkpoint(self, catalog: dict[str, Any]) -> int:
        lsn = self.append(
            LogRecord(LogRecordType.CHECKPOINT, txn_id=0, extra=catalog)
        )
        self.flush()
        return lsn

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> Iterator[LogRecord]:
        """Yield every valid record from the start of the log.

        Stops cleanly at the first torn or corrupt entry (treating it as
        the logical end of the log, as a crashed append would leave).
        """
        with self._mutex:
            self._drain_locked()
        yield from read_records(self._path)

    def tail_size(self) -> int:
        """Current end-of-log offset."""
        return self._end

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Discard all log entries (after a checkpoint made them redundant)."""
        self._check_failed()
        with self._mutex:
            self._pending.clear()
            self._file.truncate(0)
            self._file.seek(0)
            self._end = 0
            self._file.flush()
            # Reset the watermark before _mutex is released, so a committer
            # appending after the truncate cannot see a stale pre-truncate
            # _synced_end, and bump the epoch so a syncer fsync that raced
            # the truncate cannot publish one.  -1: not even the empty log
            # is durable until the syncer has fsynced the truncation.
            with self._sync_cond:
                self._epoch += 1
                self._synced_end = -1
                self._requested_end = -1
        if self._sync:
            self._sync_to(0)

    def close(self) -> None:
        """Flush, stop the syncer and close the file.

        A failed log skips the final sync (its error already reached every
        committer that needed durability) and still closes promptly.
        """
        if self._failed is None:
            self.flush()
        else:
            with self._mutex:
                self._drain_locked()
        if self._syncer is not None:
            with self._sync_cond:
                self._syncer_stop = True
                self._sync_cond.notify_all()
            self._syncer.join(timeout=5.0)
            self._syncer = None
        with self._mutex:
            self._file.close()

    @property
    def path(self) -> str:
        return self._path


def read_records(path: str | os.PathLike[str]) -> Iterator[LogRecord]:
    """Yield every valid record from the log at ``path``, read-only.

    Unlike constructing a :class:`WriteAheadLog` (which opens the file in
    append mode and whose owning :class:`~repro.oodb.database.Database`
    runs recovery — truncating the very records being counted), this
    touches nothing: no write handle, no flush, no recovery.  It is the
    safe way for inspection tools to read a live or crashed log.  Stops
    at the first torn or corrupt entry, like :meth:`WriteAheadLog.records`.
    A missing file yields nothing.
    """
    try:
        reader = open(os.fspath(path), "rb")
    except FileNotFoundError:
        return
    with reader:
        offset = 0
        while True:
            frame = reader.read(_FRAME.size)
            if len(frame) < _FRAME.size:
                return
            length, crc = _FRAME.unpack(frame)
            payload = reader.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return
            yield LogRecord.from_payload(payload, lsn=offset)
            offset += _FRAME.size + length
