"""The three workloads that drive the rule server over HTTP.

One load-generator process (this one), two closed-loop ``RuleClient``
threads: a client sends its next request when the previous reply arrived,
which is how ``RuleClient`` callers behave.  Each thread is a *lane* with one
kind of operation; it checks every reply as it goes.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from harness import (
    KeySampler,
    ServerChild,
    build_store,
    environment,
    item_values,
    lane_summary,
)
from stages import ClientSide, layer_metrics, stage_tables

#: Times the store is built and the server started in one run; ``setup_s``
#: is their median.
SETUPS = 3
#: Warm-up before the measured window, as a share of it (5 s for 30 s).
WARMUP_SHARE = 1 / 6
#: Share of ``--seconds`` a traced run spends on its untraced leg.
UNTRACED_SHARE = 0.4
#: OIDs checked over HTTP before the server is killed; after the kill the
#: reopened store is checked in full.
LIVE_SAMPLE = 200
RULES_PER_INVOKE = 3


class Failures(list):
    """Failed correctness checks, capped so a broken run stays readable."""

    def note(self, message: str) -> None:
        if len(self) < 20:
            self.append(message)


@dataclass
class Writes:
    """Restocks per OID: acknowledged ones, and failed ones whose effect on
    the store is unknown (they widen what the checks accept)."""

    added: Counter = field(default_factory=Counter)
    invokes: Counter = field(default_factory=Counter)
    lost_amount: Counter = field(default_factory=Counter)
    lost_invokes: Counter = field(default_factory=Counter)

    def merge(self, other: "Writes") -> None:
        self.added.update(other.added)
        self.invokes.update(other.invokes)
        self.lost_amount.update(other.lost_amount)
        self.lost_invokes.update(other.lost_invokes)

    def check(self, oid: int, qty: int, audited: int, failures: Failures, where: str) -> None:
        low = oid - 1 + self.added[oid]
        if not low <= qty <= low + self.lost_amount[oid]:
            failures.note(f"{where} @{oid}: qty {qty}, acknowledged restocks give {low}")
        if not self.invokes[oid] <= audited <= self.invokes[oid] + self.lost_invokes[oid]:
            failures.note(
                f"{where} @{oid}: audited {audited} times for {self.invokes[oid]} "
                "acknowledged invokes (decoupled rule not exactly-once)"
            )


# ----------------------------------------------------------------------
# Lanes
# ----------------------------------------------------------------------
class Lane:
    """One client thread's operation stream and what it observed."""

    kind = ""
    #: percentile reported as the lane's tail
    tail = 0.99

    def __init__(self, seed: int, count: int, seed_store: int, hot_share: float) -> None:
        self.count = count
        self.seed_store = seed_store
        self.rng = random.Random(seed)
        self.keys: Iterator[int] = iter(
            KeySampler(self.rng, count, hot_share=hot_share)
        )
        self.latencies: list[float] = []
        #: seconds of measured window this lane ran in (set by ``drive``)
        self.window = 0.0
        self.attempted = 0
        self.failed = 0
        self.acked = 0
        self.acked_seconds = 0.0
        self.statuses: Counter[int] = Counter()
        self.failures = Failures()

    def next_args(self) -> Any:
        return next(self.keys)

    def call(self, client: Any, args: Any) -> Any:
        raise NotImplementedError

    def verify(self, args: Any, reply: Any) -> None:
        raise NotImplementedError

    def lost(self, args: Any) -> None:
        """The request failed: its effect on the store is unknown."""

    def check_item(self, oid: int, record: dict[str, Any]) -> dict[str, Any]:
        name, _qty, price = item_values(self.seed_store, oid - 1)
        attrs = record["attrs"]
        if record["class"] != "Item" or attrs["name"] != name or attrs["price"] != price:
            self.failures.note(f"{self.kind} @{oid}: not the loaded item: {record}")
        return attrs


class InvokeLane(Lane):
    kind = "invoke"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.writes = Writes()

    def next_args(self) -> tuple[int, int]:
        return next(self.keys), self.rng.randint(1, 5)

    def call(self, client: Any, args: tuple[int, int]) -> Any:
        return client.invoke(args[0], "restock", args[1])

    def verify(self, args: tuple[int, int], reply: Any) -> None:
        oid, amount = args
        self.writes.added[oid] += amount
        self.writes.invokes[oid] += 1
        # Other lanes may restock the same Item, so this is a lower bound.
        if not isinstance(reply, int) or reply < oid - 1 + self.writes.added[oid]:
            self.failures.note(f"invoke @{oid} +{amount} returned {reply!r}")

    def lost(self, args: tuple[int, int]) -> None:
        self.writes.lost_amount[args[0]] += args[1]
        self.writes.lost_invokes[args[0]] += 1


class GetLane(Lane):
    kind = "get"

    def __init__(self, *args: Any, writers: bool) -> None:
        super().__init__(*args)
        self.writers = writers
        self.seen: dict[int, int] = {}

    def call(self, client: Any, oid: int) -> Any:
        return client.get(oid)

    def verify(self, oid: int, record: dict[str, Any]) -> None:
        qty = self.check_item(oid, record)["qty"]
        floor = self.seen.get(oid, oid - 1)
        if qty < floor or (not self.writers and qty != floor):
            self.failures.note(f"get @{oid}: qty {qty}, expected {floor} or more")
        self.seen[oid] = qty


class QueryLane(Lane):
    kind = "query"
    # Upper quartile of all queries, about the p94 of the 80 % on recent
    # keys.  The percentiles above it fall among the uniform-key queries,
    # whose cost spreads evenly over 0..25,000 rows fetched: there a quantile
    # of a few hundred samples moves by 15 % from run to run.
    tail = 0.75
    ROWS = 20

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.rows_returned = 0

    def next_args(self) -> int:
        return min(next(self.keys) - 1, self.count - self.ROWS)

    def call(self, client: Any, low: int) -> Any:
        return client.query(
            "Item", where=[["qty", ">=", low], ["qty", "<", low + self.ROWS]]
        )

    def verify(self, low: int, rows: list[dict[str, Any]]) -> None:
        self.rows_returned += len(rows)
        oids = sorted(row["oid"] for row in rows)
        if oids != list(range(low + 1, low + 1 + self.ROWS)):
            self.failures.note(f"query qty in [{low}, {low + self.ROWS}): got OIDs {oids}")
        for row in rows:
            if self.check_item(row["oid"], row)["qty"] != row["oid"] - 1:
                self.failures.note(f"query row @{row['oid']}: {row}")


def make_lanes(workload: str, seed: int, count: int) -> list[Lane]:
    a, b = seed * 2 + 1, seed * 2 + 2
    if workload == "rule_write":
        return [InvokeLane(a, count, seed, 0.0), InvokeLane(b, count, seed, 0.0)]
    if workload == "read_mix":
        return [QueryLane(a, count, seed, 0.8), GetLane(b, count, seed, 0.8, writers=False)]
    if workload == "mixed_rw":
        return [GetLane(a, count, seed, 0.8, writers=True), InvokeLane(b, count, seed, 0.8)]
    raise ValueError(workload)


STORE_ITEMS = {"rule_write": 2_000, "read_mix": 50_000, "mixed_rw": 50_000}
#: Workloads whose lanes run one after the other, with each lane's share of
#: the window (a query is ~40 times slower than a get and needs the samples).
#: Run together, a get waits for the GIL behind a query that fetches
#: thousands of rows, in steps of the interpreter's 5 ms switch interval; its
#: median then moved by 17 % between seeds, too much to gate on.  mixed_rw is
#: where two lanes work against each other.
ONE_AT_A_TIME = {"read_mix": (0.7, 0.3)}


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def _client_loop(
    lane: Lane, url: str, begin: float, end: float, stop: threading.Event
) -> None:
    from repro.server.client import RuleClient, ServerError

    client = RuleClient(url, timeout=30.0)
    while True:
        args = lane.next_args()
        start = perf_counter()
        if start >= end or stop.is_set():
            return
        lane.attempted += 1
        try:
            reply = lane.call(client, args)
        except (ServerError, OSError) as exc:
            lane.failed += 1
            lane.statuses[getattr(exc, "status", 0)] += 1
            lane.lost(args)
            lane.failures.note(f"{lane.kind} {args} failed: {exc}")
            continue
        done = perf_counter()
        lane.acked += 1
        lane.acked_seconds += done - start
        lane.statuses[200] += 1
        if start >= begin and done <= end:
            lane.latencies.append(done - start)
        lane.verify(args, reply)


def drive(
    server: ServerChild, lanes: list[Lane], warmup: float, seconds: float,
    shares: tuple[float, ...] | None = None,
) -> float:
    """Run the lanes for ``warmup + seconds``: together, or with ``shares``
    one after the other, each for its share of the time; returns when the
    last reply came."""
    if shares is not None:
        for lane, share in zip(lanes, shares):
            done = drive(server, [lane], warmup * share, seconds * share)
        return done
    begin = perf_counter() + warmup
    end = begin + seconds
    stop = threading.Event()
    crashes: list[BaseException] = []

    def client(lane: Lane) -> None:
        lane.window = seconds
        try:
            _client_loop(lane, server.url, begin, end, stop)
        except BaseException as exc:  # a bug in a lane must fail the run
            crashes.append(exc)
            stop.set()

    threads = [threading.Thread(target=client, args=(lane,)) for lane in lanes]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # on SIGINT: let the threads finish their request and go
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if crashes:
        raise crashes[0]
    return perf_counter()


# ----------------------------------------------------------------------
# Checks after the window
# ----------------------------------------------------------------------
def _write_totals(lanes: list[Lane]) -> Writes:
    totals = Writes()
    for lane in lanes:
        if isinstance(lane, InvokeLane):
            totals.merge(lane.writes)
    return totals


def drain_workers(server: ServerChild, last_reply: float, failures: Failures) -> float:
    """Wait for the decoupled backlog to empty; seconds since the last reply."""
    client = server.client()
    deadline = time.monotonic() + 60.0
    while True:
        pool = client.stats()["worker_pool"]
        if pool["backlog"] == 0 and pool["completed"] == pool["submitted"]:
            return perf_counter() - last_reply
        if time.monotonic() > deadline:
            failures.note(f"worker pool never drained: {pool}")
            return perf_counter() - last_reply
        time.sleep(0.005)


def check_live(server: ServerChild, lanes: list[Lane], seed: int, failures: Failures) -> None:
    """Fired-rule counts, and a sample of written Items, over HTTP."""
    totals = _write_totals(lanes)
    acked = sum(totals.invokes.values())
    lost = sum(totals.lost_invokes.values())
    client = server.client()
    stats = client.stats()
    scheduler = stats["scheduler"]
    fired = scheduler["fired"]
    if not RULES_PER_INVOKE * acked <= fired <= RULES_PER_INVOKE * (acked + lost):
        failures.note(f"{fired} rules fired for {acked} acknowledged invokes")
    for key in ("errors", "decoupled_errors", "decoupled_aborts"):
        if scheduler[key]:
            failures.note(f"scheduler reports {key} = {scheduler[key]}")
    touched = sorted(totals.invokes)
    sample = random.Random(seed).sample(touched, min(LIVE_SAMPLE, len(touched)))
    for oid in sample:
        attrs = client.get(oid)["attrs"]
        totals.check(oid, attrs["qty"], attrs["audited"], failures, "live")


def reopen_and_check(
    store: Path, count: int, seed: int, lanes: list[Lane], failures: Failures
) -> tuple[float, int]:
    """Open the killed server's store embedded; every Item must hold every
    acknowledged write.  Returns ``(reopen seconds, transactions replayed)``.

    SIGKILL leaves the OS page cache intact, so this proves the process kept
    nothing acknowledged in its own memory only, not that a power loss would
    be survived.
    """
    import app
    from repro.oodb.database import Database
    from repro.oodb.oid import Oid

    totals = _write_totals(lanes)
    start = perf_counter()
    db = Database(store)
    reopen_s = perf_counter() - start
    try:
        assert db.last_recovery is not None
        replayed = len(db.last_recovery.committed_txns)
        if db.object_count() != count:
            failures.note(f"reopened store holds {db.object_count()} objects, loaded {count}")
        for index in range(count):
            item = db.fetch(Oid(index + 1))
            name, _qty, price = item_values(seed, index)
            if not isinstance(item, app.Item) or item.name != name or item.price != price:
                failures.note(f"reopened @{index + 1} is not the loaded item")
            totals.check(index + 1, item.qty, item.audited, failures, "reopened")
    finally:
        db.close()
    return reopen_s, replayed


# ----------------------------------------------------------------------
# The runs
# ----------------------------------------------------------------------
def run(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path
) -> dict[str, Any]:
    count = STORE_ITEMS[workload] // (10 if smoke else 1)
    env = environment(work)
    if trace:
        return _run_traced(workload, seed, seconds, count, env, work)
    return _run_end_to_end(workload, seed, seconds, count, env, work, smoke)


def _setup(store: Path, count: int, seed: int) -> tuple[ServerChild, float]:
    start = perf_counter()
    build_store(store, count, seed)
    server = ServerChild(store)
    return server, perf_counter() - start


def _run_end_to_end(
    workload: str, seed: int, seconds: float, count: int,
    env: dict[str, Any], work: Path, smoke: bool,
) -> dict[str, Any]:
    failures = Failures()
    setups: list[float] = []
    repeats = 1 if smoke else SETUPS
    for attempt in range(repeats):
        store = work / f"store-{attempt}"
        server, took = _setup(store, count, seed)
        setups.append(took)
        if attempt + 1 < repeats:
            server.kill()
            shutil.rmtree(store)
    info: dict[str, Any] = {}
    with server:
        lanes = make_lanes(workload, seed, count)
        writes = any(isinstance(lane, InvokeLane) for lane in lanes)
        shares = ONE_AT_A_TIME.get(workload)
        heap_bytes = (store / "data.heap").stat().st_size
        wal_start = server.wal_bytes()
        last_reply = drive(server, lanes, seconds * WARMUP_SHARE, seconds, shares)
        if writes:
            info["workers.drain_s"] = drain_workers(server, last_reply, failures)
            check_live(server, lanes, seed, failures)
            acked = sum(lane.acked for lane in lanes if isinstance(lane, InvokeLane))
            info["wal_bytes_per_write"] = (server.wal_bytes() - wal_start) / max(acked, 1)
        peak_rss = server.peak_rss_mb()
    if writes:
        info["recovery.reopen_s"], info["recovery.txns_replayed"] = reopen_and_check(
            store, count, seed, lanes, failures
        )
    info["heap_bytes_per_object"] = heap_bytes / count
    for lane in lanes:
        failures.extend(lane.failures)
    a, b = (lane_summary(lane.latencies, lane.window, lane.tail) for lane in lanes)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "a_ops_s": a["ops_s"], "a_p50_us": a["p50_us"], "a_tail_us": a["tail_us"],
            "b_ops_s": b["ops_s"], "b_p50_us": b["p50_us"], "b_tail_us": b["tail_us"],
            "peak_rss_mb": peak_rss,
        },
        "lanes": [a, b],
        "attempted": sum(lane.attempted for lane in lanes),
        "failed": sum(lane.failed for lane in lanes),
        "failures": list(failures),
        "env": env,
        "info": {**info, "setup_s_all": setups, "items": count},
    }


def _run_traced(
    workload: str, seed: int, seconds: float, count: int,
    env: dict[str, Any], work: Path,
) -> dict[str, Any]:
    failures = Failures()
    shares = ONE_AT_A_TIME.get(workload)
    plain_store, traced_store = work / "store-plain", work / "store-traced"
    build_store(plain_store, count, seed)
    shutil.copytree(plain_store, traced_store)

    # Leg 1, tracing off: the throughput the traced leg is compared with.
    plain_seconds = seconds * UNTRACED_SHARE
    plain_lanes = make_lanes(workload, seed, count)
    with ServerChild(plain_store) as server:
        drive(server, plain_lanes, plain_seconds * WARMUP_SHARE, plain_seconds, shares)
    plain_ops = sum(len(lane.latencies) / lane.window for lane in plain_lanes)
    shutil.rmtree(plain_store)

    # Leg 2, tracing on.  No warm-up is cut off: the spans cover the server's
    # whole life, so the client side counts every operation too.
    traced_seconds = seconds - plain_seconds
    lanes = make_lanes(workload, seed, count)
    writes = any(isinstance(lane, InvokeLane) for lane in lanes)
    extra: dict[str, float] = {"env.fsync_probe_us": env["env.fsync_probe_us"]}
    with ServerChild(traced_store, trace_out=work / "trace.json") as server:
        heap_bytes = (traced_store / "data.heap").stat().st_size
        wal_start = server.wal_bytes()
        last_reply = drive(server, lanes, 0.0, traced_seconds, shares)
        if writes:
            extra["workers.drain_s"] = drain_workers(server, last_reply, failures)
        extra["wal.bytes"] = server.wal_bytes() - wal_start
        # Before the live check, whose own requests the lanes do not count.
        trace = server.read_trace()
        if writes:
            check_live(server, lanes, seed, failures)
    extra["recovery.reopen_s"], extra["recovery.txns_replayed"] = reopen_and_check(
        traced_store, count, seed, lanes, failures
    )
    extra["heap.bytes_per_object"] = heap_bytes / count
    traced_ops = sum(len(lane.latencies) / lane.window for lane in lanes)
    extra["trace.overhead_ratio"] = plain_ops / traced_ops

    client = ClientSide()
    for lane in plain_lanes:
        failures.extend(lane.failures)
    for lane in lanes:
        failures.extend(lane.failures)
        done, spent = client.kinds.get(lane.kind, (0, 0.0))
        client.kinds[lane.kind] = (done + lane.acked, spent + lane.acked_seconds)
        for status, times in lane.statuses.items():
            client.statuses[status] = client.statuses.get(status, 0) + times
        client.rows_returned += getattr(lane, "rows_returned", 0)
    metrics = layer_metrics(trace, client, extra)
    if workload == "rule_write" and metrics["trace.engine_coverage"] < 0.9:
        failures.note(
            f"spans cover {metrics['trace.engine_coverage']:.2f} of the engine's "
            "time under run_transaction; the stage table needs 0.9"
        )
    for kind in ("get", "query"):
        taken = trace["stages"].get(kind, {}).get("locks.acquire", [0])[0]
        if taken:
            failures.note(f"{kind} requests took {taken} object locks; snapshots take none")
    return {
        "metrics": metrics,
        "stage_table": stage_tables(trace, client),
        "spans": trace["spans"],
        "attempted": sum(lane.attempted for lane in lanes + plain_lanes),
        "failed": sum(lane.failed for lane in lanes + plain_lanes),
        "failures": list(failures),
        "env": env,
        "info": {"items": count, "untraced_ops_s": plain_ops, "traced_ops_s": traced_ops},
    }
