"""Decoupled-rule worker pool: bounded handoff, retry, attribution.

The pool itself (``repro.core.workers``) runs plain callables; the
interesting behavior is the scheduler/Sentinel integration — decoupled
rules leaving the committing thread, deadlock-retry between two workers
writing the same object pair in opposite orders, saturation falling back
inline, and the audit trail naming the worker thread that ran each rule.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import Reactive, Sentinel, event_method
from repro.core.workers import RuleWorkerPool
from repro.obs.audit import audit_log, read_entries
from repro.oodb import Database, Persistent
from repro.oodb.schema import ClassRegistry


class Knob(Reactive):
    @event_method
    def turn(self, amount: int = 1) -> int:
        return amount


@pytest.fixture
def registry():
    return ClassRegistry()


@pytest.fixture
def pooled(tmp_path, registry):
    """Sentinel over a locking database with a 2-worker pool attached."""
    db = Database(str(tmp_path / "db"), registry=registry, locking=True)
    system = Sentinel(db=db, adopt_class_rules=False)
    system.enable_worker_pool(max_workers=2, queue_limit=8)
    with system:
        yield system
    system.close()


class TestPoolMechanics:
    def test_rejects_when_full_and_counts(self):
        pool = RuleWorkerPool(max_workers=1, queue_limit=1)
        release = threading.Event()
        started = threading.Event()

        def blocker() -> None:
            started.set()
            release.wait(10.0)

        assert pool.submit(blocker) is True
        started.wait(5.0)
        # The single slot is taken; the next submit must be rejected,
        # leaving the job with the caller.
        assert pool.submit(lambda: None, label="overflow") is False
        release.set()
        assert pool.drain(timeout=10.0) is True
        stats = pool.stats()
        assert stats["rejected"] == 1
        assert stats["completed"] == 1
        assert stats["backlog"] == 0
        pool.shutdown()

    def test_job_exception_is_isolated(self):
        pool = RuleWorkerPool(max_workers=1, queue_limit=4)

        def boom() -> None:
            raise RuntimeError("job bug")

        assert pool.submit(boom) is True
        assert pool.drain(timeout=10.0) is True
        assert pool.stats()["failed"] == 1
        # The worker survived: it still runs later jobs.
        ran = threading.Event()
        assert pool.submit(ran.set) is True
        assert pool.drain(timeout=10.0) is True
        assert ran.is_set()
        pool.shutdown()

    def test_closed_pool_refuses_work(self):
        pool = RuleWorkerPool(max_workers=1, queue_limit=4)
        pool.shutdown()
        assert pool.submit(lambda: None) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            RuleWorkerPool(max_workers=0)
        with pytest.raises(ValueError):
            RuleWorkerPool(queue_limit=0)
        with pytest.raises(ValueError):
            RuleWorkerPool(max_retries=-1)


class TestDecoupledOffThread:
    def test_decoupled_rule_runs_on_worker_thread(self, pooled):
        db = pooled.db
        ran_on: list[str] = []
        rule = pooled.create_rule(
            "offthread", "end Knob::turn(int amount)",
            action=lambda ctx: ran_on.append(threading.current_thread().name),
            coupling="decoupled",
        )
        knob = Knob()
        knob.subscribe(rule)
        with db.transaction():
            knob.turn()
        assert pooled.drain_decoupled(timeout=10.0) is True
        assert len(ran_on) == 1
        assert ran_on[0].startswith("rule-worker")
        assert pooled.scheduler.stats.decoupled == 1

    def test_triggering_thread_does_not_pay_rule_latency(self, pooled):
        db = pooled.db
        gate = threading.Event()
        rule = pooled.create_rule(
            "slow", "end Knob::turn(int amount)",
            action=lambda ctx: gate.wait(10.0),
            coupling="decoupled",
        )
        knob = Knob()
        knob.subscribe(rule)
        start = time.perf_counter()
        with db.transaction():
            knob.turn()
        handoff = time.perf_counter() - start
        # The commit returned while the rule is still blocked on `gate`.
        assert handoff < 5.0
        assert pooled.scheduler.worker_pool.backlog() == 1
        gate.set()
        assert pooled.drain_decoupled(timeout=10.0) is True

    def test_saturated_pool_falls_back_inline(self, tmp_path, registry):
        db = Database(
            str(tmp_path / "db"), registry=registry, locking=True
        )
        system = Sentinel(db=db, adopt_class_rules=False)
        system.enable_worker_pool(max_workers=1, queue_limit=1)
        with system:
            release = threading.Event()
            ran_on: list[str] = []

            def action(ctx):
                name = threading.current_thread().name
                ran_on.append(name)
                # Only the pooled firing holds the slot; the inline one
                # runs on this thread, before release.set() is reached.
                if name.startswith("rule-worker"):
                    release.wait(5.0)

            rule = system.create_rule(
                "sat", "end Knob::turn(int amount)",
                action=action, coupling="decoupled",
            )
            knob = Knob()
            knob.subscribe(rule)
            with db.transaction():
                knob.turn()   # occupies the only slot
                knob.turn()   # rejected -> must run inline post-commit
            release.set()
            assert system.drain_decoupled(timeout=10.0) is True
            assert len(ran_on) == 2
            assert any(name.startswith("rule-worker") for name in ran_on)
            assert pooled_stats_rejected(system) >= 1
            assert system.scheduler.stats.decoupled_rejected >= 1
        system.close()


def pooled_stats_rejected(system) -> int:
    pool = system.scheduler.worker_pool
    return 0 if pool is None else pool.stats()["rejected"]


class TestWorkerDeadlockRetry:
    def test_opposite_order_rules_converge_with_audit_trail(
        self, pooled, tmp_path
    ):
        """Two decoupled rules write the same object pair in opposite

        orders from two worker threads.  Deadlocks abort one victim,
        the retry loop reruns it, every increment survives, and the
        audit trail names the worker thread for each firing."""
        db = pooled.db
        registry = db.registry

        class Pair(Persistent, registry=registry):
            def __init__(self) -> None:
                super().__init__()
                self.value = 0

        with db.transaction():
            first = db.add(Pair())
            second = db.add(Pair())

        audit_log.open(str(tmp_path / "audit.jsonl"))
        try:
            def bump(order):
                def action(ctx):
                    for oid in order:
                        db.fetch(oid).value += 1
                return action

            forward = pooled.create_rule(
                "fwd", "end Knob::turn(int amount)",
                action=bump((first, second)), coupling="decoupled",
            )
            backward = pooled.create_rule(
                "bwd", "end Knob::turn(int amount)",
                action=bump((second, first)), coupling="decoupled",
            )
            knob = Knob()
            knob.subscribe(forward)
            knob.subscribe(backward)

            rounds = 20
            for _ in range(rounds):
                with db.transaction():
                    knob.turn()
                # Drain each round: keeps the bounded queue from
                # overflowing into the inline fallback, so every firing
                # below is attributable to a worker thread — while the
                # two jobs of each round still race each other.
                assert pooled.drain_decoupled(timeout=30.0) is True

            stats = pooled.scheduler.stats
            assert stats.decoupled == 2 * rounds
            assert stats.decoupled_errors == 0
            # Converged: every one of the 2*rounds rule executions
            # applied both increments exactly once.
            with db.snapshot() as snap:
                assert snap.record(first)["attrs"]["value"] == 2 * rounds
                assert snap.record(second)["attrs"]["value"] == 2 * rounds
            assert db.locks.waiting_edges() == {}

            entries = list(read_entries(str(tmp_path / "audit.jsonl")))
            fired = [e for e in entries if e["outcome"] == "fired"]
            assert len(fired) == 2 * rounds
            workers = {e.get("thread", "") for e in fired}
            assert all(name.startswith("rule-worker") for name in workers)
        finally:
            audit_log.close()
