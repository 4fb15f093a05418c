"""Self-monitoring: engine health signals as first-class ECA events."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.events.primitive import Primitive
from repro.core.interface import event_method
from repro.core.reactive import Reactive
from repro.core.system import Sentinel
from repro.obs import engine_signals, metrics
from repro.obs.audit import read_entries
from repro.obs.sysmon import SystemMonitor, occurrence_from_sysmon


class _Stock(Reactive):
    def __init__(self) -> None:
        super().__init__()
        self.price = 0.0

    @event_method
    def set_price(self, price: float) -> None:
        self.price = price

    @event_method
    def audit(self) -> None:
        pass


@pytest.fixture
def sentinel():
    with Sentinel(error_policy="isolate", adopt_class_rules=False) as s:
        yield s
        s.close()


class TestMonitorEvents:
    def test_rule_fired_raises_a_monitorable_event(self, sentinel):
        monitor = sentinel.system_monitor()
        stock = _Stock()
        sentinel.monitor(
            [stock],
            on="end _Stock::set_price(float price)",
            action=lambda ctx: None,
            name="domain",
        )
        seen = []
        sentinel.monitor(
            [monitor],
            on="end SystemMonitor::rule_fired(rule, seq, coupling, latency_us)",
            action=lambda ctx: seen.append(ctx.occurrence.parameters()),
            name="meta",
        )
        stock.set_price(10.0)
        assert monitor.fired == 1
        [params] = seen
        assert params["rule"] == "domain"
        assert params["coupling"] == "immediate"
        assert params["latency_us"] >= 0.0

    def test_condition_rejected_event(self, sentinel):
        monitor = sentinel.system_monitor()
        stock = _Stock()
        sentinel.monitor(
            [stock],
            on="end _Stock::set_price(float price)",
            condition=lambda ctx: False,
            action=lambda ctx: None,
            name="picky",
        )
        seen = []
        sentinel.monitor(
            [monitor],
            on="end SystemMonitor::condition_rejected(rule, seq, coupling)",
            action=lambda ctx: seen.append(ctx.occurrence.parameters()["rule"]),
            name="meta",
        )
        stock.set_price(1.0)
        assert seen == ["picky"]
        assert monitor.rejected == 1

    def test_txn_aborted_event(self, sentinel, tmp_path):
        with Sentinel(path=str(tmp_path / "db")) as s:
            monitor = s.system_monitor()
            seen = []
            s.monitor(
                [monitor],
                on="end SystemMonitor::txn_aborted(txn_id, changes)",
                action=lambda ctx: seen.append(ctx.occurrence.parameters()),
                name="abort-watch",
            )
            txn = s.db.txn_manager.begin()
            s.db.txn_manager.rollback(txn)
            assert monitor.txn_aborts == 1
            [params] = seen
            assert params["txn_id"] == txn.id
            s.close()

    def test_scheduler_depth_exceeded_event(self, sentinel):
        monitor = sentinel.system_monitor(depth_threshold=2)
        stock = _Stock()
        sentinel.monitor(
            [stock],
            on="end _Stock::set_price(float price)",
            action=lambda ctx: stock.audit(),
            name="cascade-1",
        )
        sentinel.monitor(
            [stock],
            on="end _Stock::audit()",
            action=lambda ctx: None,
            name="cascade-2",
        )
        stock.set_price(5.0)  # cascade-2 runs at depth 2 == threshold
        assert monitor.depth_alerts == 1

    def test_wal_fsync_slow_event(self, tmp_path):
        with Sentinel(path=str(tmp_path / "db")) as s:
            monitor = s.system_monitor(fsync_slow_us=0.0)  # everything slow
            with s.transaction():
                s.db.add(_Stock())
            assert monitor.slow_fsyncs >= 1
            s.close()

    def test_counters_published_while_attached(self, sentinel):
        monitor = sentinel.system_monitor()
        assert metrics.snapshot()["sysmon.rule_fired"] == 0
        monitor.detach()
        assert "sysmon.rule_fired" not in metrics.snapshot()
        assert not engine_signals.active


class TestReentrancyGuards:
    def test_sysmon_rule_firing_does_not_emit_sysmon_events(self, sentinel):
        monitor = sentinel.system_monitor()
        stock = _Stock()
        sentinel.monitor(
            [stock],
            on="end _Stock::set_price(float price)",
            action=lambda ctx: None,
            name="domain",
        )
        meta_fired = []
        sentinel.monitor(
            [monitor],
            on="end SystemMonitor::rule_fired(rule, seq, coupling, latency_us)",
            action=lambda ctx: meta_fired.append(1),
            name="meta",
        )
        stock.set_price(1.0)
        # The domain firing raised one rule_fired event; the meta rule's
        # own firing was suppressed — no recursion, one delivery.
        assert meta_fired == [1]
        assert monitor.fired == 1
        assert engine_signals.suppression_depth == 0

    def test_receive_is_not_reentrant(self, sentinel):
        monitor = sentinel.system_monitor()
        object.__setattr__(monitor, "_emitting", True)
        monitor._receive("rule_fired", {
            "rule": "r", "seq": 1, "coupling": "immediate", "latency_us": 0.0,
        })
        assert monitor.dropped_reentrant == 1
        assert monitor.fired == 0
        object.__setattr__(monitor, "_emitting", False)

    def test_occurrence_from_sysmon_detects_constituents(self, sentinel):
        monitor = sentinel.system_monitor()
        captured = []
        sentinel.monitor(
            [monitor],
            on="end SystemMonitor::rule_error(rule, seq, coupling, error)",
            action=lambda ctx: captured.append(ctx.occurrence),
            name="meta",
        )
        stock = _Stock()
        sentinel.monitor(
            [stock],
            on="end _Stock::set_price(float price)",
            action=lambda ctx: 1 / 0,
            name="broken",
        )
        stock.set_price(1.0)
        [occurrence] = captured
        assert occurrence_from_sysmon(occurrence)


class TestEndToEnd:
    def test_rule_error_guard_disables_rule_audit_and_metrics(
        self, sentinel, tmp_path
    ):
        """The acceptance scenario: a rule on the sysmon ``rule_error``
        event disables the offending rule, and the guard's firing shows
        up in both the audit trail and the ``/metrics`` output."""
        audit_path = str(tmp_path / "audit.jsonl")
        sentinel.enable_audit(audit_path)
        monitor = sentinel.system_monitor()

        stock = _Stock()
        flaky = sentinel.monitor(
            [stock],
            on="end _Stock::set_price(float price)",
            action=lambda ctx: 1 / 0,
            name="flaky",
        )
        sentinel.monitor(
            [monitor],
            on="end SystemMonitor::rule_error(rule, seq, coupling, error)",
            action=lambda ctx: sentinel.rules.get(
                ctx.occurrence.parameters()["rule"]
            ).disable(),
            name="guard",
        )

        stock.set_price(1.0)
        assert not flaky.enabled
        stock.set_price(2.0)  # disabled: no second error
        assert monitor.errors == 1

        entries = list(read_entries(audit_path))
        outcomes = [(e["rule"], e["outcome"]) for e in entries]
        assert ("flaky", "error") in outcomes
        assert ("guard", "fired") in outcomes

        server = sentinel.serve_metrics()
        body = urllib.request.urlopen(server.url + "/metrics").read().decode()
        assert 'rule_firings_total{outcome="fired",rule="guard"} 1' in body
        assert 'rule_firings_total{outcome="error",rule="flaky"} 1' in body

    def test_sequence_event_over_rule_errors(self, sentinel):
        """Composite (Sequence) events work over sysmon primitives: the
        guard only trips on the *second* error."""
        monitor = sentinel.system_monitor()
        stock = _Stock()
        flaky = sentinel.monitor(
            [stock],
            on="end _Stock::set_price(float price)",
            action=lambda ctx: 1 / 0,
            name="flaky",
        )
        err_a = Primitive("end SystemMonitor::rule_error(rule, seq, coupling, error)")
        err_b = Primitive("end SystemMonitor::rule_error(rule, seq, coupling, error)")
        sentinel.monitor(
            [monitor],
            on=err_a >> err_b,
            action=lambda ctx: sentinel.rules.get(
                ctx.occurrence.parameters()["rule"]
            ).disable(),
            name="two-strikes",
        )
        stock.set_price(1.0)
        assert flaky.enabled  # one strike: sequence incomplete
        stock.set_price(2.0)
        assert not flaky.enabled  # second strike trips the guard
        assert monitor.errors == 2


class TestStandaloneAttach:
    def test_attach_detach_manage_hub_state(self):
        monitor = SystemMonitor()
        assert not engine_signals.active
        monitor.attach(depth_threshold=5, fsync_slow_us=123.0)
        assert engine_signals.active
        assert engine_signals.depth_threshold == 5
        assert engine_signals.fsync_slow_us == 123.0
        monitor.detach()
        assert not engine_signals.active

    def test_unknown_signal_kind_is_ignored(self):
        monitor = SystemMonitor().attach()
        engine_signals.emit("no_such_kind", x=1)
        monitor.detach()

    def test_monitor_counts_serialize(self):
        monitor = SystemMonitor()
        assert json.dumps(monitor._counts())  # plain ints, JSON-safe


class TestWorkerPoolSaturation:
    """Satellite e2e: pool breach -> sysmon signal -> ECA rule + /healthz."""

    def test_breach_fires_eca_rule_and_degrades_healthz(self, tmp_path):
        import threading

        from repro.oodb import Database

        db = Database(str(tmp_path / "db"), locking=True)
        system = Sentinel(error_policy="isolate", adopt_class_rules=False, db=db)
        with system:
            pool = system.enable_worker_pool(max_workers=1, queue_limit=1)
            monitor = system.system_monitor()
            breaches = []
            system.monitor(
                [monitor],
                on=(
                    "end SystemMonitor::worker_pool_saturated"
                    "(backlog, queue_limit, rule)"
                ),
                action=lambda ctx: breaches.append(ctx.occurrence.parameters()),
                name="pool-guard",
            )

            gate = threading.Event()
            blocker = system.create_rule(
                "blocker", "end _Stock::audit()",
                # Only the pool slot's holder blocks: the second firing,
                # rejected to inline, runs on this thread and must not.
                action=lambda ctx: (
                    threading.current_thread().name.startswith("rule-worker")
                    and gate.wait(10.0)
                ),
                coupling="decoupled",
            )
            stock = _Stock()
            stock.subscribe(blocker)

            try:
                with db.transaction():
                    stock.audit()   # occupies the single pool slot
                deadline = time.time() + 5.0
                while pool.backlog() < 1 and time.time() < deadline:
                    time.sleep(0.01)
                assert pool.backlog() == 1

                # /healthz flags the saturated pool while the slot is held.
                server = system.serve_metrics()
                try:
                    urllib.request.urlopen(server.url + "/healthz")
                    raise AssertionError("expected 503 while saturated")
                except urllib.error.HTTPError as err:
                    body = json.load(err)
                    assert err.code == 503
                assert body["status"] == "degraded"
                assert not body["checks"]["worker_pool"]["ok"]
                assert "backlog 1/1" in body["checks"]["worker_pool"]["detail"]

                # A second decoupled firing cannot get a slot: the engine
                # emits worker_pool_saturated and the ECA rule sees it.
                with db.transaction():
                    stock.audit()
                assert monitor.pool_saturations == 1
                assert len(breaches) == 1
                assert breaches[0]["rule"] == "blocker"
                assert breaches[0]["queue_limit"] == 1
            finally:
                gate.set()
            assert system.drain_decoupled(timeout=10.0) is True

            # Healthy again once the backlog drains.
            response = urllib.request.urlopen(server.url + "/healthz")
            report = json.load(response)
            assert report["checks"]["worker_pool"]["ok"]
        system.close()
