"""``embedded_events``: the event -> rule pipeline with nothing around it.

An in-process ``Sentinel`` over ``Database(None)``: no server, no locks, no
WAL, no heap.  1,000 transient objects of the paper's domain classes, 38
rules (class-level, instance-level and composite; immediate, deferred and
decoupled), and a seeded ``EventStreamGenerator`` stream run in transactions
of 20 method invocations, a quarter of them on objects nobody subscribed to.

Lane A is the stream (one operation = one transaction).  Lane B is the cost
the paper argues about: a subscribed reactive invocation minus the same
method on a passive object, from GC-paused interleaved trials.
"""

from __future__ import annotations

import gc
import random
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from harness import environment, lane_summary, percentile, vm_hwm_mb
from stages import ClientSide, layer_metrics, stage_tables

from repro.core import Notifiable, Reactive, event_method
from repro.core.dsl import parse_event
from repro.core.system import Sentinel
from repro.obs.metrics import metrics as engine_metrics
from repro.oodb import Persistent
from repro.oodb.database import Database
from repro.workloads import Account, Employee, EventStreamGenerator, Patient, Stock

SETUPS = 7
TXN_SIZE = 20
#: The stream is a cycle of this many transactions, generated once: long
#: enough that a lane's p99 is not the few heaviest transactions of one seed.
CYCLE_TXNS = 4000
#: Composite-rule counts are compared after this many transactions.
COMPOSITE_CHECK_TXNS = 500
#: Share of the window spent on the overhead trials.
TRIAL_SHARE = 0.2
TRIAL_CALLS = 2000
UNTRACED_SHARE = 0.4

#: class -> (objects, of which subscribed, objects per rule group)
POPULATION = {
    Stock: (400, 400, 0),  # class-level rules reach every Stock
    Employee: (300, 200, 10),
    Account: (200, 150, 10),
    Patient: (100, 0, 0),
}
METHODS: dict[type, dict[str, Callable[[random.Random], tuple]]] = {
    Stock: {
        "set_price": lambda rng: (round(rng.uniform(10.0, 500.0), 2),),
        "get_price": lambda rng: (),
    },
    Employee: {
        "set_salary": lambda rng: (round(rng.uniform(30_000, 80_000), 2),),
        "change_salary": lambda rng: (round(rng.uniform(10, 500), 2),),
    },
    Account: {
        "deposit": lambda rng: (round(rng.uniform(10, 100), 2),),
        "withdraw": lambda rng: (round(rng.uniform(1, 5), 2),),
    },
    Patient: {
        "record_temperature": lambda rng: (round(rng.uniform(36, 40), 1),),
        "record_heart_rate": lambda rng: (rng.randrange(50, 140),),
    },
}
COUPLINGS = ("immediate", "deferred", "decoupled")
# Account.withdraw raises its event before the method body, deposit after.
COMPOSITES = (
    "end Account::deposit(float amount) then begin Account::withdraw(float amount)",
    "end Account::deposit(float amount) and begin Account::withdraw(float amount)",
    "end Account::deposit(float amount) or begin Account::withdraw(float amount)",
)
PRICE_LIMIT = 250.0
SALARY_LIMIT = 55_000.0


def _noop(ctx: Any) -> None:
    pass


class System:
    """The population and its rule base, wired to one Sentinel."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.sentinel = Sentinel(db=Database(None), adopt_class_rules=False)
        self.objects: dict[type, list[Any]] = {
            Stock: [Stock(f"SYM{i:04d}", round(rng.uniform(10, 500), 2))
                    for i in range(POPULATION[Stock][0])],
            Employee: [Employee(f"emp{i}", round(rng.uniform(30_000, 80_000), 2))
                       for i in range(POPULATION[Employee][0])],
            Account: [Account(f"acct{i}", 1e9) for i in range(POPULATION[Account][0])],
            Patient: [Patient(f"patient{i}") for i in range(POPULATION[Patient][0])],
        }
        create = self.sentinel.create_rule
        #: primitive rules, by the key the stream's expectation uses
        self.primitive: dict[Any, Any] = {}
        self.composite: list[Any] = []
        self._class_rules = []
        for coupling in COUPLINGS:
            rule = create(
                f"stock-{coupling}",
                "end Stock::set_price(float price)",
                condition=(lambda ctx: ctx.param("price") > PRICE_LIMIT)
                if coupling == "immediate" else None,
                action=_noop,
                coupling=coupling,
            )
            Stock._class_consumers.append(rule)
            self._class_rules.append(rule)
            self.primitive["stock", coupling] = rule
        _count, subscribed, per_group = POPULATION[Employee]
        for group in range(subscribed // per_group):
            coupling = COUPLINGS[group % 3]
            members = self.objects[Employee][group * per_group:(group + 1) * per_group]
            self.primitive["employee", group] = self.sentinel.monitor(
                members,
                "end Employee::set_salary(float salary)",
                condition=(lambda ctx: ctx.param("salary") > SALARY_LIMIT)
                if coupling == "immediate" else None,
                action=_noop,
                name=f"employee-{group}-{coupling}",
                coupling=coupling,
            )
        _count, subscribed, per_group = POPULATION[Account]
        for group in range(subscribed // per_group):
            members = self.objects[Account][group * per_group:(group + 1) * per_group]
            expression = COMPOSITES[group % 3]
            if group < 3:
                # Detected centrally: the detector is the subscriber.
                event = self.sentinel.create_event(expression, name=f"accounts-{group}")
                for account in members:
                    account.subscribe(self.sentinel.detector)
                rule = create(f"account-{group}", event, action=_noop,
                              coupling=COUPLINGS[group % 3])
            else:
                rule = self.sentinel.monitor(
                    members, parse_event(expression), action=_noop,
                    name=f"account-{group}", coupling=COUPLINGS[group % 3],
                )
            self.composite.append(rule)

    def close(self) -> None:
        for rule in self._class_rules:
            Stock._class_consumers.remove(rule)
        self.sentinel.close()

    def composite_counts(self) -> list[int]:
        return [rule.times_triggered for rule in self.composite]


class Stream:
    """A cycle of transactions and, per transaction, which primitive rules
    it must trigger and fire."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        classes = list(POPULATION)
        weights = [POPULATION[cls][0] for cls in classes]
        items = {
            cls: EventStreamGenerator(
                POPULATION[cls][0], METHODS[cls], seed=seed * 31 + i
            ).items(CYCLE_TXNS * TXN_SIZE)
            for i, cls in enumerate(classes)
        }
        #: per transaction: [(class, object index, method, args)]
        self.txns: list[list[tuple[type, int, str, tuple]]] = []
        #: per transaction: primitive rule key -> [triggered, fired]
        self.expect: list[dict[Any, list[int]]] = []
        self.passive = 0
        for _ in range(CYCLE_TXNS):
            calls, expect = [], {}
            for cls in rng.choices(classes, weights=weights, k=TXN_SIZE):
                item = next(items[cls])
                calls.append((cls, item.index, item.method, item.args))
                subscribed, per_group = POPULATION[cls][1:]
                if item.index >= subscribed:
                    self.passive += 1
                elif cls is Stock and item.method == "set_price":
                    for coupling in COUPLINGS:
                        fired = coupling != "immediate" or item.args[0] > PRICE_LIMIT
                        self._note(expect, ("stock", coupling), fired)
                elif cls is Employee and item.method == "set_salary":
                    group = item.index // per_group
                    fired = COUPLINGS[group % 3] != "immediate" or item.args[0] > SALARY_LIMIT
                    self._note(expect, ("employee", group), fired)
            self.txns.append(calls)
            self.expect.append(expect)

    @staticmethod
    def _note(expect: dict[Any, list[int]], key: Any, fired: bool) -> None:
        record = expect.setdefault(key, [0, 0])
        record[0] += 1
        record[1] += fired

    def bind(self, system: System) -> list[list[tuple[Callable[..., Any], tuple]]]:
        return [
            [(getattr(system.objects[cls][index], method), args)
             for cls, index, method, args in calls]
            for calls in self.txns
        ]

    def expected_after(self, txns_done: int) -> dict[Any, list[int]]:
        cycles, rest = divmod(txns_done, CYCLE_TXNS)
        total: dict[Any, list[int]] = {}
        for position, expect in enumerate(self.expect):
            times = cycles + (position < rest)
            for key, (triggered, fired) in expect.items():
                record = total.setdefault(key, [0, 0])
                record[0] += triggered * times
                record[1] += fired * times
        return total


def play(
    system: System, stream: Stream, seconds: float, span: Any = None
) -> tuple[list[float], list[int]]:
    """Run the stream for ``seconds`` (and at least to the composite check);
    per-transaction latencies, and the composite rule counts as they stood
    after ``COMPOSITE_CHECK_TXNS`` transactions."""
    calls_of = stream.bind(system)
    transaction = system.sentinel.db.transaction
    latencies: list[float] = []
    checkpoint: list[int] = []
    deadline = perf_counter() + seconds
    with system.sentinel:
        while True:
            calls = calls_of[len(latencies) % CYCLE_TXNS]
            start = perf_counter()
            if span is None:
                with transaction():
                    for call, args in calls:
                        call(*args)
            else:
                with span("client.txn", "txn"), transaction():
                    for call, args in calls:
                        call(*args)
            done = perf_counter()
            latencies.append(done - start)
            if len(latencies) == COMPOSITE_CHECK_TXNS:
                checkpoint = system.composite_counts()
            if done >= deadline and checkpoint:
                return latencies, checkpoint


def check_counts(
    system: System, stream: Stream, txns_done: int, failures: list[str]
) -> None:
    expected = stream.expected_after(txns_done)
    for key, rule in system.primitive.items():
        want = expected.get(key, [0, 0])
        got = [rule.times_triggered, rule.times_fired]
        if got != want:
            failures.append(f"rule {rule.name}: triggered/fired {got}, the stream implies {want}")
    errors = system.sentinel.scheduler.stats.errors
    if errors:
        failures.append(f"scheduler recorded errors: {errors[:3]}")


def check_composites(first: list[int], second: list[int], failures: list[str]) -> None:
    if first != second:
        failures.append(f"composite rule counts differ between two replays: {first} vs {second}")
    if not all(first):
        failures.append(
            f"a composite rule never triggered in {COMPOSITE_CHECK_TXNS} transactions: {first}"
        )


# ----------------------------------------------------------------------
# Lane B: what a subscription costs per call
# ----------------------------------------------------------------------
class PassiveCounter(Persistent):
    def __init__(self) -> None:
        super().__init__()
        self.value = 0

    def bump(self, n: int = 1) -> None:
        self.value += n


class ReactiveCounter(Reactive):
    def __init__(self) -> None:
        super().__init__()
        self.value = 0

    @event_method
    def bump(self, n: int = 1) -> None:
        self.value += n


class NullConsumer(Notifiable):
    def notify(self, occurrence: Any) -> None:
        pass


def overhead_trials(sentinel: Sentinel, seconds: float) -> dict[str, float]:
    passive, subscribed = PassiveCounter(), ReactiveCounter()
    subscribed.subscribe(NullConsumer())

    def per_call_us(bump: Callable[[], None]) -> float:
        start = perf_counter()
        for _ in range(TRIAL_CALLS):
            bump()
        return (perf_counter() - start) / TRIAL_CALLS * 1e6

    overheads: list[float] = []
    subscribed_us: list[float] = []
    deadline = perf_counter() + seconds
    gc.collect()
    gc.disable()
    try:
        with sentinel:
            while perf_counter() < deadline or len(overheads) < 15:
                # Interleaved, and alternating which side goes first.
                if len(overheads) % 2:
                    cost = per_call_us(subscribed.bump)
                    base = per_call_us(passive.bump)
                else:
                    base = per_call_us(passive.bump)
                    cost = per_call_us(subscribed.bump)
                overheads.append(cost - base)
                subscribed_us.append(cost)
    finally:
        gc.enable()
    overheads.sort()
    return {
        "ops_s": 1e6 / statistics.median(subscribed_us),
        "p50_us": percentile(overheads, 0.5),
        "tail_us": percentile(overheads, 0.9),
        "samples": len(overheads),
        "tail": 0.9,
    }


# ----------------------------------------------------------------------
# The runs
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, smoke: bool, work: Path) -> dict[str, Any]:
    env = environment(work)
    stream = Stream(seed)
    if trace:
        return _run_traced(seed, seconds, stream, env)
    failures: list[str] = []
    setups: list[float] = []
    reference: list[int] = []
    for attempt in range(1 if smoke else SETUPS):
        start = perf_counter()
        system = System(seed)
        setups.append(perf_counter() - start)
        if attempt == 0:
            # An untimed replay on a system of its own: the composite counts
            # the measured system must reproduce.
            reference = play(system, stream, 0.0)[1]
        system.close()
    system = System(seed)
    try:
        stream_seconds = seconds * (1 - TRIAL_SHARE)
        latencies, checkpoint = play(system, stream, stream_seconds)
        check_counts(system, stream, len(latencies), failures)
        check_composites(reference, checkpoint, failures)
        lane_b = overhead_trials(system.sentinel, seconds * TRIAL_SHARE)
    finally:
        system.close()
    elapsed = sum(latencies)
    lane_a = lane_summary(latencies, elapsed, 0.99)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "a_ops_s": lane_a["ops_s"], "a_p50_us": lane_a["p50_us"],
            "a_tail_us": lane_a["tail_us"],
            "b_ops_s": lane_b["ops_s"], "b_p50_us": lane_b["p50_us"],
            "b_tail_us": lane_b["tail_us"],
            "peak_rss_mb": vm_hwm_mb(),
        },
        "lanes": [lane_a, lane_b],
        "attempted": len(latencies) * TXN_SIZE,
        "failed": 0,
        "failures": failures,
        "env": env,
        "info": {
            "events_per_s": len(latencies) * TXN_SIZE / elapsed,
            "event_overhead_us": lane_b["p50_us"],
            "passive_share": stream.passive / (CYCLE_TXNS * TXN_SIZE),
            "rules": len(system.primitive) + len(system.composite),
            "setup_s_all": setups,
        },
    }


def _run_traced(seed: int, seconds: float, stream: Stream, env: dict[str, Any]) -> dict[str, Any]:
    from tracer import Tracer, install

    failures: list[str] = []
    system = System(seed)
    try:
        plain, plain_counts = play(system, stream, seconds * UNTRACED_SHARE)
    finally:
        system.close()

    tracer = Tracer()
    install(tracer)
    for cls, methods in METHODS.items():
        for method in methods:
            tracer.wrap(cls, method, "method.call")
    engine_metrics.reset()
    system = System(seed)
    try:
        traced, traced_counts = play(
            system, stream, seconds * (1 - UNTRACED_SHARE), span=tracer.span
        )
        check_counts(system, stream, len(traced), failures)
        check_composites(plain_counts, traced_counts, failures)
        trace = tracer.dump()
        trace["metrics"] = engine_metrics.snapshot()
        scheduler = system.sentinel.scheduler.stats
        trace["scheduler"] = {
            name: getattr(scheduler, name)
            for name in ("triggered", "immediate", "deferred", "decoupled", "max_depth_seen")
        }
        manager = system.sentinel.db.txn_manager
        trace["txn"] = {"committed": manager.committed, "aborted": manager.aborted}
    finally:
        tracer.uninstall()
        system.close()
    client = ClientSide(kinds={"txn": (len(traced), sum(traced))})
    plain_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
    extra = {
        "env.fsync_probe_us": env["env.fsync_probe_us"],
        "trace.overhead_ratio": plain_rate / traced_rate,
    }
    return {
        "metrics": layer_metrics(trace, client, extra),
        "stage_table": stage_tables(trace, client),
        "spans": trace["spans"],
        "attempted": (len(plain) + len(traced)) * TXN_SIZE,
        "failed": 0,
        "failures": failures,
        "env": env,
        "info": {"untraced_txn_s": plain_rate, "traced_txn_s": traced_rate},
    }
