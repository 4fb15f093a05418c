"""End-to-end integration: a full application lifecycle.

One scenario exercising the whole stack together: schema + objects +
class rules + instance rules + composite events + coupling modes +
persistence of rules/events + crash + recovery + continued monitoring.
"""

import pytest

from repro.core import Primitive, Rule, Sentinel, Sequence
from repro.oodb import Database, Persistent, TransactionAborted
from repro.workloads import Account, Employee, Manager


class AuditLog(Persistent):
    def __init__(self):
        super().__init__()
        self.entries: list[str] = []

    def append(self, text: str) -> None:
        self.entries = self.entries + [text]


class TestApplicationLifecycle:
    def test_full_story(self, tmp_path):
        path = str(tmp_path / "appdb")
        self._session_build(path)
        self._session_crash(path)
        self._session_recover_and_continue(path)

    # ------------------------------------------------------------------
    def _session_build(self, path):
        system = Sentinel(path=path, adopt_class_rules=False)
        with system:
            db = system.db
            with db.transaction():
                audit = AuditLog()
                db.set_root("audit", audit)
                mike = Manager("Mike", 90_000.0)
                fred = Employee("Fred", 50_000.0)
                mike.add_report(fred)
                db.add(mike)
                db.add(fred)
                db.set_root("mike", mike)
                db.set_root("fred", fred)
                checking = Account("CHK", 1_000.0)
                db.add(checking)
                db.set_root("checking", checking)

            # A persistent DSL rule: audit every large deposit (deferred).
            big_deposit = system.rule_from_spec(
                """
                RULE BigDeposit
                ON   end Account::deposit(float amount)
                IF   amount >= 500
                DO   ctx.rule.hits = getattr(ctx.rule, "hits", 0) + 1
                MODE deferred
                """,
                persist=True,
            )
            with db.transaction():
                db.set_root("big-deposit-rule", big_deposit)
            checking = db.get_root("checking")
            big_deposit.subscribe_to(checking)

            with db.transaction():
                checking.deposit(700.0)     # deferred rule runs at commit
            assert big_deposit.hits == 1
            db.commit()  # persist the hits counter update

            # A salary-guard rule that aborts violating transactions.
            fred, mike = db.get_root("fred"), db.get_root("mike")
            guard = system.create_rule(
                "SalaryGuard",
                Primitive("end Employee::set_salary(float salary)"),
                condition=lambda ctx: ctx.source.manager is not None
                and ctx.source.salary >= ctx.source.manager.salary,
                action=lambda ctx: ctx.abort("salary above manager"),
            )
            guard.subscribe_to(fred)

            with db.transaction():
                fred.set_salary(60_000.0)   # fine
            with pytest.raises(TransactionAborted):
                with db.transaction():
                    fred.set_salary(95_000.0)
            assert fred.salary == 60_000.0  # rolled back

            # Persist a composite event for the next session.
            dep_wit = Sequence(
                Primitive("end Account::deposit(float x)"),
                Primitive("before Account::withdraw(float x)"),
                name="DepWit",
            )
            system.persist(dep_wit)
            with db.transaction():
                db.set_root("dep-wit", dep_wit)
            system.close()

    # ------------------------------------------------------------------
    def _session_crash(self, path):
        """Commit work, then 'crash' without checkpointing."""
        db = Database(path, sync=False)
        checking = db.get_root("checking")
        with db.transaction():
            checking.deposit(42.0)
            db.get_root("audit").append("pre-crash deposit")
        # Crash: flush data, keep WAL, skip checkpoint/meta.
        db._pool.flush_all()
        db._wal.flush()
        db._wal._file.close()
        db._closed = True

    # ------------------------------------------------------------------
    def _session_recover_and_continue(self, path):
        system = Sentinel(path=path, adopt_class_rules=False)
        with system:
            db = system.db
            # Recovery replayed the pre-crash transaction.
            audit = db.get_root("audit")
            assert audit.entries == ["pre-crash deposit"]
            checking = db.get_root("checking")
            assert checking.balance == pytest.approx(1_000.0 + 700.0 + 42.0)

            # The stored rule reloads with its state and keeps working.
            rule = db.get_root("big-deposit-rule")
            assert rule.name == "BigDeposit"
            assert rule.hits == 1
            rule.bind_scheduler(system.scheduler)
            rule.subscribe_to(checking)
            with db.transaction():
                checking.deposit(900.0)
            assert rule.hits == 2

            # The stored composite event reloads and detects.
            dep_wit = db.get_root("dep-wit")
            signals = []

            class Listener:
                def on_event(self, event, occurrence):
                    signals.append(occurrence)

            dep_wit.add_listener(Listener())
            checking.subscribe(dep_wit)
            checking.deposit(10.0)
            checking.withdraw(5.0)
            assert len(signals) == 1

            # Garbage collection keeps everything reachable.
            db.commit()
            marked, swept = db.collect_garbage()
            assert swept == 0
            assert db.get_root("fred").salary == 60_000.0
            system.close()
