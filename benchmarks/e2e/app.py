"""The benchmark application: one packed-schema reactive class with rules.

Imported by the server child (``python -m repro.tools.serve --import app``)
and by the runner when it bulk-loads or re-opens a store embedded, so both
sides decode the same records and the server fires these rules for client
requests.  ``restock`` carries one class-level rule per coupling mode; the
decoupled one leaves durable evidence (``audited``) that the runner's
exactly-once check reads back.
"""

from __future__ import annotations

from repro.core import Reactive, class_rule, event_method


def _audit(ctx) -> None:
    # Runs on a rule-worker thread in its own transaction.  Lock before
    # the read-modify-write: two audits of one Item must not both read
    # the old count (the SELECT ... FOR UPDATE idiom).
    item = ctx.source
    item._p_db.lock_for_update(item)
    item.audited += 1


class Item(Reactive):
    _p_schema = [
        ("name", "str:24"),
        ("qty", "int"),
        ("price", "float"),
        ("audited", "int"),
    ]

    __rules__ = [
        class_rule(
            "item-restock-immediate",
            on="end restock(int amount)",
            condition=lambda ctx: ctx.param("amount") > 0,
            action=lambda ctx: None,
            coupling="immediate",
        ),
        class_rule(
            "item-restock-deferred",
            on="end restock(int amount)",
            action=lambda ctx: None,
            coupling="deferred",
        ),
        class_rule(
            "item-restock-audit",
            on="end restock(int amount)",
            action=_audit,
            coupling="decoupled",
        ),
    ]

    def __init__(self, name: str = "", qty: int = 0, price: float = 0.0) -> None:
        super().__init__()
        self.name = name
        self.qty = qty
        self.price = price
        self.audited = 0

    @event_method
    def restock(self, amount: int = 1) -> int:
        self.qty += amount
        return self.qty
