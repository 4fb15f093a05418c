"""Two-sided range filters: one merged B-tree interval, same answers.

A lower (``>``/``>=``) and an upper (``<``/``<=``) comparison on one
B-tree-indexed attribute plan as a single ``index_range`` choice carrying
both bounds.  Every answer — rows, ``count()``, ``exists()``, snapshot
reads — must equal a brute-force filter over the objects.
"""

from __future__ import annotations

import operator
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.oodb import Database, Persistent
from repro.oodb.schema import ClassRegistry

_OPS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
LOWER = (">", ">=")
UPPER = ("<", "<=")

registry = ClassRegistry()


class Stock(Persistent, registry=registry):
    def __init__(self, qty: int, dept: str) -> None:
        super().__init__()
        self.qty = qty
        self.dept = dept


class Special(Stock, registry=registry):
    pass


def _build() -> tuple[Database, list[Stock]]:
    db = Database(registry=registry)
    objects: list[Stock] = []
    for i in range(120):
        # Keys 0..29, four rows per key, so boundary keys carry duplicates.
        obj = Stock(i % 30, ("eng", "ops", "hr")[i % 3])
        db.add(obj)
        objects.append(obj)
    db.commit()
    db.create_index(Stock, "qty")
    db.create_index(Stock, "dept")
    return db, objects


DB, OBJECTS = _build()


def brute_force(objects, filters):
    return {
        obj._p_oid
        for obj in objects
        if all(_OPS[op](getattr(obj, a), v) for a, op, v in filters)
    }


def run(db, filters, cls=Stock, **kwargs):
    query = db.query(cls, **kwargs)
    for attribute, op, value in filters:
        query.where_op(attribute, op, value)
    return query


keys = st.integers(min_value=-2, max_value=31)


class TestMergedInterval:
    @settings(max_examples=150, deadline=None)
    @given(
        low=keys,
        high=keys,
        low_op=st.sampled_from(LOWER),
        high_op=st.sampled_from(UPPER),
        upper_first=st.booleans(),
    )
    # Every inclusive combination on an empty interval and on equal bounds.
    @example(low=20, high=10, low_op=">=", high_op="<=", upper_first=False)
    @example(low=20, high=10, low_op=">", high_op="<", upper_first=False)
    @example(low=10, high=10, low_op=">=", high_op="<=", upper_first=False)
    @example(low=10, high=10, low_op=">=", high_op="<", upper_first=False)
    @example(low=10, high=10, low_op=">", high_op="<=", upper_first=True)
    @example(low=10, high=10, low_op=">", high_op="<", upper_first=True)
    def test_matches_brute_force(self, low, high, low_op, high_op, upper_first):
        filters = [("qty", low_op, low), ("qty", high_op, high)]
        if upper_first:
            filters.reverse()
        expected = brute_force(OBJECTS, filters)
        query = run(DB, filters)
        plan = query.explain()
        assert plan.access_path == "index_range"
        (choice,) = plan.index_filters
        assert (choice.op, choice.value) == (low_op, low)
        assert choice.upper == (high_op, high)
        assert not plan.residual_filters
        assert {obj._p_oid for obj in query} == expected
        assert query.count() == len(expected)
        assert query.exists() == bool(expected)
        analyzed = query.explain(analyze=True)
        assert analyzed.stats.candidates == len(expected)

    def test_plan_names_the_interval(self):
        plan = run(DB, [("qty", "<", 9), ("qty", ">=", 5)]).explain()
        assert "(qty >= 5 and qty < 9)" in plan.describe()
        (entry,) = plan.to_json()["index_filters"]
        assert (entry["op"], entry["value"]) == (">=", "5")
        assert entry["upper"] == ["<", "9"]
        one_sided = run(DB, [("qty", ">=", 5)]).explain().to_json()
        assert "upper" not in one_sided["index_filters"][0]

    def test_extra_bounds_on_the_same_attribute(self):
        filters = [("qty", ">", 3), ("qty", ">=", 5), ("qty", "<", 10)]
        query = run(DB, filters)
        plan = query.explain()
        primary = plan.index_filters[0]
        assert (primary.op, primary.value, primary.upper) == (">", 3, ("<", 10))
        expected = brute_force(OBJECTS, filters)
        assert {obj._p_oid for obj in query} == expected
        assert query.count() == len(expected) == 4 * 5
        assert query.exists()

    @settings(max_examples=80, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(st.sampled_from(LOWER + UPPER), keys),
            min_size=1,
            max_size=4,
        )
    )
    def test_any_bounds_on_one_attribute(self, bounds):
        filters = [("qty", op, value) for op, value in bounds]
        query = run(DB, filters)
        expected = brute_force(OBJECTS, filters)
        assert {obj._p_oid for obj in query} == expected
        assert query.count() == len(expected)
        assert query.exists() == bool(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        low=keys,
        width=st.integers(min_value=0, max_value=12),
        dept=st.sampled_from(["eng", "ops", "hr", "qa"]),
    )
    def test_next_to_equality_on_another_index(self, low, width, dept):
        filters = [
            ("qty", ">=", low),
            ("dept", "==", dept),
            ("qty", "<", low + width),
        ]
        query = run(DB, filters)
        plan = query.explain()
        merged = [c for c in plan.index_filters if c.attribute == "qty"]
        assert not merged or merged[0].upper == ("<", low + width)
        expected = brute_force(OBJECTS, filters)
        assert {obj._p_oid for obj in query} == expected
        assert query.count() == len(expected)
        assert query.exists() == bool(expected)

    def test_order_by_streams_the_interval_in_key_order(self):
        query = (
            run(DB, [("qty", ">", 4), ("qty", "<=", 8)])
            .order_by("qty", descending=True)
        )
        assert not query.explain().sort_needed
        got = [obj.qty for obj in query]
        assert got == sorted(got, reverse=True)
        assert got[0] == 8 and got[-1] == 5 and len(got) == 16


class TestSnapshotRecheck:
    def test_rows_moved_across_either_bound_are_rechecked(self, tmp_path):
        db = Database(str(tmp_path / "db"), registry=registry, locking=True)
        try:
            with db.transaction():
                rows = [db.add(Stock(qty, "eng")) for qty in range(30)]
            db.create_index(Stock, "qty")
            filters = [("qty", ">=", 10), ("qty", "<", 20)]
            snap = db.begin_snapshot()
            try:
                def move() -> None:
                    # One row from below the interval and one from above it
                    # now sit inside it, so the index (current values)
                    # yields both; their snapshot copies must be dropped.
                    with db.transaction():
                        db.fetch(rows[3]).qty = 12
                        db.fetch(rows[25]).qty = 15

                mover = threading.Thread(target=move)
                mover.start()
                mover.join()
                query = run(db, filters)
                assert query.explain().index_filters[0].upper == ("<", 20)
                got = sorted(obj.qty for obj in query)
                assert got == list(range(10, 20))
                assert query.count() == 10
            finally:
                db.end_snapshot(snap)
            # Outside the snapshot the index answers with current values.
            assert run(db, filters).count() == 12
        finally:
            db.close()


class TestExtentRecheckKept:
    """An index on a base class spans the whole family: a query on a
    subclass, or on the base without subclasses, must still filter the
    index hits through the extent it asked for."""

    @pytest.fixture
    def family(self):
        db = Database(registry=registry)
        plain = [db.add(Stock(i, "eng")) for i in range(10)]
        special = [db.add(Special(i, "eng")) for i in range(10)]
        db.commit()
        db.create_index(Stock, "qty")
        yield db, set(plain), set(special)
        db.close()

    def test_subclass_query_on_base_index(self, family):
        db, _plain, special = family
        query = run(db, [("qty", ">=", 2), ("qty", "<", 6)], cls=Special)
        assert query.explain().access_path == "index_range"
        got = {obj._p_oid for obj in query}
        assert got == {oid for oid in special if 2 <= db.fetch(oid).qty < 6}
        assert len(got) == 4
        assert query.count() == 4
        assert query.exists()

    def test_base_query_without_subclasses(self, family):
        db, plain, _special = family
        query = run(
            db, [("qty", ">", 2), ("qty", "<=", 6)], include_subclasses=False
        )
        got = {obj._p_oid for obj in query}
        assert got == {oid for oid in plain if 2 < db.fetch(oid).qty <= 6}
        assert len(got) == 4
        assert query.count() == 4
        assert query.exists()
