"""Cost contracts: the work an operation does, counted rather than timed.

Counts do not drift with the machine, so each contract is an exact (or
upper-bound) number of rows, calls or connections one operation costs.

* A 20-row two-sided range query scans exactly the 20 rows it returns,
  and builds no copy of the class extent.
* ``RuleClient`` calls cost one TCP connect per calling thread, not one
  per call.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import Sentinel
from repro.oodb import Database, Persistent
from repro.oodb.schema import ClassRegistry, Extents
from repro.server import RuleClient, RuleServer

registry = ClassRegistry()

STORE = 5_000
ROWS = 20


class Part(Persistent, registry=registry):
    def __init__(self, qty: int) -> None:
        super().__init__()
        self.qty = qty


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("contracts") / "db"
    db = Database(str(path), registry=registry, locking=True)
    with db.transaction():
        for qty in range(STORE):
            db.add(Part(qty))
    db.create_index(Part, "qty")
    yield db
    db.close()


def _range(db, low):
    return (
        db.query(Part)
        .where_op("qty", ">=", low)
        .where_op("qty", "<", low + ROWS)
    )


@pytest.fixture
def extent_copies(monkeypatch):
    """How many times ``Extents.of`` built an extent set."""
    calls = []
    extent_of = Extents.of

    def counted(self, *args, **kwargs):
        calls.append(args)
        return extent_of(self, *args, **kwargs)

    monkeypatch.setattr(Extents, "of", counted)
    return calls


class TestRangeQuery:
    @pytest.mark.parametrize("low", [0, STORE // 2, STORE - ROWS])
    def test_scans_only_the_rows_it_returns(self, store, low):
        stats = _range(store, low).explain(analyze=True).stats
        assert stats.candidates == stats.returned == ROWS
        assert stats.fetched == ROWS

    def test_snapshot_read_scans_only_the_rows_it_returns(self, store):
        with store.snapshot():
            stats = _range(store, STORE // 3).explain(analyze=True).stats
        assert stats.candidates == stats.returned == ROWS

    def test_builds_no_extent_copy(self, store, extent_copies):
        rows = _range(store, 1_000).all()
        with store.snapshot():
            snapshot_rows = _range(store, 1_000).all()
        assert len(rows) == len(snapshot_rows) == ROWS
        assert _range(store, 1_000).count() == ROWS
        assert _range(store, 1_000).exists()
        assert extent_copies == []


class TestClientConnects:
    @pytest.fixture
    def server(self, tmp_path, track_connects):
        db = Database(str(tmp_path / "db"), registry=registry, locking=True)
        system = Sentinel(db=db, adopt_class_rules=False)
        try:
            with system:
                server = RuleServer(system)
                accepted = track_connects(server)
                with server:
                    yield server, accepted
        finally:
            system.close()

    def test_one_thread_one_connect(self, server):
        rule_server, accepted = server
        client = RuleClient(rule_server.url)
        for _ in range(100):
            client.ping()
        assert len(accepted) == 1
        client.close()

    def test_two_threads_two_connects(self, server):
        rule_server, accepted = server
        client = RuleClient(rule_server.url)

        def calls() -> None:
            for _ in range(50):
                client.ping()

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(accepted) == 2
        client.close()
