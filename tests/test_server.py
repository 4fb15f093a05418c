"""The rule-server front end: HTTP round trips, errors, server-side rules.

A real ``RuleServer`` on an ephemeral port, a real ``RuleClient`` over
HTTP — no mocked sockets.  Covers the JSON protocol surface (create /
get / update / query / count / invoke / delete / ping / stats), the
error mapping (404 / 400 / 409), class-level ECA rules firing on the
serving thread for client-caused events, concurrent clients writing
through one server, and the client's kept-alive connections: reconnect
after a server restart, no re-send of a broken write.
"""

from __future__ import annotations

import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.core import Sentinel, class_rule, event_method
from repro.core.reactive import Reactive
from repro.oodb import Database
from repro.oodb.schema import ClassRegistry
from repro.server import RuleClient, RuleServer, ServerError

registry = ClassRegistry()
RESTOCKS: list = []


class Item(Reactive, registry=registry):
    __rules__ = [
        class_rule(
            "restock-log",
            on="end restock(int amount)",
            action=lambda ctx: RESTOCKS.append(ctx.param("amount")),
        ),
    ]

    def __init__(self, name: str = "", qty: int = 0) -> None:
        super().__init__()
        self.name = name
        self.qty = qty

    @event_method
    def restock(self, amount: int = 1) -> int:
        self.qty += amount
        return self.qty

    def _secret(self) -> str:  # pragma: no cover - must not be callable
        return "hidden"


@pytest.fixture
def served(tmp_path):
    RESTOCKS.clear()
    db = Database(str(tmp_path / "db"), registry=registry, locking=True)
    system = Sentinel(db=db, adopt_class_rules=False)
    with system:
        with RuleServer(system) as server:
            yield system, RuleClient(server.url)
    system.close()


class TestRoundTrip:
    def test_ping_reports_classes(self, served):
        _system, client = served
        pong = client.ping()
        assert pong["ok"] is True
        assert "Item" in pong["classes"]

    def test_create_get_update_delete(self, served):
        _system, client = served
        oid = client.create("Item", name="widget", qty=3)
        assert isinstance(oid, int)

        record = client.get(oid)
        assert record["class"] == "Item"
        assert record["attrs"]["name"] == "widget"
        assert record["attrs"]["qty"] == 3

        client.update(oid, qty=10)
        assert client.get(oid)["attrs"]["qty"] == 10

        client.delete(oid)
        with pytest.raises(ServerError) as err:
            client.get(oid)
        assert err.value.status == 404

    def test_query_and_count(self, served):
        _system, client = served
        for i in range(6):
            client.create("Item", name=f"item-{i}", qty=i)
        assert client.count("Item") == 6
        assert client.count("Item", where=[["qty", ">=", 3]]) == 3
        rows = client.query("Item", where=[["qty", "<", 2]])
        assert sorted(r["attrs"]["qty"] for r in rows) == [0, 1]
        limited = client.query("Item", limit=2)
        assert len(limited) == 2

    def test_invoke_returns_value_and_fires_rule(self, served):
        _system, client = served
        oid = client.create("Item", name="widget", qty=1)
        result = client.invoke(oid, "restock", 5)
        assert result == 6
        assert client.get(oid)["attrs"]["qty"] == 6
        # The class-level ECA rule ran server-side for a client event.
        assert RESTOCKS == [5]

    def test_stats_surface(self, served):
        _system, client = served
        client.create("Item", name="x")
        stats = client.stats()
        assert stats["requests"] >= 1
        assert "triggered" in stats["scheduler"]
        assert stats["worker_pool"] is None


class TestErrorMapping:
    def test_unknown_class_is_400(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.create("Ghost")
        assert err.value.status == 400

    def test_unknown_oid_is_404(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.get(999_999)
        assert err.value.status == 404

    def test_private_attr_and_method_are_400(self, served):
        _system, client = served
        oid = client.create("Item", name="widget")
        with pytest.raises(ServerError) as err:
            client.update(oid, _p_oid=1)
        assert err.value.status == 400
        with pytest.raises(ServerError) as err:
            client.invoke(oid, "_secret")
        assert err.value.status == 400

    def test_bad_where_op_is_400(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.query("Item", where=[["qty", "~=", 1]])
        assert err.value.status == 400

    def test_bad_constructor_args_are_400(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.create("Item", bogus_kwarg=1)
        assert err.value.status == 400


class TestConcurrentClients:
    def test_parallel_writers_through_one_server(self, served):
        _system, client = served
        oids = [client.create("Item", name=f"c{i}", qty=0) for i in range(4)]
        per_client = 12
        errors: list[BaseException] = []

        def hammer(idx: int) -> None:
            own = RuleClient(client.url)
            try:
                for _ in range(per_client):
                    own.invoke(oids[idx], "restock", 1)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for oid in oids:
            assert client.get(oid)["attrs"]["qty"] == per_client
        assert len(RESTOCKS) == 4 * per_client


def _drop_connections(accepted):
    """Close a stopped server's open connections, as its process exiting
    would: each client's idle kept-alive socket sees EOF."""
    for request in accepted:
        try:
            request.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


@pytest.fixture
def system(tmp_path):
    RESTOCKS.clear()
    db = Database(str(tmp_path / "db"), registry=registry, locking=True)
    system = Sentinel(db=db, adopt_class_rules=False)
    try:
        with system:
            yield system
    finally:
        system.close()


class TestKeepAlive:
    @pytest.mark.parametrize("call", ["get", "invoke"])
    def test_restarted_server_is_reconnected(
        self, system, track_connects, monkeypatch, call
    ):
        sent: list[str] = []
        request = HTTPConnection.request

        def counted(self, method, url, *args, **kwargs):
            sent.append(url)
            return request(self, method, url, *args, **kwargs)

        monkeypatch.setattr(HTTPConnection, "request", counted)
        first = RuleServer(system)
        accepted = track_connects(first)
        client = RuleClient(first.url)
        try:
            with first:
                oid = client.create("Item", name="widget", qty=1)
                assert client.get(oid)["attrs"]["qty"] == 1
                assert len(accepted) == 1
            _drop_connections(accepted)

            second = RuleServer(system, port=first.port)
            reconnected = track_connects(second)
            with second:
                del sent[:]
                if call == "get":
                    assert client.get(oid)["attrs"]["qty"] == 1
                else:
                    assert client.invoke(oid, "restock", 5) == 6
                    assert RESTOCKS == [5]
                # The stale socket was dropped before anything was sent on
                # it: one send, on the new connection.
                assert len(sent) == 1
                assert len(reconnected) == 1
                if call == "invoke":
                    assert client.get(oid)["attrs"]["qty"] == 6
        finally:
            client.close()

    @pytest.mark.parametrize("warm", [False, True])
    def test_broken_invoke_is_not_resent(self, warm):
        """A stub server answers ``GET /ping`` and swallows every
        ``/invoke``: it reads the request and closes without a reply."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        invokes: list[bytes] = []
        stop = threading.Event()

        def serve() -> None:
            while True:
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    if stop.is_set():
                        return
                    continue
                with conn:
                    conn.settimeout(5.0)
                    reader = conn.makefile("rb")
                    while True:
                        line = reader.readline()
                        if not line:
                            break
                        length = 0
                        while (header := reader.readline()) not in (b"\r\n", b""):
                            name, _, value = header.partition(b":")
                            if name.strip().lower() == b"content-length":
                                length = int(value)
                        reader.read(length)
                        if b"/invoke" in line:
                            invokes.append(line)
                            break
                        body = b'{"ok": true}'
                        conn.sendall(
                            b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                            b"\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
                        )
                    reader.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        client = RuleClient(f"http://127.0.0.1:{port}", timeout=5.0)
        try:
            if warm:
                assert client.ping() == {"ok": True}
            with pytest.raises(OSError):
                client.invoke(1, "restock", 5)
        finally:
            stop.set()
            thread.join(10.0)
            listener.close()
            client.close()
        assert not thread.is_alive()
        assert len(invokes) == 1

    def test_threads_sharing_a_client_get_their_own_connection(
        self, system, track_connects
    ):
        server = RuleServer(system)
        accepted = track_connects(server)
        client = RuleClient(server.url)
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def ping() -> None:
            try:
                barrier.wait(10.0)
                for _ in range(10):
                    client.ping()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with server:
            threads = [threading.Thread(target=ping) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert errors == []
            assert len(accepted) == 2
            client.ping()  # the main thread opens a third
            assert len(accepted) == 3
            client.close()
