"""A stdlib client for the rule server (:mod:`repro.server.server`).

Thin and synchronous: one :class:`RuleClient` per server URL, one
kept-alive ``http.client`` connection per calling thread (``close()``
closes them all).  Before a connection is reused, a zero-timeout
``select`` drops it if the server closed it while it idled.  A request
that breaks anyway is sent again, once, only where that cannot run it
twice: a ``GET``, the read-only ``POST /query`` and ``/count``, or a
request whose send itself failed; any other broken ``POST`` raises.
Error envelopes come back as :class:`ServerError` carrying the server's
``error`` kind and HTTP status, so callers can branch on ``conflict``
(write lost its deadlock retries — rerun it) versus ``not_found`` versus
``bad_request``::

    client = RuleClient(server.url)
    oid = client.create("Employee", name="fred", salary=50_000.0)
    client.update(oid, salary=55_000.0)          # rules fire server-side
    rows = client.query("Employee", where=[["salary", ">", 50_000]])
    client.close()

Every payload-returning call gives the decoded JSON body (the ``ok``
discriminator stripped of ceremony — helpers return the interesting
field directly where there is one).
"""

from __future__ import annotations

import json
import select
import threading
import weakref
from http.client import HTTPConnection, HTTPException
from typing import Any
from urllib.parse import urlsplit

__all__ = ["RuleClient", "ServerError"]

#: Requests that change nothing server-side: sending one again after its
#: reply was lost cannot run anything twice.
_READ_ONLY_POSTS = frozenset(("/query", "/count"))


class ServerError(Exception):
    """The server answered with ``ok: false``."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(f"{error} ({status}): {detail}")
        self.status = status
        self.error = error
        self.detail = detail

    @property
    def conflict(self) -> bool:
        """True when a write exhausted its deadlock-retry budget."""
        return self.status == 409


class RuleClient:
    """HTTP/JSON client for one :class:`~repro.server.server.RuleServer`."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.url)
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: weakref.WeakSet[HTTPConnection] = weakref.WeakSet()

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._lock:
            connections = list(self._open)
        for connection in connections:
            connection.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> HTTPConnection:
        """This thread's connection, with a socket the server closed while
        it idled dropped (the next request then reconnects)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
            with self._lock:
                self._open.add(connection)
        elif connection.sock is not None:
            # Idle between replies, the socket has nothing to read unless
            # the server closed it (EOF) or reset it.
            readable, _, _ = select.select([connection.sock], [], [], 0)
            if readable:
                connection.close()
        return connection

    def _request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = {"Content-Type": "application/json"}
        read_only = method == "GET" or path in _READ_ONLY_POSTS
        for attempt in (1, 2):
            connection = self._connection()
            reused = connection.sock is not None
            sent = False
            try:
                connection.request(method, path, body=data, headers=headers)
                sent = True
                response = connection.getresponse()
                raw = response.read()
                break
            except (OSError, HTTPException) as exc:
                connection.close()
                # Send again only what cannot run twice: a request that
                # never went out in full, or a read-only one that broke on
                # a reused (so possibly stale) connection.
                again = not sent or (reused and read_only)
                if attempt == 2 or not again or isinstance(exc, TimeoutError):
                    raise
        text = raw.decode("utf-8", errors="replace")
        if not 200 <= response.status < 300:
            try:
                payload = json.loads(text)
            except ValueError:
                raise ServerError(response.status, "server_error", text.strip())
            raise ServerError(
                response.status,
                str(payload.get("error", "server_error")),
                str(payload.get("detail", text.strip())),
            )
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ServerError(200, "server_error", f"bad payload: {payload!r}")
        return payload

    # ------------------------------------------------------------------
    # Reads (server-side MVCC snapshots)
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self._request("GET", "/ping")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def get(self, oid: int) -> dict[str, Any]:
        """The committed record of ``oid``: ``{"oid", "class", "attrs"}``."""
        payload = self._request("GET", f"/object?oid={int(oid)}")
        record = payload["object"]
        assert isinstance(record, dict)
        return record

    def query(
        self,
        class_name: str,
        where: list[list[Any]] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        body: dict[str, Any] = {"class": class_name}
        if where is not None:
            body["where"] = where
        if limit is not None:
            body["limit"] = limit
        payload = self._request("POST", "/query", body)
        objects = payload["objects"]
        assert isinstance(objects, list)
        return objects

    def count(
        self, class_name: str, where: list[list[Any]] | None = None
    ) -> int:
        body: dict[str, Any] = {"class": class_name}
        if where is not None:
            body["where"] = where
        payload = self._request("POST", "/count", body)
        return int(payload["count"])

    # ------------------------------------------------------------------
    # Writes (server-side transactions; rules fire over there)
    # ------------------------------------------------------------------
    def create(self, class_name: str, **args: Any) -> int:
        payload = self._request(
            "POST", "/create", {"class": class_name, "args": args}
        )
        return int(payload["oid"])

    def update(self, oid: int, **changes: Any) -> None:
        self._request("POST", "/update", {"oid": int(oid), "set": changes})

    def invoke(
        self, oid: int, method: str, *args: Any, **kwargs: Any
    ) -> Any:
        payload = self._request(
            "POST",
            "/invoke",
            {
                "oid": int(oid),
                "method": method,
                "args": list(args),
                "kwargs": kwargs,
            },
        )
        return payload.get("result")

    def delete(self, oid: int) -> None:
        self._request("POST", "/delete", {"oid": int(oid)})
