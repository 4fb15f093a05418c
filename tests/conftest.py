"""Shared fixtures for the Sentinel test suite."""

from __future__ import annotations

import pytest

from repro.core import ManualClock, Sentinel, set_clock
from repro.core.runtime import default_scheduler
from repro.oodb import Database


@pytest.fixture
def db(tmp_path):
    """A fresh on-disk database in a temp directory."""
    database = Database(str(tmp_path / "db"))
    yield database
    database.close()


@pytest.fixture
def mem_db():
    """A fresh in-memory database."""
    database = Database()
    yield database
    database.close()


@pytest.fixture
def sentinel():
    """A Sentinel system without a database, active for the test."""
    system = Sentinel(adopt_class_rules=False)
    with system:
        yield system


@pytest.fixture
def sentinel_db(tmp_path):
    """A Sentinel system over an on-disk database."""
    system = Sentinel(path=str(tmp_path / "db"), adopt_class_rules=False)
    with system:
        yield system
    system.close()


@pytest.fixture
def manual_clock():
    """Install a manual clock for the duration of the test."""
    clock = ManualClock(start=1000.0)
    previous = set_clock(clock)
    yield clock
    set_clock(previous)


@pytest.fixture(autouse=True)
def _clean_default_scheduler():
    """Keep the process-default scheduler's state from leaking across tests."""
    scheduler = default_scheduler()
    scheduler.reset_stats()
    scheduler._orphan_deferred.clear()
    yield
    scheduler.reset_stats()
    scheduler._orphan_deferred.clear()


@pytest.fixture
def track_connects():
    """Count a ``RuleServer``'s TCP connects on the server side.

    ``track(server)`` wraps the server's ``process_request`` (called once
    per accepted connection) and returns the list the accepted sockets
    are appended to; call it before the first client connects.
    """

    def track(server):
        accepted = []
        httpd = server._httpd
        process_request = httpd.process_request

        def counted(request, address):
            accepted.append(request)
            process_request(request, address)

        httpd.process_request = counted
        return accepted

    return track
