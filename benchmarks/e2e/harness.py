"""Shared pieces of the end-to-end benchmark: where files go, the environment
record, the seeded store and key sequences, and the server child process.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Every file a run writes lives under here (inside the checkout, ignored by
#: git) and is removed when the run ends.
WORK_ROOT = ROOT / ".bench_e2e"

FLUSH_POLICY = (
    "server opened by repro.tools.serve: locking=True, WAL fsync at every "
    "commit (dedicated syncer thread, group commit), 256-page buffer pool, "
    "2 rule-worker threads, no checkpoint while serving"
)
SANDBOX_CAVEAT = (
    "latencies are this sandbox's: reads come from the OS page cache and "
    "fsync is cheap, so they are not a storage device's"
)


# ----------------------------------------------------------------------
# Numbers
# ----------------------------------------------------------------------
def percentile(ordered: list[float], q: float) -> float:
    """The ``q`` quantile (0..1) of an ascending list, interpolated."""
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def lane_summary(latencies: list[float], window: float, tail: float) -> dict[str, float]:
    """A lane's numbers from its latencies (seconds) inside ``window`` seconds."""
    ordered = sorted(latencies)
    if not ordered:
        raise RuntimeError("a lane completed nothing in its window")
    return {
        "ops_s": len(ordered) / window,
        "p50_us": percentile(ordered, 0.5) * 1e6,
        "tail_us": percentile(ordered, tail) * 1e6,
        "samples": len(ordered),
        "tail": tail,
    }


def spread(values: list[float]) -> float:
    """Run-to-run spread as the driver takes it: IQR over the median.

    With fewer than four values there are no quartiles; the range over the
    median stands in (it is never smaller).
    """
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return width / abs(middle) if middle else math.inf


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _device, mount, fstype = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (target + "/").startswith(prefix) and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def fsync_probe_us(directory: Path, writes: int = 100) -> float:
    """Median cost of a 4-KiB append + fsync in ``directory``."""
    block = b"\0" * 4096
    costs = []
    with tempfile.NamedTemporaryFile(dir=directory, prefix="fsync-probe-") as probe:
        for _ in range(writes):
            start = time.perf_counter()
            probe.write(block)
            probe.flush()
            os.fsync(probe.fileno())
            costs.append((time.perf_counter() - start) * 1e6)
    return statistics.median(costs)


def environment(directory: Path) -> dict[str, Any]:
    fstype = filesystem_type(directory)
    if fstype in ("tmpfs", "ramfs"):
        print(
            f"WARNING: data directory {directory} is on {fstype}: fsync is "
            "free there, so wal.* and every write latency mean nothing",
            file=sys.stderr,
        )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "data_dir_fs": fstype,
        "env.fsync_probe_us": fsync_probe_us(directory),
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Work directory
# ----------------------------------------------------------------------
class WorkDir:
    """A fresh directory under ``WORK_ROOT``, gone when the block exits."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc_info: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


# ----------------------------------------------------------------------
# The seeded store
# ----------------------------------------------------------------------
def item_values(seed: int, index: int) -> tuple[str, int, float]:
    """``(name, qty, price)`` of the Item with OID ``index + 1``.

    ``qty`` equals the index, so ``qty >= x and qty < x + 20`` names exactly
    the OIDs ``x+1 .. x+20``; ``price`` carries the seed.
    """
    price = ((index * 2654435761 + seed * 40503) % 1_000_003) / 100.0
    return f"item-{index:08d}", index, price


def build_store(path: Path, count: int, seed: int) -> None:
    """Bulk-load ``count`` Items embedded, index ``qty``, checkpoint, close."""
    import app
    from repro.oodb.database import Database

    db = Database(path)
    try:
        for base in range(0, count, 500):
            with db.transaction():
                for index in range(base, min(count, base + 500)):
                    db.add(app.Item(*item_values(seed, index)))
        db.create_index(app.Item, "qty")
    finally:
        db.close()


class KeySampler:
    """An endless seeded sequence of OIDs in ``1..count``.

    ``hot_share`` of the draws come from the newest ``hot_fraction`` of the
    OIDs, the rest from all of them.  Draws are stratified: each block of
    ten takes one key from each of its strata, at a position that moves by
    the golden ratio from block to block.  The shares are exact and the key
    distribution is the same whatever the seed, which matters because a
    range query's cost depends on its key; the seed sets where each stratum
    starts and the order inside a block.
    """

    BLOCK = 10
    _PHI = 0.6180339887498949

    def __init__(
        self,
        rng: random.Random,
        count: int,
        hot_fraction: float = 0.1,
        hot_share: float = 0.8,
    ) -> None:
        self._rng = rng
        hot = round(self.BLOCK * hot_share)
        hot_size = max(1, int(count * hot_fraction))
        # (first OID, number of OIDs) of each stratum
        self._strata = [
            (count - hot_size + 1 + hot_size * j // hot, hot_size // hot or 1)
            for j in range(hot)
        ] + [
            (1 + count * j // (self.BLOCK - hot), count // (self.BLOCK - hot) or 1)
            for j in range(self.BLOCK - hot)
        ]
        self._offsets = [rng.random() for _ in self._strata]
        self._count = count

    def __iter__(self) -> Iterator[int]:
        block = 0
        while True:
            keys = []
            for (first, size), offset in zip(self._strata, self._offsets):
                position = (offset + block * self._PHI) % 1.0
                keys.append(min(self._count, first + int(position * size)))
            self._rng.shuffle(keys)
            yield from keys
            block += 1


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class ServerChild:
    """The rule server as a child process over one store directory."""

    START_TIMEOUT = 60.0

    def __init__(self, store: Path, trace_out: Path | None = None) -> None:
        self.store = store
        self.trace_out = trace_out
        serve_args = [
            str(store), "--import", "app", "--port", "0", "--workers", "2",
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.tools.serve", *serve_args]
        else:
            command = [
                sys.executable, str(HERE / "serve_traced.py"),
                str(trace_out), *serve_args,
            ]
        env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}")
        self._stderr = open(store.parent / f"{store.name}.stderr", "w")
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        try:
            self.url = self._await_url()
            self._await_ping()
        except BaseException:
            self.kill()
            raise

    def _await_url(self) -> str:
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], self.START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(
                f"server child did not start: {line!r}\n{self._stderr_tail()}"
            )
        return line.split()[-1]

    def _await_ping(self) -> None:
        deadline = time.monotonic() + self.START_TIMEOUT
        while True:
            try:
                self.client().ping()
                return
            except OSError:
                if time.monotonic() > deadline or self.process.poll() is not None:
                    raise RuntimeError(
                        f"server child never answered /ping\n{self._stderr_tail()}"
                    )
                time.sleep(0.01)

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        return Path(self._stderr.name).read_text()[-2000:]

    def client(self) -> Any:
        from repro.server.client import RuleClient

        return RuleClient(self.url)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def wal_bytes(self) -> int:
        return (self.store / "wal.log").stat().st_size

    def read_trace(self, timeout: float = 60.0) -> dict[str, Any]:
        """Ask the traced child for its spans (SIGUSR1) and load them."""
        assert self.trace_out is not None
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.trace_out.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError(f"no trace written\n{self._stderr_tail()}")
            time.sleep(0.02)
        return json.loads(self.trace_out.read_text())

    def kill(self) -> None:
        """SIGKILL the child (the crash the durability check wants), reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.kill()
