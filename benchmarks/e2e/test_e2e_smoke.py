"""Smoke test of the end-to-end benchmark (not part of tier 1; run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py``).

Every workload runs for about two seconds in both modes.  The names it emits
must be exactly those of ``BENCHMARK.json``, its checks must pass, and no
server child or work directory may outlive a run, whether it ends normally,
on a failed check, or on SIGINT.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from catalog import END_TO_END, PER_LAYER, WORKLOADS
from harness import ROOT, WORK_ROOT

RUN = [sys.executable, str(Path(__file__).with_name("run.py"))]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def leftovers() -> list[str]:
    """Work directories, and processes started over one, that still exist."""
    found = [str(path) for path in WORK_ROOT.glob("*")] if WORK_ROOT.exists() else []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and entry.name != str(os.getpid()):
            try:
                command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if WORK_ROOT.name in command:
                found.append(command)
    return found


def test_manifest_matches_catalog() -> None:
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in MANIFEST[key]]
        assert listed == catalog
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_smoke(workload: str, trace: int) -> None:
    done = subprocess.run(
        [*RUN, "--workload", workload, "--seed", "5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert "checks: ok" in done.stdout
    assert leftovers() == []


def test_failed_check_exits_nonzero_and_cleans_up() -> None:
    done = subprocess.run(
        [*RUN, "--workload", "rule_write", "--smoke", "--inject-failure"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    assert "CHECK FAILED" in done.stdout
    assert leftovers() == []


def test_sigint_reaps_the_server_child() -> None:
    runner = subprocess.Popen(
        [*RUN, "--workload", "rule_write", "--seconds", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not any("serve" in line for line in leftovers()):
            assert time.monotonic() < deadline, "the server child never appeared"
            assert runner.poll() is None, runner.stderr.read()
            time.sleep(0.05)
        runner.send_signal(signal.SIGINT)
        runner.communicate(timeout=60)
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.communicate()
    assert runner.returncode != 0
    assert leftovers() == []


def test_refuses_to_run_without_the_engine(tmp_path: Path) -> None:
    """In a directory holding only the manifest and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(__file__).parent, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rule_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
