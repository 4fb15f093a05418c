"""End-to-end benchmark: client request -> rule firing -> durable commit.

    python3 benchmarks/e2e/run.py --workload rule_write --seed 1 --seconds 15 --trace 0

runs one workload from a seed, checks its outputs, prints every metric by
name with its unit and, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics, measured with tracing off; ``--trace 1`` gives the
per-layer metrics and the stage table from a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the engine is missing: no {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from harness import FLUSH_POLICY, SANDBOX_CAVEAT, WorkDir, spread  # noqa: E402


def run_workload(args: argparse.Namespace) -> int:
    seconds = 2.0 if args.smoke else float(args.seconds)
    with WorkDir() as work:
        if args.workload == "embedded_events":
            import embedded

            result = embedded.run(args.seed, seconds, bool(args.trace), args.smoke, work)
        else:
            import http_workloads

            result = http_workloads.run(
                args.workload, args.seed, seconds, bool(args.trace), args.smoke, work
            )
        if args.spans_out and "spans" in result:
            Path(args.spans_out).write_text(json.dumps(result["spans"]))
    if args.inject_failure:
        result["failures"].append("injected by --inject-failure")
    report(args, seconds, result)
    catalog = PER_LAYER if args.trace else END_TO_END
    correct = not result["failures"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit, _better in catalog
                },
            }
        )
    )
    return 0 if correct else 1


def report(args: argparse.Namespace, seconds: float, result: dict[str, Any]) -> None:
    lane_a, lane_b, _why = WORKLOADS[args.workload]
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  window {seconds:g} s  "
          f"trace {args.trace}")
    print(f"  lane A: {lane_a}\n  lane B: {lane_b}")
    print(f"  environment: nproc {env['nproc']}, python {env['python']}, data dir on "
          f"{env['data_dir_fs']}, env.fsync_probe_us {env['env.fsync_probe_us']:.1f}")
    if args.workload != "embedded_events":
        print(f"  flush policy: {FLUSH_POLICY}")
        print("  load: one generator process, 2 closed-loop RuleClient threads")
        print(f"  note: {SANDBOX_CAVEAT}")
    catalog = PER_LAYER if args.trace else END_TO_END
    for name, unit, better in catalog:
        print(f"  {name:<38}{result['metrics'][name]:>16.4f} {unit:<6} ({better} is better)")
    for label, lane in zip("ab", result.get("lanes", ())):
        print(f"  {label}_p50_us and {label}_tail_us (p{lane['tail'] * 100:g}) "
              f"from {lane['samples']} samples")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  error_rate {failed / attempted:.6f} ({failed} failed or refused of "
          f"{attempted} attempted)")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    if "stage_table" in result:
        print("\n" + result["stage_table"])
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(f"  checks: {'FAILED' if result['failures'] else 'ok'}")


def check_spread(args: argparse.Namespace) -> int:
    """``--repeat N --check-spread``: N sets of every workload, each set on
    its own seed as the driver does; per metric x workload the spread of the
    N values against the metric's bound in BENCHMARK.json."""
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    values: dict[tuple[str, str], list[float]] = {}
    for repeat in range(args.repeat):
        for workload in workloads:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed + repeat), "--seconds", str(args.seconds),
                "--trace", "0",
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(done.stdout)
                print(f"{workload} (set {repeat}) failed", file=sys.stderr)
                return 1
            metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
            for name, entry in metrics.items():
                values.setdefault((workload, name), []).append(entry["value"])
            print(f"set {repeat} {workload}: done", file=sys.stderr)
    worst = 0
    print("| workload | metric | values | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|")
    for (workload, name), runs in values.items():
        share = spread(runs)
        flag = "" if share <= bounds[name] else " EXCEEDED"
        worst |= bool(flag)
        shown = ", ".join(f"{value:.4g}" for value in runs)
        print(f"| {workload} | {name} | {shown} | {share:.3f} | {bounds[name]} | "
              f"{share / bounds[name]:.2f}{flag} |")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2 s window, one set-up, a tenth of the store")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-spread", action="store_true")
    parser.add_argument("--spans-out", help="write the traced run's raw spans here")
    parser.add_argument("--inject-failure", action="store_true",
                        help="fail one correctness check (for the smoke test)")
    args = parser.parse_args(argv)

    def interrupted(signum: int, _frame: Any) -> None:
        raise KeyboardInterrupt(f"signal {signum}")

    # As exceptions, so that every `with` and `finally` on the way out runs:
    # the server child is reaped and the work directory removed.
    signal.signal(signal.SIGINT, interrupted)
    signal.signal(signal.SIGTERM, interrupted)
    if not args.check_spread and args.workload is None:
        parser.error("--workload is required")
    try:
        return check_spread(args) if args.check_spread else run_workload(args)
    except KeyboardInterrupt as stop:
        print(f"run.py: stopped by {stop}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
