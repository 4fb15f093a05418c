#!/usr/bin/env python
"""Regenerate the paper-comparison series as plain-text tables.

This is the standalone harness behind EXPERIMENTS.md: it reruns the
parameter sweeps of the headline experiments (E8 scaling, E9 overhead
ladder, E10 rule addition, E11 subset monitoring, E14 feature matrix,
E16 contexts) and prints one table per experiment.  Useful when you want
the series without pytest-benchmark's statistics machinery:

    python benchmarks/report.py            # all experiments
    python benchmarks/report.py E8 E14     # a selection
"""

from __future__ import annotations

import json
import os
import sys
import time

_REPO_ROOT = __file__.rsplit("/", 2)[0]
sys.path.insert(0, _REPO_ROOT)  # repo root, for `benchmarks`

from repro.core import Notifiable, Reactive, Rule, Sentinel, event_method
from repro.obs.metrics import pipeline_stats, reset_pipeline_stats
from repro.workloads import Stock, make_stocks, uniform_updates


def write_baseline(name: str, payload: dict) -> str:
    """Write a benchmark baseline JSON next to the repo root."""
    path = os.path.join(_REPO_ROOT, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def timed(fn, *args, repeat=300):
    best = float("inf")
    for _trial in range(3):
        start = time.perf_counter()
        for _ in range(repeat):
            fn(*args)
        best = min(best, (time.perf_counter() - start) / repeat)
    return best * 1e6  # µs


def table(title, headers, rows):
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


# ----------------------------------------------------------------------
def report_e8():
    from benchmarks.test_bench_subscription import build_adam, build_sentinel

    rows = []
    with Sentinel(adopt_class_rules=False):
        for total in (10, 100, 1000):
            adam_system, adam_watched = build_adam(total)
            sentinel_watched, _ = build_sentinel(total)
            adam_us = timed(adam_system.invoke, adam_watched, "set_price", 1.0)
            sentinel_us = timed(sentinel_watched.set_price, 1.0)
            rows.append(
                (total, f"{adam_us:.1f}", f"{sentinel_us:.1f}",
                 "adam" if adam_us < sentinel_us else "sentinel")
            )
    table(
        "E8: per-update µs vs total rules (1 relevant)",
        ("total rules", "adam centralized", "sentinel subscription", "winner"),
        rows,
    )


def report_e9():
    from benchmarks.test_bench_event_overhead import (
        NullConsumer,
        PassiveCounter,
        ReactiveCounter,
    )

    with Sentinel(adopt_class_rules=False):
        passive = PassiveCounter()
        unsub = ReactiveCounter()
        sub = ReactiveCounter()
        sub.subscribe(NullConsumer())
        both = ReactiveCounter()
        both.subscribe(NullConsumer())
        rows = [
            ("passive object", f"{timed(passive.bump, repeat=3000):.2f}"),
            ("reactive, undeclared method",
             f"{timed(unsub.bump_undeclared, repeat=3000):.2f}"),
            ("reactive, unsubscribed", f"{timed(unsub.bump, repeat=3000):.2f}"),
            ("reactive, subscribed (eom)", f"{timed(sub.bump, repeat=1000):.2f}"),
            ("reactive, subscribed (bom+eom)",
             f"{timed(both.bump_both, repeat=1000):.2f}"),
        ]
    table("E9: method-call cost ladder (µs)", ("configuration", "µs/call"), rows)


def report_e10():
    from benchmarks.test_bench_rule_addition import build_ode
    from repro.baselines.ode import Constraint

    rows = []
    with Sentinel(adopt_class_rules=False):
        for population in (10, 100, 1000):
            ode = build_ode(population)
            start = time.perf_counter()
            ode.redefine_class(
                ode._bench_class,
                add_constraints=[Constraint("c", lambda o: True)],
            )
            ode_us = (time.perf_counter() - start) * 1e6
            _stocks = [Stock(f"S{i}", 1.0) for i in range(population)]

            def add_sentinel_rule():
                rule = Rule(
                    "r", "end Stock::set_price(float price)",
                    action=lambda ctx: None,
                )
                Stock._class_consumers.append(rule)
                Stock._class_consumers.pop()

            sentinel_us = timed(add_sentinel_rule, repeat=200)
            rows.append((population, f"{ode_us:.1f}", f"{sentinel_us:.1f}"))
    table(
        "E10: add one class rule (µs) vs live instances",
        ("instances", "ode redefinition", "sentinel rule object"),
        rows,
    )


def report_e11():
    from benchmarks.test_bench_instance_rules import (
        POPULATION,
        UPDATES,
        adam_workload,
        sentinel_workload,
    )

    rows = []
    with Sentinel(adopt_class_rules=False):
        for subset in (1, 50, 500):
            sentinel_run = sentinel_workload(subset)
            adam_run = adam_workload(subset)
            sentinel_ms = timed(sentinel_run, repeat=3) / 1000
            adam_ms = timed(adam_run, repeat=3) / 1000
            rows.append(
                (f"{subset}/{POPULATION}", f"{adam_ms:.2f}",
                 f"{sentinel_ms:.2f}",
                 "sentinel" if sentinel_ms < adam_ms else "adam")
            )
    table(
        f"E11: {UPDATES} uniform updates, rule on k of {POPULATION} (ms)",
        ("k/N", "adam", "sentinel", "winner"),
        rows,
    )


def report_e14():
    from benchmarks.test_bench_feature_matrix import build_matrix, render

    print("\n== E14: feature matrix (executed probes) ==")
    print(render(build_matrix()))


def report_e16():
    from benchmarks.test_bench_contexts import BURSTS, BURST_SIZE, build, bursty_stream

    stream = bursty_stream()
    rows = []
    from repro.core import ParameterContext

    for context in ParameterContext:
        event, signals = build(context.value)
        start = time.perf_counter()
        for occurrence in stream:
            event.notify(occurrence)
        elapsed_ms = (time.perf_counter() - start) * 1000
        max_size = max((len(s.constituents) for s in signals), default=0)
        rows.append(
            (context.value, f"{elapsed_ms:.2f}", len(signals), max_size)
        )
    table(
        f"E16: sequence over {BURSTS} bursts × {BURST_SIZE} (per stream)",
        ("context", "ms", "composites", "max size"),
        rows,
    )


def report_hotpath():
    """Event→rule hot path: the E9 ladder plus consumer-cache engagement.

    Writes ``BENCH_hotpath.json`` at the repo root — the committed baseline
    the perf work is gated against.
    """
    from benchmarks.test_bench_event_overhead import (
        NullConsumer,
        PassiveCounter,
        ReactiveCounter,
    )

    with Sentinel(adopt_class_rules=False):
        passive = PassiveCounter()
        unsub = ReactiveCounter()
        sub = ReactiveCounter()
        sub.subscribe(NullConsumer())

        passive_us = timed(passive.bump, repeat=3000)
        unsub_us = timed(unsub.bump, repeat=3000)
        reset_pipeline_stats()
        sub_us = timed(sub.bump, repeat=3000)
        stats = pipeline_stats.snapshot()

    overhead_us = sub_us - passive_us
    total = stats["consumer_cache_hits"] + stats["consumer_cache_misses"]
    hit_rate = stats["consumer_cache_hits"] / total if total else 0.0
    payload = {
        "passive_call_us": round(passive_us, 4),
        "reactive_unsubscribed_us": round(unsub_us, 4),
        "reactive_subscribed_us": round(sub_us, 4),
        "per_event_overhead_us": round(overhead_us, 4),
        "subscribed_over_passive": round(sub_us / passive_us, 2),
        "consumer_cache_hit_rate": round(hit_rate, 4),
        "consumer_cache_hits": stats["consumer_cache_hits"],
        "consumer_cache_misses": stats["consumer_cache_misses"],
    }
    path = write_baseline("BENCH_hotpath.json", payload)
    table(
        "HOTPATH: event pipeline baseline (µs)",
        ("metric", "value"),
        sorted(payload.items()),
    )
    print(f"wrote {path}")


def report_oodb():
    """OODB write path: bulk commit throughput through group commit.

    Writes ``BENCH_oodb.json`` at the repo root.
    """
    import shutil
    import tempfile

    from repro.oodb.database import Database
    from repro.oodb.schema import ClassRegistry, Persistent

    registry = ClassRegistry()

    class Item(Persistent):
        def __init__(self, n: int) -> None:
            super().__init__()
            self.n = n
            self.name = f"item-{n}"
            self.price = float(n)

    registry.register(Item)

    def best_seconds(fn, trials=7):
        results = []
        for _ in range(trials):
            start = time.perf_counter()
            fn()
            results.append(time.perf_counter() - start)
        return min(results)

    def measure() -> dict:
        directory = tempfile.mkdtemp(prefix="repro-bench-oodb-")
        db = Database(directory, registry=registry, sync=False)
        try:

            def create200():
                with db.transaction():
                    for i in range(200):
                        db.add(Item(i))

            create_s = best_seconds(create200)
            objs = []
            with db.transaction():
                for i in range(200):
                    obj = Item(i)
                    db.add(obj)
                    objs.append(obj)

            def update200():
                with db.transaction():
                    for obj in objs:
                        obj.price += 1.0

            update_s = best_seconds(update200)
        finally:
            db.close()
            shutil.rmtree(directory, ignore_errors=True)
        return {
            "create_commit_200_objs_per_s": round(200 / create_s),
            "update_commit_200_objs_per_s": round(200 / update_s),
        }

    reset_pipeline_stats()
    grouped = measure()
    stats = pipeline_stats.snapshot()

    payload = {
        "group_commit": grouped,
        "serializer_fast_objects": stats["serializer_fast_objects"],
        "serializer_slow_objects": stats["serializer_slow_objects"],
        "group_commits": stats["group_commits"],
        "group_commit_records": stats["group_commit_records"],
        "wal_syncs": stats["wal_syncs"],
    }
    path = write_baseline("BENCH_oodb.json", payload)
    table(
        "OODB: bulk-commit throughput (objs/s, sync=False)",
        ("configuration", "create", "update"),
        [
            ("group commit", grouped["create_commit_200_objs_per_s"],
             grouped["update_commit_200_objs_per_s"]),
        ],
    )
    print(f"wrote {path}")


def report_obs():
    """Observability overhead: tracer disabled vs enabled on the hot path.

    Writes ``BENCH_obs.json`` at the repo root: the disabled-mode
    regression against the committed ``BENCH_hotpath.json`` baseline (the
    ≤5% acceptance gate), the measured cost of running with tracing
    enabled (including spans produced per rule firing), and the sampled
    1-in-16 mode gated at ≤1.5× disabled.
    """
    from benchmarks.test_bench_obs import (
        SAMPLE_INTERVAL,
        load_hotpath_baseline,
        measure_firing,
        measure_pipeline,
    )
    from repro.obs import tracer

    with Sentinel(adopt_class_rules=False):
        disabled = measure_pipeline(tracing=False)
        enabled = measure_pipeline(tracing=True)
        sampled = measure_pipeline(tracing=True, sample=SAMPLE_INTERVAL)

        # Flight recorder: zero code on the fan-out path (gated in
        # test_bench_obs), one deque append per rule firing (recorded
        # here as the firing-path on/off ratio).
        firing_flight_off = measure_firing(flight_on=False)
        firing_flight_on = measure_firing(flight_on=True)

        # Spans per firing: one monitored call through a full ECA rule.
        from repro.workloads import Stock

        stock = Stock("IBM", 100.0)
        rule = Rule(
            "ObsReport",
            "end Stock::set_price(float price)",
            condition=lambda ctx: True,
            action=lambda ctx: None,
        )
        stock.subscribe(rule)
        stock.set_price(1.0)  # warm
        tracer.enable(capacity=256)
        try:
            tracer.clear()
            stock.set_price(2.0)
            spans_per_firing = len(tracer.spans())
        finally:
            tracer.disable()
            tracer.clear()

    baseline = load_hotpath_baseline()
    payload = {
        "disabled": {k: round(v, 4) for k, v in disabled.items()},
        "enabled": {k: round(v, 4) for k, v in enabled.items()},
        "sampled": {k: round(v, 4) for k, v in sampled.items()},
        "sample_interval": SAMPLE_INTERVAL,
        "enabled_over_disabled": round(
            enabled["subscribed_us"] / disabled["subscribed_us"], 2
        ),
        "sampled_over_disabled": round(
            sampled["subscribed_us"] / disabled["subscribed_us"], 2
        ),
        "disabled_ratio_vs_baseline": round(
            disabled["subscribed_over_passive"]
            / baseline["subscribed_over_passive"],
            3,
        ),
        "baseline_subscribed_over_passive": baseline["subscribed_over_passive"],
        "spans_per_rule_firing": spans_per_firing,
        "flight": {
            "firing_us_off": round(firing_flight_off, 4),
            "firing_us_on": round(firing_flight_on, 4),
            "firing_on_over_off": round(
                firing_flight_on / firing_flight_off, 3
            ),
        },
    }
    path = write_baseline("BENCH_obs.json", payload)
    table(
        "OBS: tracer overhead (µs/call)",
        ("mode", "subscribed", "overhead vs passive", "ratio"),
        [
            ("disabled", f"{disabled['subscribed_us']:.3f}",
             f"{disabled['per_event_overhead_us']:.3f}",
             f"{disabled['subscribed_over_passive']:.2f}"),
            (f"sampled 1-in-{SAMPLE_INTERVAL}", f"{sampled['subscribed_us']:.3f}",
             f"{sampled['per_event_overhead_us']:.3f}",
             f"{sampled['subscribed_over_passive']:.2f}"),
            ("enabled", f"{enabled['subscribed_us']:.3f}",
             f"{enabled['per_event_overhead_us']:.3f}",
             f"{enabled['subscribed_over_passive']:.2f}"),
        ],
    )
    table(
        "OBS: flight recorder on the firing path (µs/firing)",
        ("mode", "firing", "on/off"),
        [
            ("flight off", f"{firing_flight_off:.3f}", ""),
            ("flight on (default)", f"{firing_flight_on:.3f}",
             f"{firing_flight_on / firing_flight_off:.3f}"),
        ],
    )
    print(f"spans per rule firing: {spans_per_firing}")
    print(f"wrote {path}")


def report_tsdb():
    """Continuous telemetry: collector overhead, store throughput, reads.

    Writes ``BENCH_tsdb.json`` at the repo root: the hot-path cost with
    the background collector scraping every 0.25 s (20× the 5 s default,
    so the gate is conservative) against the committed
    ``BENCH_hotpath.json`` baseline, plus append/query/rate micro-costs
    and the on-disk bytes per sample.  Gated at ≤5% hot-path overhead in
    ``benchmarks/test_bench_tsdb.py``.
    """
    import shutil
    import tempfile

    from benchmarks.test_bench_obs import (
        load_hotpath_baseline,
        measure_pipeline,
    )
    from benchmarks.test_bench_tsdb import (
        COLLECTOR_INTERVAL_S,
        make_samples,
    )
    from repro.obs.tsdb import TimeSeriesStore, telemetry

    with Sentinel(adopt_class_rules=False):
        collector_off = measure_pipeline(tracing=False)
        directory = tempfile.mkdtemp(prefix="repro-bench-tsdb-")
        telemetry.open(directory, interval=COLLECTOR_INTERVAL_S)
        try:
            collector_on = measure_pipeline(tracing=False)
            scrapes = telemetry.collector.scrapes
            scrape_errors = telemetry.collector.scrape_errors
        finally:
            telemetry.close()
            shutil.rmtree(directory, ignore_errors=True)

    store_dir = tempfile.mkdtemp(prefix="repro-bench-tsdb-store-")
    store = TimeSeriesStore(store_dir)
    try:
        samples = make_samples(40)
        clock = [1000.0]

        def append_one():
            clock[0] += 1.0
            store.append(samples, ts=clock[0])

        append_us = timed(append_one, repeat=500)
        appended = clock[0] - 1000.0
        stats = store.stats()
        bytes_per_sample = stats["bytes"] / stats["samples"]
        query_us = timed(
            lambda: store.query("series_00", clock[0] - 300, clock[0]),
            repeat=50,
        )
        rate_us = timed(
            lambda: store.rate("series_00", 300.0, at=clock[0]), repeat=50
        )
    finally:
        store.close()
        shutil.rmtree(store_dir, ignore_errors=True)

    baseline = load_hotpath_baseline()
    payload = {
        "collector_interval_s": COLLECTOR_INTERVAL_S,
        "collector_off": {k: round(v, 4) for k, v in collector_off.items()},
        "collector_on": {k: round(v, 4) for k, v in collector_on.items()},
        "on_over_off": round(
            collector_on["subscribed_us"] / collector_off["subscribed_us"], 3
        ),
        "on_ratio_vs_baseline": round(
            collector_on["subscribed_over_passive"]
            / baseline["subscribed_over_passive"],
            3,
        ),
        "baseline_subscribed_over_passive": baseline[
            "subscribed_over_passive"
        ],
        "scrapes_during_bench": scrapes,
        "scrape_errors": scrape_errors,
        "store": {
            "series_per_frame": 40,
            "frames_appended": int(appended),
            "append_frame_us": round(append_us, 2),
            "bytes_per_sample": round(bytes_per_sample, 2),
            "query_300s_us": round(query_us, 1),
            "rate_300s_us": round(rate_us, 1),
        },
        "gates": {"collector_overhead_max": 0.05},
    }
    path = write_baseline("BENCH_tsdb.json", payload)
    table(
        "TSDB: collector on the hot path (µs/call)",
        ("mode", "subscribed", "ratio vs passive"),
        [
            ("collector off", f"{collector_off['subscribed_us']:.3f}",
             f"{collector_off['subscribed_over_passive']:.2f}"),
            (f"collector on ({COLLECTOR_INTERVAL_S:g}s interval)",
             f"{collector_on['subscribed_us']:.3f}",
             f"{collector_on['subscribed_over_passive']:.2f}"),
        ],
    )
    table(
        "TSDB: store micro-costs",
        ("metric", "value"),
        sorted(payload["store"].items()),
    )
    print(f"wrote {path}")


def report_query():
    """Read path: cost-aware planner vs the seed's scan-and-filter loop.

    Writes ``BENCH_query.json`` at the repo root: five workloads over a
    10 000-object extent, timed interleaved A/B (planner / legacy
    alternating, min of trials) so machine drift hits both sides equally.
    The legacy side reproduces the seed's execution exactly — sorted
    extent, one ``fetch`` per OID, Python-side filter, full sort, then
    limit.  Gated in CI at ≥5× for the indexed range + order_by + limit
    workload and ≥20× for the index-only count.
    """
    import operator
    import random
    import shutil
    import tempfile

    from repro.oodb.database import Database
    from repro.oodb.schema import ClassRegistry, Persistent

    registry = ClassRegistry()

    class Emp(Persistent):
        def __init__(self, n: int, salary: int, dept: str) -> None:
            super().__init__()
            self.name = f"emp{n:05d}"
            self.salary = salary
            self.dept = dept

    registry.register(Emp)
    compare = {
        "==": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge,
    }
    missing = object()
    rng = random.Random(0x51C2)
    depts = ("eng", "sales", "hr", "ops", "legal", "qa", "it", "pr")
    salaries = [rng.randrange(30_000, 150_000) for _ in range(10_000)]

    directory = tempfile.mkdtemp(prefix="repro-bench-query-")
    db = Database(directory, registry=registry, sync=False)
    try:
        with db.transaction():
            for n, salary in enumerate(salaries):
                db.add(Emp(n, salary, depts[n % len(depts)]))
        db.create_index(Emp, "salary")
        db.create_index(Emp, "dept")

        def legacy(filters, order=None, limit=None, count_only=False):
            """The seed read path, reproduced for the A/B baseline."""
            out = []
            for oid in sorted(db.extents.of("Emp")):
                obj = db.fetch(oid)
                for attribute, op, value in filters:
                    attr_value = getattr(obj, attribute, missing)
                    if attr_value is missing or not compare[op](attr_value, value):
                        break
                else:
                    out.append(obj)
            if order is not None:
                out.sort(key=lambda o: getattr(o, order), reverse=False)
            if limit is not None:
                out = out[:limit]
            return len(out) if count_only else out

        ordered = sorted(salaries)
        p50, p80, p95 = ordered[5_000], ordered[8_000], ordered[9_500]
        point = salaries[1_234]

        workloads = [
            (
                "point_lookup",
                db.query(Emp).where_eq("salary", point),
                lambda: legacy([("salary", "==", point)]),
            ),
            (
                "range_5pct",
                db.query(Emp).where_op("salary", ">=", p95),
                lambda: legacy([("salary", ">=", p95)]),
            ),
            (
                "multi_filter_intersect",
                db.query(Emp).where_op("salary", ">=", p80).where_eq("dept", "eng"),
                lambda: legacy([("salary", ">=", p80), ("dept", "==", "eng")]),
            ),
            (
                "range_order_by_limit",
                db.query(Emp)
                .where_op("salary", ">=", p50)
                .order_by("salary")
                .limit(10),
                lambda: legacy([("salary", ">=", p50)], order="salary", limit=10),
            ),
            (
                "index_only_count",
                db.query(Emp).where_op("salary", ">=", p50),
                lambda: legacy([("salary", ">=", p50)], count_only=True),
            ),
        ]

        legacy([])  # warm the object cache so A/B compares execution only

        results: dict[str, dict] = {}
        rows = []
        for name, query, legacy_fn in workloads:
            count_only = name == "index_only_count"
            planner_fn = query.count if count_only else query.all
            # Correctness first: both sides must agree before we time them.
            got, want = planner_fn(), legacy_fn()
            if count_only:
                assert got == want, (name, got, want)
            elif name == "range_order_by_limit":
                assert [o.name for o in got] == [o.name for o in want], name
            else:
                assert {o.name for o in got} == {o.name for o in want}, name
            planner_best = legacy_best = float("inf")
            for _trial in range(7):
                start = time.perf_counter()
                planner_fn()
                planner_best = min(planner_best, time.perf_counter() - start)
                start = time.perf_counter()
                legacy_fn()
                legacy_best = min(legacy_best, time.perf_counter() - start)
            speedup = legacy_best / planner_best
            results[name] = {
                "planner_us": round(planner_best * 1e6, 1),
                "legacy_us": round(legacy_best * 1e6, 1),
                "speedup": round(speedup, 2),
                "access_path": query.explain().access_path,
            }
            rows.append(
                (name, results[name]["access_path"],
                 f"{results[name]['planner_us']:.0f}",
                 f"{results[name]['legacy_us']:.0f}",
                 f"{speedup:.1f}x")
            )

        # Hash vs B-tree on the same point lookup.  With both kinds on
        # the unique `name` attribute, the planner's cost model prefers
        # the extendible hash's O(1) probe over the B-tree's bisect
        # descent; the timing compares the probes themselves (the
        # planner overhead around them is identical by construction).
        btree_path = db.query(Emp).where_eq("name", "x").explain().access_path
        db.create_index(Emp, "name")
        db.create_index(Emp, "name", kind="hash")
        hash_path = db.query(Emp).where_eq("name", "x").explain().access_path
        assert (btree_path, hash_path) == ("extent_scan", "hash_eq")
        assert len(db.query(Emp).where_eq("name", "emp00042").all()) == 1

        btree_index = db.indexes.lookup("Emp", "name", "btree")
        hash_index = db.indexes.lookup("Emp", "name", "hash")
        probe_names = [
            f"emp{n:05d}" for n in rng.sample(range(len(salaries)), 500)
        ]
        for probe in probe_names:
            assert btree_index.search(probe) == hash_index.search(probe)

        def probe_all(index):
            search = index.search
            for probe in probe_names:
                search(probe)

        btree_best = hash_best = float("inf")
        for _trial in range(9):  # interleaved: drift hits both sides
            start = time.perf_counter()
            probe_all(hash_index)
            hash_best = min(hash_best, time.perf_counter() - start)
            start = time.perf_counter()
            probe_all(btree_index)
            btree_best = min(btree_best, time.perf_counter() - start)

        hash_speedup = btree_best / hash_best
        per_lookup = 1e6 / len(probe_names)
        results["point_lookup_hash_vs_btree"] = {
            "btree_us": round(btree_best * per_lookup, 2),
            "hash_us": round(hash_best * per_lookup, 2),
            "speedup": round(hash_speedup, 2),
            "access_path": hash_path,
        }
        rows.append(
            ("point_lookup_hash_vs_btree", f"{hash_path} beats btree",
             f"{hash_best * per_lookup:.2f}",
             f"{btree_best * per_lookup:.2f}",
             f"{hash_speedup:.2f}x")
        )
    finally:
        db.close()
        shutil.rmtree(directory, ignore_errors=True)

    payload = {
        "objects": len(salaries),
        "workloads": results,
        "range_order_limit_speedup": results["range_order_by_limit"]["speedup"],
        "index_only_count_speedup": results["index_only_count"]["speedup"],
        "hash_point_lookup_speedup": results["point_lookup_hash_vs_btree"][
            "speedup"
        ],
        "gates": {
            "range_order_limit_min": 5.0,
            "index_only_count_min": 20.0,
            "hash_point_lookup_min": 1.5,
        },
    }
    path = write_baseline("BENCH_query.json", payload)
    table(
        "QUERY: planner vs seed scan path (10k objects, µs)",
        ("workload", "access path", "planner", "legacy", "speedup"),
        rows,
    )
    print(f"wrote {path}")


def report_codec():
    """Write/read path: struct-packed codec vs the tagged-JSON format.

    Writes ``BENCH_codec.json`` at the repo root.  Twin classes carry the
    same six attributes (int/float/bool/str/oid/datetime); one declares a
    ``_p_schema`` and packs, the other stays on the legacy JSON record
    format.  Encode is the commit-path payload build, decode is the full
    read-path materialization (payload -> record -> live instance), both
    through the real serializer.  Timed interleaved A/B (packed / JSON
    alternating, min of trials); correctness is asserted attr-for-attr
    before anything is timed.  Gated at >=2x for encode+decode combined.
    """
    import datetime as dt
    import shutil
    import tempfile

    from repro.oodb import codec
    from repro.oodb.database import Database
    from repro.oodb.oid import Oid
    from repro.oodb.schema import ClassRegistry, Persistent

    registry = ClassRegistry()

    class PackedEvt(Persistent, registry=registry):
        _p_schema = [
            ("seq", "int"),
            ("score", "float"),
            ("active", "bool"),
            ("label", "str:24"),
            ("ref", "oid"),
            ("stamp", "datetime"),
        ]

    class JsonEvt(Persistent, registry=registry):
        pass

    def populate(cls, n):
        obj = cls()
        obj.__dict__.update(
            seq=n,
            score=n * 0.5,
            active=n % 2 == 0,
            label=f"evt-{n:06d}",
            ref=Oid(n + 1),
            stamp=dt.datetime(2026, 1, 1) + dt.timedelta(seconds=n),
        )
        return obj

    count = 2_000
    directory = tempfile.mkdtemp(prefix="repro-bench-codec-")
    db = Database(directory, registry=registry, sync=False)
    try:
        ser = db.serializer
        schema = codec.schema_for(PackedEvt)
        assert schema is not None
        packed_objs = [populate(PackedEvt, n) for n in range(count)]
        json_objs = [populate(JsonEvt, n) for n in range(count)]

        def encode_packed():
            encode = ser.encode_packed_payload
            return [
                encode(n + 1, obj, schema)
                for n, obj in enumerate(packed_objs)
            ]

        def encode_json():
            encode = ser.encode_object
            to_json = ser.record_to_json
            with_oid = ser.record_with_oid
            return [
                with_oid(n + 1, to_json(encode(obj)))
                for n, obj in enumerate(json_objs)
            ]

        packed_payloads = encode_packed()
        json_payloads = encode_json()

        def decode(payloads):
            from_payload = ser.record_from_payload
            materialize = ser.decode_object
            return [materialize(from_payload(p)) for p in payloads]

        # Correctness before timing: the decoded twins must agree on
        # every attribute, type-exactly (str stays str, Oid stays Oid,
        # datetime survives to the microsecond).
        for a, b in zip(decode(packed_payloads), decode(json_payloads)):
            attrs_a = {
                k: v for k, v in vars(a).items() if not k.startswith("_p_")
            }
            attrs_b = {
                k: v for k, v in vars(b).items() if not k.startswith("_p_")
            }
            assert attrs_a == attrs_b, (attrs_a, attrs_b)
            assert all(
                type(attrs_a[k]) is type(attrs_b[k]) for k in attrs_a
            )

        sides = {
            "packed": {
                "encode": encode_packed,
                "decode": lambda: decode(packed_payloads),
            },
            "json": {
                "encode": encode_json,
                "decode": lambda: decode(json_payloads),
            },
        }
        best = {
            side: {op: float("inf") for op in ("encode", "decode")}
            for side in sides
        }
        for _trial in range(9):  # interleaved: drift hits both sides
            for side, ops in sides.items():
                for op, fn in ops.items():
                    start = time.perf_counter()
                    fn()
                    best[side][op] = min(
                        best[side][op], time.perf_counter() - start
                    )

        per_record = 1e6 / count
        encode_speedup = best["json"]["encode"] / best["packed"]["encode"]
        decode_speedup = best["json"]["decode"] / best["packed"]["decode"]
        roundtrip_speedup = (
            best["json"]["encode"] + best["json"]["decode"]
        ) / (best["packed"]["encode"] + best["packed"]["decode"])
        packed_bytes = sum(map(len, packed_payloads)) / count
        json_bytes = sum(map(len, json_payloads)) / count

        gate = 2.0
        assert roundtrip_speedup >= gate, (
            f"codec roundtrip speedup {roundtrip_speedup:.2f}x "
            f"is below the {gate}x gate"
        )

        # End-to-end: bulk commit (WAL + heap + extents) and cold
        # open + full scan, where the codec is one cost among many —
        # the win is diluted but must stay a win.
        def bulk_commit(cls):
            bulk_dir = tempfile.mkdtemp(prefix="repro-bench-codec-e2e-")
            start = time.perf_counter()
            bulk_db = Database(bulk_dir, registry=registry, sync=False)
            with bulk_db.transaction():
                for n in range(count):
                    bulk_db.add(populate(cls, n))
            elapsed = time.perf_counter() - start
            bulk_db.close()
            return bulk_dir, elapsed

        def cold_scan(bulk_dir, cls):
            start = time.perf_counter()
            scan_db = Database(bulk_dir, registry=registry, sync=False)
            got = len(scan_db.query(cls).all())
            elapsed = time.perf_counter() - start
            scan_db.close()
            assert got == count, got
            return elapsed

        e2e = {
            side: {"commit": float("inf"), "scan": float("inf")}
            for side in sides
        }
        for _trial in range(5):  # interleaved, like the microbench
            for side, cls in (("packed", PackedEvt), ("json", JsonEvt)):
                bulk_dir, commit_s = bulk_commit(cls)
                try:
                    scan_s = cold_scan(bulk_dir, cls)
                finally:
                    shutil.rmtree(bulk_dir, ignore_errors=True)
                e2e[side]["commit"] = min(e2e[side]["commit"], commit_s)
                e2e[side]["scan"] = min(e2e[side]["scan"], scan_s)
        commit_speedup = e2e["json"]["commit"] / e2e["packed"]["commit"]
        scan_speedup = e2e["json"]["scan"] / e2e["packed"]["scan"]
    finally:
        db.close()
        shutil.rmtree(directory, ignore_errors=True)

    payload = {
        "records": count,
        "encode_us": {
            side: round(best[side]["encode"] * per_record, 3)
            for side in sides
        },
        "decode_us": {
            side: round(best[side]["decode"] * per_record, 3)
            for side in sides
        },
        "bytes_per_record": {
            "packed": round(packed_bytes, 1),
            "json": round(json_bytes, 1),
        },
        "encode_speedup": round(encode_speedup, 2),
        "decode_speedup": round(decode_speedup, 2),
        "roundtrip_speedup": round(roundtrip_speedup, 2),
        "size_ratio": round(json_bytes / packed_bytes, 2),
        "bulk_commit_ms": {
            side: round(e2e[side]["commit"] * 1e3, 2) for side in sides
        },
        "cold_open_scan_ms": {
            side: round(e2e[side]["scan"] * 1e3, 2) for side in sides
        },
        "bulk_commit_speedup": round(commit_speedup, 2),
        "cold_open_scan_speedup": round(scan_speedup, 2),
        "gates": {"roundtrip_min": gate},
    }
    path = write_baseline("BENCH_codec.json", payload)
    table(
        "CODEC: packed vs JSON record format (µs per record)",
        ("op", "packed", "json", "speedup"),
        [
            ("encode",
             f"{best['packed']['encode'] * per_record:.2f}",
             f"{best['json']['encode'] * per_record:.2f}",
             f"{encode_speedup:.2f}x"),
            ("decode",
             f"{best['packed']['decode'] * per_record:.2f}",
             f"{best['json']['decode'] * per_record:.2f}",
             f"{decode_speedup:.2f}x"),
            ("roundtrip", "-", "-", f"{roundtrip_speedup:.2f}x"),
            ("bytes/record",
             f"{packed_bytes:.0f}",
             f"{json_bytes:.0f}",
             f"{json_bytes / packed_bytes:.2f}x"),
            ("bulk commit (ms)",
             f"{e2e['packed']['commit'] * 1e3:.1f}",
             f"{e2e['json']['commit'] * 1e3:.1f}",
             f"{commit_speedup:.2f}x"),
            ("cold open + scan (ms)",
             f"{e2e['packed']['scan'] * 1e3:.1f}",
             f"{e2e['json']['scan'] * 1e3:.1f}",
             f"{scan_speedup:.2f}x"),
        ],
    )
    print(f"wrote {path}")


def report_concurrency(
    *,
    per_thread_total: int = 2400,
    rounds: int = 4,
    read_ops: int = 2000,
    write_seconds: float = 1.0,
):
    """CONCURRENCY: multi-threaded mixed workload against one database.

    Three sections:

    1. *Mixed-workload clients* — k client threads (k in 1/2/4/8), each
       running read-modify-write transactions against a private slice of
       a shared accounts table (``locking=True`` engine: strict 2PL plus
       the WAL group-commit syncer thread).  Throughput and latency are
       taken per *round* — every round measures all thread counts back
       to back so the 1-thread baseline and the k-thread run see the
       same disk conditions — and the best paired round wins.
    2. *Snapshot reads vs a writer* — p50/p95 of lock-free MVCC snapshot
       reads alone, then with a concurrent writer hammering the same
       objects.  The reader's calls into ``LockManager.acquire`` are
       counted via a wrapper and must be zero.
    3. *Gates* — scaling and reader-isolation gates, recorded in
       ``BENCH_concurrency.json``.

    The scaling gate is environment-aware.  On a multi-core host the
    4-client ratio must reach 1.8x.  On a single-core host the GIL
    serializes every client's CPU and the only speedup available is
    overlapping WAL fsyncs with other clients' work; scheduler wakeup
    latency (~100us on virtualized single cores) then caps the 4-client
    ratio, so the gate becomes: peak ratio across 2/4/8 clients >= 1.8x
    and the 4-client ratio >= 1.3x.  The rule that was applied is stored
    in the baseline as ``gate_rule``.
    """
    import tempfile
    import threading

    from repro.oodb.database import Database
    from repro.oodb.schema import Persistent

    class Account(Persistent):
        def __init__(self, n: int = 0) -> None:
            super().__init__()
            self.n = n
            self.balance = 100.0

    def pctl(values, q):
        if not values:
            return 0.0
        ordered = sorted(values)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    tmp = tempfile.mkdtemp(prefix="bench-conc-")
    db = Database(os.path.join(tmp, "db"), locking=True)
    oids = []
    with db.transaction():
        for i in range(64):
            oids.append(db.add(Account(i)))

    # -- section 1: mixed-workload client scaling ----------------------
    thread_counts = (1, 2, 4, 8)

    def run_clients(k: int, total: int):
        per = total // k
        lats: list[float] = []
        lats_lock = threading.Lock()

        def worker(tid: int) -> None:
            part = oids[tid * 8:(tid + 1) * 8]
            mine = []
            for i in range(per):
                def fn():
                    acct = db.fetch(part[i % 8])
                    acct.balance += 1
                t0 = time.perf_counter()
                db.run_transaction(fn)
                mine.append(time.perf_counter() - t0)
            with lats_lock:
                lats.extend(mine)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(k)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        return per * k / wall, lats

    run_clients(4, per_thread_total // 3)  # warmup: page cache + WAL file
    best = {
        k: {"throughput": 0.0, "p50_us": 0.0, "p95_us": 0.0}
        for k in thread_counts
    }
    best_round = {"ratio4": 0.0, "peak_ratio": 0.0}
    for _round in range(rounds):
        round_thr = {}
        for k in thread_counts:
            throughput, lats = run_clients(k, per_thread_total)
            round_thr[k] = throughput
            if throughput > best[k]["throughput"]:
                best[k] = {
                    "throughput": throughput,
                    "p50_us": pctl(lats, 0.50) * 1e6,
                    "p95_us": pctl(lats, 0.95) * 1e6,
                }
        ratio4 = round_thr[4] / round_thr[1]
        peak = max(round_thr[k] / round_thr[1] for k in (2, 4, 8))
        best_round["ratio4"] = max(best_round["ratio4"], ratio4)
        best_round["peak_ratio"] = max(best_round["peak_ratio"], peak)

    # -- section 2: snapshot readers vs a concurrent writer ------------
    reader_acquires = 0
    inner_acquire = db.locks.acquire
    reader_ident: set[int] = set()

    def counting_acquire(*args, **kwargs):
        nonlocal reader_acquires
        if threading.get_ident() in reader_ident:
            reader_acquires += 1
        return inner_acquire(*args, **kwargs)

    db.locks.acquire = counting_acquire  # type: ignore[method-assign]

    def read_pass(n: int) -> list[float]:
        reader_ident.add(threading.get_ident())
        lats = []
        for i in range(n):
            t0 = time.perf_counter()
            with db.snapshot() as snap:
                snap.record(oids[i % 64])
            lats.append(time.perf_counter() - t0)
        reader_ident.discard(threading.get_ident())
        return lats

    solo_lats = read_pass(read_ops)

    stop_writer = threading.Event()
    writes_done = 0

    def writer() -> None:
        nonlocal writes_done
        i = 0
        while not stop_writer.is_set():
            def fn():
                acct = db.fetch(oids[i % 64])
                acct.balance += 1
            db.run_transaction(fn)
            writes_done += 1
            i += 1

    wt = threading.Thread(target=writer)
    wt.start()
    deadline = time.perf_counter() + write_seconds
    busy_lats: list[float] = []
    while time.perf_counter() < deadline:
        busy_lats.extend(read_pass(200))
    stop_writer.set()
    wt.join()
    db.locks.acquire = inner_acquire  # type: ignore[method-assign]
    db.close()

    solo_p95 = pctl(solo_lats, 0.95) * 1e6
    busy_p95 = pctl(busy_lats, 0.95) * 1e6

    # -- gates ---------------------------------------------------------
    cores = os.cpu_count() or 1
    ratio4 = best[4]["throughput"] / best[1]["throughput"]
    peak_ratio = max(
        best[k]["throughput"] / best[1]["throughput"] for k in (2, 4, 8)
    )
    if cores > 1:
        gate_rule = "multi_core_ratio4"
        scaling_ok = best_round["ratio4"] >= 1.8 or ratio4 >= 1.8
    else:
        gate_rule = "single_core_peak"
        scaling_ok = (
            max(best_round["peak_ratio"], peak_ratio) >= 1.8
            and max(best_round["ratio4"], ratio4) >= 1.3
        )
    # A writer must not stall snapshot readers: generous absolute slack
    # (5ms) absorbs GIL scheduling jitter, the relative bound catches
    # real blocking (a blocked reader would wait a full write txn).
    reader_ok = busy_p95 <= max(10 * solo_p95, solo_p95 + 5000.0)
    locks_ok = reader_acquires == 0

    payload = {
        "clients": {
            str(k): {
                "throughput_txn_s": round(best[k]["throughput"], 1),
                "p50_us": round(best[k]["p50_us"], 1),
                "p95_us": round(best[k]["p95_us"], 1),
                "speedup_vs_1": round(
                    best[k]["throughput"] / best[1]["throughput"], 3
                ),
            }
            for k in thread_counts
        },
        "paired_rounds": {
            "ratio4_best": round(best_round["ratio4"], 3),
            "peak_ratio_best": round(best_round["peak_ratio"], 3),
            "rounds": rounds,
        },
        "snapshot_reads": {
            "solo_p50_us": round(pctl(solo_lats, 0.50) * 1e6, 1),
            "solo_p95_us": round(solo_p95, 1),
            "with_writer_p50_us": round(pctl(busy_lats, 0.50) * 1e6, 1),
            "with_writer_p95_us": round(busy_p95, 1),
            "concurrent_writer_txns": writes_done,
            "reader_lock_acquisitions": reader_acquires,
        },
        "environment": {
            "cpu_count": cores,
            "per_thread_total": per_thread_total,
        },
        "gate_rule": gate_rule,
        "gates": {
            "scaling": bool(scaling_ok),
            "snapshot_reader_isolation": bool(reader_ok),
            "snapshot_reader_lock_free": bool(locks_ok),
        },
        "gates_green": bool(scaling_ok and reader_ok and locks_ok),
    }
    path = write_baseline("BENCH_concurrency.json", payload)

    table(
        "CONCURRENCY / mixed-workload clients (best paired round)",
        ["clients", "txn/s", "p50 us", "p95 us", "speedup"],
        [
            (
                k,
                f"{best[k]['throughput']:.0f}",
                f"{best[k]['p50_us']:.0f}",
                f"{best[k]['p95_us']:.0f}",
                f"{best[k]['throughput'] / best[1]['throughput']:.2f}x",
            )
            for k in thread_counts
        ],
    )
    table(
        "CONCURRENCY / snapshot reads",
        ["metric", "solo", "with writer"],
        [
            ("p50 (us)",
             f"{pctl(solo_lats, 0.50) * 1e6:.0f}",
             f"{pctl(busy_lats, 0.50) * 1e6:.0f}"),
            ("p95 (us)",
             f"{solo_p95:.0f}",
             f"{busy_p95:.0f}"),
            ("reader lock acquisitions", "0 required", str(reader_acquires)),
        ],
    )
    status = "green" if payload["gates_green"] else "RED"
    print(
        f"\ngates ({gate_rule}): scaling={scaling_ok} "
        f"reader_isolation={reader_ok} lock_free={locks_ok} -> {status}"
    )
    print(f"wrote {path}")
    return payload


REPORTS = {
    "E8": report_e8,
    "E9": report_e9,
    "E10": report_e10,
    "E11": report_e11,
    "E14": report_e14,
    "E16": report_e16,
    "HOTPATH": report_hotpath,
    "OODB": report_oodb,
    "OBS": report_obs,
    "TSDB": report_tsdb,
    "QUERY": report_query,
    "CODEC": report_codec,
    "CONCURRENCY": report_concurrency,
}


def main(argv: list[str]) -> None:
    selected = [a.upper() for a in argv] or list(REPORTS)
    unknown = [s for s in selected if s not in REPORTS]
    if unknown:
        raise SystemExit(f"unknown experiments {unknown}; pick from {list(REPORTS)}")
    for name in selected:
        REPORTS[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
