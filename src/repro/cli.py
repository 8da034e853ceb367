"""Command-line interface: ``python -m repro <command>``.

Operational entry points a deployment actually uses:

* ``stats``      — print Table III (published and scaled) for a dataset;
* ``build``      — build a store from a scaled dataset, report time and
                   modeled memory, optionally snapshot it to disk;
* ``inspect``    — load a snapshot and summarise it;
* ``sample``     — draw weighted neighbor samples from a snapshot;
* ``selftest``   — run the structural invariant checks on a snapshot;
* ``obs``        — run a seeded churn+sample workload on an in-process
                   cluster (optionally with injected faults) and emit
                   the observability readout: a human report, the
                   Prometheus text exposition, or a JSON dump
                   (DESIGN.md §11);
* ``doctor``     — walk a store (saved snapshot or a seeded churned
                   cluster) and emit the samtree structural-health
                   report — depth/fill histograms, α-Split pivot
                   quality, per-component memory breakdown — with an
                   optional ``--fail-on fill=0.4,depth=4`` health gate
                   (DESIGN.md §12; exit code 3 on violation);
* ``serve-sim``  — run a seeded chaos scenario (flash crowd, regional
                   outage, brownout, ...) against the deadline-aware
                   online inference tier and print its SLO report
                   (DESIGN.md §15; exit code 3 when the availability
                   target is violated);
* ``watch``      — the same scenarios with the continuous monitor and
                   tracer attached: a live per-scrape view on the
                   simulated clock (rps, windowed p99, shed rate, alert
                   states), then the SLO report, the alert timeline,
                   and the critical-path layer table (DESIGN.md §16);
* ``alerts``     — run a monitored scenario and print just its alert
                   timeline (human/json), or the post-run Prometheus
                   exposition including the ``repro_monitor_*`` /
                   ``repro_alerts_*`` self-series (``--format
                   prometheus``; lints before printing);
* ``incidents``  — list/show/export the incident bundles that
                   ``watch``/``alerts --incidents-dir`` captured when
                   alerts fired (flight-recorder rings, metric window
                   diffs, traces, scenario spec + seeds; DESIGN.md §17);
* ``replay``     — rebuild the rig from a bundle's spec, re-run the
                   captured window on the simulated clock, and verify
                   the same alert fires at the same instant with a
                   matching event stream (exit 3 on divergence).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import List, Optional

from repro.bench.workloads import build_store, make_store
from repro.core.memory import humanize_bytes
from repro.datasets.presets import load_dataset
from repro.datasets.statistics import format_table3, published_table3_rows
from repro.errors import ReproError
from repro.storage.checkpoint import load_store, save_store

__all__ = ["main"]


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_prometheus(registry) -> None:
    """Print ``registry``'s text exposition, linted first: never emit an
    invalid one."""
    from repro.obs.export import lint_prometheus, to_prometheus_text

    text = to_prometheus_text(registry)
    lint_prometheus(text)
    print(text, end="")


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.dataset == "all":
        print("Published (paper Table III):")
        print(format_table3(published_table3_rows()))
        return 0
    data = load_dataset(args.dataset, scale=args.scale)
    print(format_table3(data.stats_rows()))
    print(f"\nbi-directed total: {data.num_edges:,} edge inserts")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, scale=args.scale)
    store = make_store(args.system, capacity=args.capacity, alpha=args.alpha)
    mode = "per-op" if args.per_op else "bulk"
    scale = "default" if args.scale is None else f"1/{args.scale:g}"
    print(
        f"building {args.dataset} (scale {scale}, "
        f"{data.num_edges:,} edge inserts) into {args.system} "
        f"[{mode} ingestion]..."
    )
    result = build_store(
        store, data, batch_size=args.batch_size, use_bulk=not args.per_op
    )
    print(
        f"  built in {result.seconds:.2f}s "
        f"({result.ops_per_second:,.0f} edges/s)"
    )
    print(f"  edges: {store.num_edges:,}, sources: {store.num_sources:,}")
    print(f"  modeled memory: {humanize_bytes(store.nbytes())}")
    if args.output:
        if args.system not in ("PlatoD2GL", "PlatoD2GL (w/o CP)"):
            print("snapshots are supported for PlatoD2GL stores only",
                  file=sys.stderr)
            return 2
        written = save_store(store, args.output)
        print(f"  snapshot: {args.output} ({humanize_bytes(written)})")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    store = load_store(args.snapshot)
    print(f"snapshot: {args.snapshot}")
    print(f"  config: capacity={store.config.capacity} "
          f"alpha={store.config.alpha} compress={store.config.compress}")
    print(f"  edges: {store.num_edges:,}")
    print(f"  sources: {store.num_sources:,}")
    print(f"  relations: {store.etypes()}")
    print(f"  modeled memory: {humanize_bytes(store.nbytes())}")
    degrees = sorted(
        (store.degree(s, e) for e in store.etypes() for s in store.sources(e)),
        reverse=True,
    )
    if degrees:
        print(f"  max degree: {degrees[0]:,}; "
              f"median: {degrees[len(degrees) // 2]:,}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    store = load_store(args.snapshot)
    rng = random.Random(args.seed)
    src = args.vertex
    if src is None:
        pool = list(store.sources(args.etype))
        if not pool:
            print("snapshot has no sources for that relation", file=sys.stderr)
            return 2
        src = pool[rng.randrange(len(pool))]
    start = time.perf_counter()
    draws = store.sample_neighbors(src, args.k, rng, args.etype)
    elapsed = time.perf_counter() - start
    print(f"{args.k} weighted draws from vertex {src} "
          f"(degree {store.degree(src, args.etype)}) in {elapsed * 1e3:.2f}ms:")
    print(" ", draws)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    store = load_store(args.snapshot)
    store.check_invariants()
    print(f"OK: {store.num_edges:,} edges, every samtree invariant holds")
    return 0


def _churned_cluster(args: argparse.Namespace, trickle: int, **kwargs):
    """A seeded ``--shards`` cluster (``kwargs`` go to
    :class:`~repro.distributed.cluster.LocalCluster`) after a columnar
    bulk load of ``--edges`` random edges over ``--vertices`` and
    ``trickle`` per-op insert + delete pairs (both write shapes, so
    splits *and* merges fire); returns it with the workload's RNG."""
    from repro.distributed.cluster import LocalCluster

    rng = random.Random(args.seed)
    cluster = LocalCluster(num_servers=args.shards, **kwargs)
    client = cluster.client
    n = args.vertices
    srcs = [rng.randrange(n) for _ in range(args.edges)]
    dsts = [rng.randrange(n) for _ in range(args.edges)]
    client.bulk_load(srcs, dsts, 1.0)
    for _ in range(trickle):
        client.add_edge(rng.randrange(n), rng.randrange(n), rng.random())
        client.remove_edge(rng.randrange(n), rng.randrange(n))
    return cluster, rng


def _cmd_obs(args: argparse.Namespace) -> int:
    """Seeded churn+sample workload on a LocalCluster, then telemetry."""
    from repro.distributed.faults import FaultPolicy
    from repro.distributed.retry import RetryPolicy
    from repro.distributed.rpc import NetworkModel
    from repro.obs.export import to_json
    from repro.obs.report import render_report
    from repro.obs.trace import Tracer

    import numpy as np

    from repro.datasets.stream import RequestStream

    network = NetworkModel()
    tracer = Tracer(clock=network.now)
    fault_policy = None
    if args.fault_rate > 0:
        fault_policy = FaultPolicy(transient_error_rate=args.fault_rate)
    cluster, rng = _churned_cluster(
        args,
        args.edges // 10,
        network=network,
        replication_factor=args.replicas,
        durable=args.replicas > 1 or fault_policy is not None,
        fault_policy=fault_policy,
        fault_seed=args.seed,
        retry=RetryPolicy(max_attempts=6) if fault_policy else None,
        tracer=tracer,
    )
    n = args.vertices
    # Batched sampling rounds: uniform frontiers by default, a seeded
    # power-law trace with ``--skew`` (its repeated sources show up as
    # ``repro_cache_coalesced_sources``).
    sample_rng = np.random.default_rng(args.seed)
    requests = (
        RequestStream(n, exponent=args.skew, seed=args.seed)
        if args.skew > 0
        else None
    )
    for _ in range(args.rounds):
        if requests is not None:
            frontier = requests.batch(args.batch)
        else:
            frontier = [rng.randrange(n) for _ in range(args.batch)]
        cluster.client.sample_neighbors_many(frontier, args.k, sample_rng)
    if args.format == "prometheus":
        _print_prometheus(cluster.registry)
    elif args.format == "json":
        _print_json(to_json(cluster.registry, tracer, top_slow=args.top))
    elif args.format == "chrome":
        # chrome://tracing / ui.perfetto.dev flamegraph JSON.
        print(json.dumps(tracer.to_chrome_trace(), sort_keys=True))
    else:
        print(render_report(cluster, tracer=tracer, top_k=args.top))
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Structural-health report over a snapshot or a seeded cluster."""
    from repro.obs.doctor import (
        check_thresholds,
        diagnose,
        parse_fail_on,
    )

    checks = parse_fail_on(args.fail_on) if args.fail_on else []

    if args.snapshot:
        target = load_store(args.snapshot)
    else:
        # The seeded churn workload, then batched sampling rounds to
        # populate the read images.  Mean degree is edges/vertices — the
        # default 300 vertices x 30k edges at capacity 64 yields
        # multi-level trees whose non-root leaves sit near the bulk fill
        # fraction.
        from repro.core.samtree import SamtreeConfig

        target, rng = _churned_cluster(
            args,
            args.edges // 20,
            config=SamtreeConfig(capacity=args.capacity),
            durable=True,
        )
        for _ in range(5):
            frontier = [rng.randrange(args.vertices) for _ in range(64)]
            target.client.sample_neighbors_many(frontier, 10, rng)

    report = diagnose(target)
    if not args.snapshot:
        target.close()
    if args.format == "json":
        print(report.to_json())
    elif args.format == "prometheus":
        _print_prometheus(report.to_registry())
    else:
        print(report.render())
    violations = check_thresholds(report, checks)
    if violations:
        for violation in violations:
            print(f"FAIL {violation}", file=sys.stderr)
        return 3
    return 0


def _scenario_rig(args: argparse.Namespace, **rig_kwargs):
    """Rig, scenario and incident manager of ``serve-sim``, ``watch``
    and ``alerts``.

    Goes through :func:`repro.obs.replay.make_spec`, so every scenario
    run is described by a replayable spec — the flight recorder is
    always attached, and on a monitored rig an :class:`IncidentManager`
    freezes a bundle on every firing alert (written to
    ``--incidents-dir`` when given).
    """
    from repro.obs.incident import IncidentManager
    from repro.obs.replay import (
        build_rig_from_spec,
        make_spec,
        scenario_from_spec,
    )

    spec = make_spec(
        args.scenario,
        seed=args.seed,
        rig_kwargs={
            "shedding": not args.no_shedding,
            "num_shards": args.shards,
            "num_sources": args.vertices,
            **rig_kwargs,
        },
    )
    rig = build_rig_from_spec(spec)
    incidents = IncidentManager(
        rig.cluster, out_dir=getattr(args, "incidents_dir", None)
    )
    if rig.monitor is not None:
        incidents.watch(rig.monitor.alerts)
    incidents.mark_start(spec)
    scenario = scenario_from_spec(spec, rig.num_sources)
    return rig, scenario, incidents


def _print_timeline(manager, t0: float, labels: bool = False) -> None:
    """One line per alert transition (``watch`` and ``alerts``)."""
    if not manager.events:
        print("  (no transitions)")
    for e in manager.events:
        tail = ""
        if labels:
            pairs = ",".join(f"{k}={v}" for k, v in sorted(e.labels.items()))
            tail = f"  [{pairs}]"
        print(
            f"  t={e.t - t0:7.3f}s  {e.rule:<28} "
            f"{e.from_state} -> {e.to_state}  (value {e.value:.2f}){tail}"
        )


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    """Run one chaos scenario against the serving tier, print the SLO."""
    from repro.serving.scenarios import ScenarioRunner

    rig, scenario, _ = _scenario_rig(args)
    report = ScenarioRunner(rig, scenario).run(target_availability=args.target)
    if args.format == "json":
        _print_json(report.to_dict())
    else:
        print(report.render())
    return 0 if report.meets_target else 3


def _cmd_watch(args: argparse.Namespace) -> int:
    """Monitored scenario run with a live per-scrape terminal view."""
    from repro.obs.critical import analyze_critical_paths
    from repro.serving.scenarios import ScenarioRunner

    rig, scenario, incidents = _scenario_rig(
        args, trace=True, monitor_interval=args.interval
    )
    network = rig.cluster.network
    t0 = network.now()
    window = args.window
    samples = []

    def on_scrape(monitor, now) -> None:
        store = monitor.store
        rps = store.rate("repro_serving_submitted", window, at=now)
        fresh = store.rate("repro_serving_answered_fresh", window, at=now)
        shed = sum(
            store.rate(f"repro_serving_shed_{cause}", window, at=now)
            for cause in ("queue_full", "deadline_hopeless", "breaker_open")
        )
        p99 = store.quantile_over_time(
            0.99, "repro_serving_request_seconds", window, at=now
        )
        states = {
            name: alert.state
            for name, alert in monitor.alerts.alerts.items()
        }
        active = [f"{n}={s}" for n, s in sorted(states.items())
                  if s != "inactive"]
        samples.append(
            {
                "t": now - t0,
                "rps": rps,
                "fresh_per_s": fresh,
                "shed_per_s": shed,
                "p99_seconds": p99,
                "alerts": states,
            }
        )
        if args.format == "human":
            print(
                f"[{now - t0:7.3f}s] rps {rps:7.0f} | "
                f"fresh/s {fresh:7.0f} | shed/s {shed:6.0f} | "
                f"p99 {p99 * 1e3:7.3f}ms | "
                f"alerts: {' '.join(active) if active else '-'}"
            )

    runner = ScenarioRunner(rig, scenario, on_scrape=on_scrape)
    report = runner.run(target_availability=args.target)
    manager = rig.monitor.alerts
    critical = analyze_critical_paths(
        rig.tracer.traces(), root_name="serve.batch"
    )
    if args.format == "json":
        _print_json(
            {
                "scenario": scenario.name,
                "slo": report.to_dict(),
                "samples": samples,
                "alerts": manager.to_dict(),
                "critical_path": critical.to_dict(),
                "incidents": [dict(b["meta"]) for b in incidents.incidents],
                "incidents_suppressed": incidents.suppressed,
            }
        )
    else:
        print()
        print(report.render())
        print()
        print("alert timeline:")
        _print_timeline(manager, t0)
        if incidents.incidents:
            print()
            print("incident bundles:")
            for b in incidents.incidents:
                m = b["meta"]
                where = (
                    f" -> {args.incidents_dir}/{m['id']}"
                    if args.incidents_dir
                    else ""
                )
                print(
                    f"  t={m['t_rel']:7.3f}s  {m['id']}{where}"
                )
        print()
        print(critical.render())
    return 0 if report.meets_target else 3


def _cmd_alerts(args: argparse.Namespace) -> int:
    """Monitored scenario run; print the alert timeline (or exposition)."""
    from repro.serving.scenarios import ScenarioRunner

    rig, scenario, incidents = _scenario_rig(
        args, trace=False, monitor_interval=args.interval
    )
    t0 = rig.cluster.network.now()
    runner = ScenarioRunner(rig, scenario)
    runner.run(target_availability=args.target)
    manager = rig.monitor.alerts
    if args.format == "prometheus":
        # Post-run exposition: the workload series *plus* the monitor's
        # own repro_monitor_* / repro_alerts_* health series.
        _print_prometheus(rig.cluster.registry)
    elif args.format == "json":
        payload = manager.to_dict()
        payload["scenario"] = scenario.name
        payload["t0"] = t0
        payload["scrapes"] = rig.monitor.scrapes
        payload["incidents"] = [dict(b["meta"]) for b in incidents.incidents]
        _print_json(payload)
    else:
        print(
            f"alert timeline — scenario {scenario.name!r} "
            f"({rig.monitor.scrapes} scrapes, "
            f"{manager.evaluations} evaluations)"
        )
        _print_timeline(manager, t0, labels=True)
        for alert in manager.alerts.values():
            print(f"  final: {alert.rule.name} = {alert.state}")
    if args.fail_on_firing and manager.firing():
        for alert in manager.firing():
            print(f"FAIL still firing: {alert.rule.name}", file=sys.stderr)
        return 3
    return 0


def _cmd_incidents(args: argparse.Namespace) -> int:
    """List, show, or export captured incident bundle directories."""
    import os

    from repro.obs.incident import list_bundles, load_bundle

    if args.action == "list":
        metas = list_bundles(args.dir)
        if args.format == "json":
            _print_json({"dir": args.dir, "incidents": metas})
            return 0
        if not metas:
            print(f"no incident bundles under {args.dir!r}")
            return 0
        print(f"{len(metas)} incident bundle(s) under {args.dir!r}:")
        for m in metas:
            what = m.get("rule") or m.get("trigger") or "?"
            t_rel = m.get("t_rel")
            when = f"t_rel={t_rel:.3f}s" if t_rel is not None else "t_rel=?"
            print(f"  {m['id']:<44} {what:<28} {when}")
        return 0

    if not args.id:
        print("--id is required for show/export", file=sys.stderr)
        return 2
    path = os.path.join(args.dir, args.id)
    bundle = load_bundle(path)

    if args.action == "export":
        text = json.dumps(bundle, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"exported {args.id} -> {args.out}")
        else:
            print(text)
        return 0

    # show
    if args.format == "json":
        _print_json(bundle)
        return 0
    meta = bundle["meta"]
    print(f"incident {meta['id']}")
    print(f"  trigger: {meta.get('trigger')}"
          + (f" ({meta.get('rule')})" if meta.get("rule") else ""))
    t_rel = meta.get("t_rel")
    print(f"  captured at t={meta.get('t')} "
          f"(t_rel={t_rel:.6f}s)" if t_rel is not None else
          f"  captured at t={meta.get('t')}")
    if meta.get("value") is not None:
        print(f"  value {meta['value']:.4f} vs threshold "
              f"{meta.get('threshold')}")
    spec = bundle.get("spec")
    if spec:
        print(f"  spec: scenario={spec.get('scenario')!r} "
              f"seed={spec.get('seed')} "
              f"scenario_seed={spec.get('scenario_seed')}")
    events = bundle.get("events") or {}
    print(f"  events: {events.get('events_total', 0)} recorded, "
          f"{events.get('dropped_total', 0)} dropped")
    for name, cat in sorted((events.get("categories") or {}).items()):
        if cat.get("total"):
            print(f"    {name:<12} {cat['total']:6d} total "
                  f"({len(cat.get('events', []))} retained)")
    diff = (bundle.get("metrics") or {}).get("window_diff") or {}
    hot = {k: v for k, v in diff.items() if v}
    if hot:
        window = (bundle.get("metrics") or {}).get("window_seconds", "?")
        print(f"  window diff ({window}s):")
        for key in sorted(hot, key=lambda k: -abs(hot[k]))[:8]:
            print(f"    {key:<44} {hot[key]:+.1f}")
    print(f"  traces: {len(bundle.get('traces') or [])} slow trees")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay an incident bundle; exit 3 when it diverges."""
    from repro.obs.replay import replay_bundle

    result = replay_bundle(args.bundle)
    if args.format == "json":
        _print_json(result.to_dict())
    else:
        print(result.render())
    return 0 if result.converged else 3


def _scenario_flags(scenario: str) -> argparse.ArgumentParser:
    """The parent parser of ``serve-sim``, ``watch`` and ``alerts``:
    the flags they share, with ``scenario`` as the default schedule."""
    from repro.serving.scenarios import SCENARIOS

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--scenario",
        default=scenario,
        choices=list(SCENARIOS),
        help="seeded traffic/fault schedule to replay",
    )
    flags.add_argument(
        "--no-shedding",
        action="store_true",
        help="disable admission control (the control arm: under a flash "
        "crowd the tier collapses instead of degrading gracefully)",
    )
    flags.add_argument(
        "--target",
        type=float,
        default=0.99,
        help="availability target for the error-budget burn (exit 3 "
        "when violated)",
    )
    flags.add_argument("--shards", type=int, default=4)
    flags.add_argument(
        "--vertices", type=int, default=400, help="vertex universe size"
    )
    flags.add_argument("--seed", type=int, default=0)
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PlatoD2GL reproduction command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset statistics (Table III)")
    p_stats.add_argument(
        "dataset", choices=["OGBN", "Reddit", "WeChat", "all"]
    )
    p_stats.add_argument("--scale", type=float, default=None)
    p_stats.set_defaults(func=_cmd_stats)

    p_build = sub.add_parser("build", help="build a store from a dataset")
    p_build.add_argument("dataset", choices=["OGBN", "Reddit", "WeChat"])
    p_build.add_argument(
        "--system",
        default="PlatoD2GL",
        choices=["PlatoD2GL", "PlatoD2GL (w/o CP)", "PlatoGL", "AliGraph"],
    )
    p_build.add_argument("--scale", type=float, default=None)
    p_build.add_argument("--capacity", type=int, default=256)
    p_build.add_argument("--alpha", type=int, default=0)
    p_build.add_argument("--batch-size", type=int, default=4096)
    p_build.add_argument(
        "--per-op",
        action="store_true",
        help="ingest one edge at a time instead of the default columnar "
        "bulk path (same final store; used for comparisons)",
    )
    p_build.add_argument("--output", help="snapshot path to write")
    p_build.set_defaults(func=_cmd_build)

    p_inspect = sub.add_parser("inspect", help="summarise a snapshot")
    p_inspect.add_argument("snapshot")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_sample = sub.add_parser("sample", help="draw neighbors from a snapshot")
    p_sample.add_argument("snapshot")
    p_sample.add_argument("--vertex", type=int, default=None)
    p_sample.add_argument("--k", type=int, default=10)
    p_sample.add_argument("--etype", type=int, default=0)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=_cmd_sample)

    p_selftest = sub.add_parser(
        "selftest", help="validate a snapshot's invariants"
    )
    p_selftest.add_argument("snapshot")
    p_selftest.set_defaults(func=_cmd_selftest)

    p_obs = sub.add_parser(
        "obs",
        help="run a churn+sample workload on an in-process cluster and "
        "print the observability readout",
    )
    p_obs.add_argument(
        "--format",
        default="human",
        choices=["human", "prometheus", "json", "chrome"],
        help="human report, Prometheus text exposition, JSON dump, or "
        "chrome://tracing trace JSON",
    )
    p_obs.add_argument("--shards", type=int, default=4)
    p_obs.add_argument(
        "--replicas", type=int, default=1, help="replicas per shard"
    )
    p_obs.add_argument("--vertices", type=int, default=500)
    p_obs.add_argument("--edges", type=int, default=2000)
    p_obs.add_argument(
        "--rounds", type=int, default=20, help="batched sampling rounds"
    )
    p_obs.add_argument("--batch", type=int, default=64)
    p_obs.add_argument("--k", type=int, default=10, help="sample fanout")
    p_obs.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="Zipf exponent for the sampling trace (0 = uniform)",
    )
    p_obs.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="transient fault probability per request (adds a retrying "
        "client when > 0)",
    )
    p_obs.add_argument(
        "--top", type=int, default=5, help="slow traces to show"
    )
    p_obs.add_argument("--seed", type=int, default=0)
    p_obs.set_defaults(func=_cmd_obs)

    p_doctor = sub.add_parser(
        "doctor",
        help="samtree structural-health report: depth/fill histograms, "
        "alpha-split pivot quality, per-component memory breakdown",
    )
    p_doctor.add_argument(
        "--snapshot",
        default=None,
        help="diagnose a saved store snapshot instead of running the "
        "seeded in-process workload",
    )
    p_doctor.add_argument(
        "--format",
        default="human",
        choices=["human", "json", "prometheus"],
        help="human report, JSON dump, or Prometheus text exposition",
    )
    p_doctor.add_argument(
        "--fail-on",
        default=None,
        metavar="SPEC",
        help="comma-separated health bounds, e.g. "
        "'fill=0.4,depth=4,imbalance=0.5,bytes=64MB'; exit 3 on "
        "violation (fill is a lower bound, the rest upper bounds)",
    )
    p_doctor.add_argument("--shards", type=int, default=2)
    p_doctor.add_argument("--vertices", type=int, default=300)
    p_doctor.add_argument("--edges", type=int, default=30000)
    p_doctor.add_argument(
        "--capacity", type=int, default=64, help="samtree node capacity"
    )
    p_doctor.add_argument("--seed", type=int, default=0)
    p_doctor.set_defaults(func=_cmd_doctor)

    p_serve = sub.add_parser(
        "serve-sim",
        parents=[_scenario_flags("calm")],
        help="run a seeded chaos scenario against the deadline-aware "
        "serving tier and print its SLO report",
    )
    p_serve.add_argument(
        "--format",
        default="human",
        choices=["human", "json"],
        help="human SLO block or JSON dump",
    )
    p_serve.set_defaults(func=_cmd_serve_sim)

    p_watch = sub.add_parser(
        "watch",
        parents=[_scenario_flags("flash_crowd")],
        help="run a monitored chaos scenario with a live per-scrape "
        "terminal view, then the SLO report, alert timeline, and "
        "critical-path layer table",
    )
    p_watch.add_argument(
        "--interval",
        type=float,
        default=0.05,
        help="scrape interval in simulated seconds",
    )
    p_watch.add_argument(
        "--window",
        type=float,
        default=0.25,
        help="query window of the live view's rate/p99 columns",
    )
    p_watch.add_argument(
        "--format", default="human", choices=["human", "json"]
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_alerts = sub.add_parser(
        "alerts",
        parents=[_scenario_flags("flash_crowd")],
        help="run a monitored chaos scenario and print its alert "
        "timeline (or the post-run Prometheus exposition)",
    )
    p_alerts.add_argument(
        "--interval",
        type=float,
        default=0.02,
        help="scrape interval in simulated seconds",
    )
    p_alerts.add_argument(
        "--format",
        default="human",
        choices=["human", "json", "prometheus"],
    )
    p_alerts.add_argument(
        "--fail-on-firing",
        action="store_true",
        help="exit 3 when any alert is still firing at scenario end",
    )
    p_alerts.set_defaults(func=_cmd_alerts)
    for monitored in (p_watch, p_alerts):
        monitored.add_argument(
            "--incidents-dir",
            default=None,
            metavar="DIR",
            help="write an incident bundle directory under DIR for every "
            "firing alert (consumed by 'repro incidents' / 'repro replay')",
        )

    p_incidents = sub.add_parser(
        "incidents",
        help="list, show, or export incident bundles captured by "
        "'repro watch/alerts --incidents-dir'",
    )
    p_incidents.add_argument(
        "action",
        choices=["list", "show", "export"],
        help="list bundle metadata, show one bundle, or export it as a "
        "single JSON document",
    )
    p_incidents.add_argument(
        "--dir",
        default="incidents",
        help="bundle directory root (default: ./incidents)",
    )
    p_incidents.add_argument(
        "--id", default=None, help="bundle id for show/export"
    )
    p_incidents.add_argument(
        "--out", default=None, help="export target file (default stdout)"
    )
    p_incidents.add_argument(
        "--format", default="human", choices=["human", "json"]
    )
    p_incidents.set_defaults(func=_cmd_incidents)

    p_replay = sub.add_parser(
        "replay",
        help="deterministically replay an incident bundle and verify "
        "the same alert fires at the same simulated instant with a "
        "matching event stream (exit 3 on divergence)",
    )
    p_replay.add_argument("bundle", help="bundle directory path")
    p_replay.add_argument(
        "--format", default="human", choices=["human", "json"]
    )
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:  # bad input: refuse it, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
