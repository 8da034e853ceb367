"""Monitoring tax: scrape + alert-evaluation overhead and query cost.

PR 9 adds a continuous-monitoring loop (DESIGN.md §16): a
:class:`~repro.obs.monitor.TimeSeriesStore` scrapes the metrics
registry on the cluster clock and an
:class:`~repro.obs.alerts.AlertManager` evaluates burn-rate/threshold
rules after every scrape.  That loop rides the same single-threaded
driver as the serving hot path, so its cost is a direct tax on request
throughput.  This bench measures it two ways:

* **overhead** — the flash-crowd serving scenario run end to end,
  plain versus with the default monitor attached (50 ms scrape
  interval, the serving burn-rate/threshold rule set, ~3.6k requests
  and ~60 scrapes per run).  Both sides run the identical seeded
  simulation — the monitor never advances the simulated clock — so the
  wall-clock delta *is* the monitoring tax.  Noise discipline:
  interleaved plain/monitored reps, best-of-N per pass, and the *minimum* overhead across independent
  passes (a genuine regression lifts every pass, a scheduler spike
  only one).  ``--check-overhead PCT`` gates it (CI uses 5).
* **query cost** — steady-state throughput of ``scrape()``, ``rate()``
  and ``quantile_over_time()`` against a synthetic registry-shaped
  store whose rings are already populated.  These surface in the
  payload under ``"metrics"`` as higher-is-better figures for the
  ``bench_history`` gate (``--bench monitoring``).

Emits JSON (``--out``, default stdout); ``--smoke`` shrinks everything
for CI.  The checked-in record is ``BENCH_monitoring.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict

from repro.obs import MetricsRegistry, TimeSeriesStore
from repro.serving.scenarios import (
    SCENARIOS,
    ScenarioRunner,
    build_serving_rig,
)

SEED = 0xD9

#: Simulated seconds between workload ticks in the query-cost section
#: (the monitor's default scrape interval).
TICK_SECONDS = 0.05


# ---------------------------------------------------------------------------
# overhead: the serving scenario, plain vs monitored
# ---------------------------------------------------------------------------
def measure_overhead(
    scenario: str = "flash_crowd",
    num_sources: int = 400,
    num_shards: int = 4,
    interval: float = 0.05,
    reps: int = 3,
    passes: int = 3,
) -> Dict:
    """Wall-clock tax of the default monitor on a serving scenario.

    Each rep builds two identically-seeded rigs and runs the scenario
    through both — one bare, one with ``monitor_interval`` set (which
    attaches the serving keep-list store plus the default burn-rate /
    threshold rules).  Scrapes happen *at* simulated instants without
    advancing the clock, so the two simulations execute the same
    request stream and the wall delta is pure monitoring work: registry
    snapshots, ring appends, and rule evaluation.
    """

    def run_once(monitored: bool):
        rig = build_serving_rig(
            num_shards=num_shards,
            num_sources=num_sources,
            seed=SEED,
            monitor_interval=interval if monitored else None,
        )
        sc = SCENARIOS[scenario](rig.num_sources, seed=SEED + 7)
        runner = ScenarioRunner(rig, sc)
        start = time.perf_counter()
        report = runner.run()
        return time.perf_counter() - start, rig, report

    last_rig = None
    last_report = None

    def one_pass() -> Dict:
        nonlocal last_rig, last_report
        t_plain = t_mon = float("inf")
        for _ in range(reps):
            elapsed, _, plain_report = run_once(False)
            t_plain = min(t_plain, elapsed)
            elapsed, rig, report = run_once(True)
            t_mon = min(t_mon, elapsed)
            last_rig, last_report = rig, report
            if report.submitted != plain_report.submitted:
                raise AssertionError(
                    "monitored run diverged from plain run "
                    f"({report.submitted} vs {plain_report.submitted} "
                    "submitted) — the monitor must not perturb the "
                    "simulation"
                )
        return {
            "plain_s": t_plain,
            "monitored_s": t_mon,
            "overhead_pct": (t_mon - t_plain) / t_plain * 100.0,
        }

    runs = [one_pass() for _ in range(passes)]
    best = min(runs, key=lambda r: r["overhead_pct"])
    monitor = last_rig.monitor
    return {
        "scenario": scenario,
        "num_sources": num_sources,
        "num_shards": num_shards,
        "interval_s": interval,
        "repeats": reps,
        "submitted": last_report.submitted,
        "scrapes": monitor.scrapes,
        "num_series": monitor.store.num_series,
        "alert_transitions": len(monitor.alerts.timeline()),
        "passes": runs,
        "plain_s": best["plain_s"],
        "monitored_s": best["monitored_s"],
        "overhead_pct": best["overhead_pct"],
    }


# ---------------------------------------------------------------------------
# query cost: steady-state scrape / rate / quantile throughput
# ---------------------------------------------------------------------------
class Workload:
    """A registry-shaped mutation loop for the query-cost section.

    ``tick()`` touches every owned metric once — counter incs sized by
    a seeded RNG, gauge sets, a few histogram records — so every scrape
    sees fresh values across the full series width.
    """

    def __init__(
        self,
        num_counters: int,
        num_gauges: int,
        num_hists: int,
        seed: int = SEED,
    ) -> None:
        self.registry = MetricsRegistry()
        self.counters = [
            self.registry.counter("bench_ops_total", shard=str(i))
            for i in range(num_counters)
        ]
        self.gauges = [
            self.registry.gauge("bench_depth", queue=str(i))
            for i in range(num_gauges)
        ]
        self.hists = [
            self.registry.histogram("bench_latency_seconds", path=str(i))
            for i in range(num_hists)
        ]
        self.rng = random.Random(seed)

    def tick(self) -> None:
        rng = self.rng
        for c in self.counters:
            c.inc(rng.randrange(1, 8))
        for g in self.gauges:
            g.set(rng.randrange(64))
        for h in self.hists:
            h.record(rng.uniform(1e-4, 2e-2))


def measure_query_cost(
    num_counters: int,
    num_gauges: int,
    num_hists: int,
    prefill_scrapes: int,
    reps: int,
) -> Dict:
    """Throughput of the store's hot operations on populated rings."""
    work = Workload(num_counters, num_gauges, num_hists)
    now = [0.0]
    store = TimeSeriesStore(work.registry, clock=lambda: now[0])
    for _ in range(prefill_scrapes):
        work.tick()
        now[0] += TICK_SECONDS
        store.scrape(now[0])

    def best_of(fn, calls: int) -> float:
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best / calls

    # Scrape throughput: keep mutating + advancing so every scrape does
    # the full adjust-and-append work on all series.
    scrape_batch = 32

    def scrape_loop():
        for _ in range(scrape_batch):
            work.tick()
            now[0] += TICK_SECONDS
            store.scrape(now[0])

    scrape_s = best_of(scrape_loop, scrape_batch)

    counter_keys = [f'bench_ops_total{{shard="{i}"}}'
                    for i in range(num_counters)]
    hist_keys = [f'bench_latency_seconds{{path="{i}"}}'
                 for i in range(num_hists)]
    window = TICK_SECONDS * 16
    # Enough rounds that the timed region is a few ms even in smoke mode
    # (30 keys); sub-millisecond windows made the per-query figures flap
    # well past the 15% history-gate tolerance.
    query_rounds = 32

    def rate_loop():
        for _ in range(query_rounds):
            for key in counter_keys:
                store.rate(key, window)

    rate_s = best_of(rate_loop, query_rounds * len(counter_keys))

    def quantile_loop():
        for _ in range(query_rounds):
            for key in hist_keys:
                store.quantile_over_time(0.99, key, window)

    quantile_s = best_of(quantile_loop, query_rounds * len(hist_keys))

    return {
        "num_counters": num_counters,
        "num_gauges": num_gauges,
        "num_hists": num_hists,
        "prefill_scrapes": prefill_scrapes,
        "num_series": store.num_series,
        "num_points": store.num_points,
        "window_s": window,
        "scrape_s": scrape_s,
        "rate_query_s": rate_s,
        "quantile_query_s": quantile_s,
        "scrapes_per_s": 1.0 / scrape_s,
        "rate_queries_per_s": 1.0 / rate_s,
        "quantile_queries_per_s": 1.0 / quantile_s,
    }


def run_benchmark(smoke: bool) -> Dict:
    if smoke:
        # reps=1 proved too jittery for the 5% CI gate (single-run wall
        # clocks on shared runners swing several percent either way);
        # 2x3 keeps smoke under ~5s while the min-across-passes holds.
        overhead = measure_overhead(reps=2, passes=3)
        queries = measure_query_cost(
            num_counters=30,
            num_gauges=10,
            num_hists=10,
            prefill_scrapes=64,
            reps=5,
        )
    else:
        overhead = measure_overhead(reps=3, passes=3)
        queries = measure_query_cost(
            num_counters=120,
            num_gauges=40,
            num_hists=40,
            prefill_scrapes=512,
            reps=5,
        )
    return {
        "mode": "smoke" if smoke else "full",
        "overhead": overhead,
        "queries": queries,
        # The bench_history gate reads these (higher is better); the
        # overhead percentage is gated separately via --check-overhead
        # because "percent above zero" has no meaningful best-run
        # baseline.
        "metrics": {
            "scrapes_per_s": queries["scrapes_per_s"],
            "rate_queries_per_s": queries["rate_queries_per_s"],
            "quantile_queries_per_s": queries["quantile_queries_per_s"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer reps/passes and smaller query rings for CI",
    )
    parser.add_argument(
        "--out", default=None, help="write JSON here (default: stdout)"
    )
    parser.add_argument(
        "--check-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="fail if the monitoring overhead on the serving scenario "
        "exceeds PCT percent (CI uses 5)",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(smoke=args.smoke)

    payload = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    overhead = results["overhead"]["overhead_pct"]
    q = results["queries"]
    print(
        f"[bench_monitoring] {results['overhead']['scenario']}: "
        f"monitoring overhead {overhead:+.2f}% "
        f"({results['overhead']['scrapes']} scrapes, "
        f"{results['overhead']['num_series']} series); "
        f"{q['scrapes_per_s']:,.0f} scrapes/s, "
        f"{q['rate_queries_per_s']:,.0f} rate()/s, "
        f"{q['quantile_queries_per_s']:,.0f} quantile()/s",
        file=sys.stderr,
    )
    if args.check_overhead is not None and overhead > args.check_overhead:
        print(
            f"[bench_monitoring] FAIL: monitoring overhead "
            f"{overhead:.2f}% exceeds the {args.check_overhead:g}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
