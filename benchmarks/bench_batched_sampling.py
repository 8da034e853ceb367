"""Scalar vs batched frontier sampling: the read-path engine's win.

Measures the per-vertex scalar path (`sample_neighbors` in a Python
loop — one root→leaf descent per draw) against the batched path
(`sample_neighbors_many` — one vectorized inverse-transform draw over
the read image's rows for the whole frontier) on a GNN-shaped
frontier: 1k vertices drawn with hub-heavy repetition from a skewed
synthetic graph, fan-outs {5, 10, 25}.

Three regimes per fan-out:

* ``scalar``        — the pre-PR read path (also the cache-off path);
* ``batched_cold``  — first batched call on an empty image (pays builds);
* ``batched_warm``  — steady-state frontier sampling (the hot path the
  acceptance criterion targets: >= 5x over scalar at fan-out 10).

A fourth section measures the *observability tax* (DESIGN.md §11): the
same warm batched loop run plain versus through
:class:`~repro.core.metrics.InstrumentedStore` with every holder
registered into a :class:`~repro.obs.registry.MetricsRegistry`.
``--check-overhead PCT`` turns the measurement into a gate (CI uses 5):
exit non-zero if instrumentation costs more than PCT percent.  The JSON
payload embeds the registry snapshot under ``"obs"`` so the checked-in
``BENCH_*.json`` records carry their telemetry alongside the timings.

Emits JSON (``--out``, default stdout); ``--smoke`` shrinks everything
for CI.  The checked-in record is ``BENCH_batched_sampling.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List

from repro.core.metrics import InstrumentedStore
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.obs import MetricsRegistry, register_store

FANOUTS = (5, 10, 25)
SEED = 0xD2


def build_graph(
    num_sources: int, mean_degree: int, seed: int = SEED
) -> DynamicGraphStore:
    """A skewed synthetic graph: degrees and weights both long-tailed."""
    rng = random.Random(seed)
    store = DynamicGraphStore(SamtreeConfig(capacity=64, alpha=0))
    for src in range(num_sources):
        # Pareto-ish degree: a few hubs, many small adjacencies.
        degree = max(2, min(int(rng.paretovariate(1.3) * mean_degree / 3),
                            mean_degree * 20))
        for _ in range(degree):
            dst = num_sources + rng.randrange(num_sources * 10)
            store.add_edge(src, dst, rng.paretovariate(1.5))
    return store


def make_frontier(
    num_sources: int, size: int, seed: int = SEED + 1
) -> List[int]:
    """Hub-heavy frontier: repeated hot vertices, like a GNN mini-batch."""
    rng = random.Random(seed)
    hot = max(1, num_sources // 20)
    frontier = []
    for _ in range(size):
        if rng.random() < 0.5:  # half the reads hit the hot 5%
            frontier.append(rng.randrange(hot))
        else:
            frontier.append(rng.randrange(num_sources))
    return frontier


def _time(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    num_sources: int,
    frontier_size: int,
    mean_degree: int,
    repeats: int,
) -> Dict:
    store = build_graph(num_sources, mean_degree)
    frontier = make_frontier(num_sources, frontier_size)
    results = {
        "config": {
            "num_sources": num_sources,
            "num_edges": store.num_edges,
            "frontier_size": frontier_size,
            "distinct_sources_in_frontier": len(set(frontier)),
            "mean_degree": mean_degree,
            "repeats": repeats,
            "fanouts": list(FANOUTS),
        },
        "fanouts": {},
    }

    for fanout in FANOUTS:
        # -- scalar: one descent per draw, one lookup per occurrence ----
        def scalar():
            rng = random.Random(SEED)
            for src in frontier:
                store.sample_neighbors(src, fanout, rng)

        t_scalar = _time(scalar, repeats)

        # -- batched, empty image (flattens every row) --------------------
        store.snapshot_cache.clear()
        t_cold = _time(
            lambda: store.sample_neighbors_many(frontier, fanout, rng=SEED), 1
        )

        # -- batched, warm image (steady-state training) ------------------
        store.snapshot_cache.stats.reset()
        t_warm = _time(
            lambda: store.sample_neighbors_many(frontier, fanout, rng=SEED),
            repeats,
        )
        stats = store.snapshot_cache.stats.to_dict()

        results["fanouts"][str(fanout)] = {
            "scalar_s": t_scalar,
            "batched_cold_s": t_cold,
            "batched_warm_s": t_warm,
            "scalar_vertices_per_s": frontier_size / t_scalar,
            "batched_warm_vertices_per_s": frontier_size / t_warm,
            "speedup_warm_vs_scalar": t_scalar / t_warm,
            "speedup_cold_vs_scalar": t_scalar / t_cold,
            "cache": stats,
        }

    results["obs"] = measure_obs_overhead(store, frontier, repeats)
    return results


def measure_obs_overhead(
    store: DynamicGraphStore,
    frontier: List[int],
    repeats: int,
    fanout: int = 10,
) -> Dict:
    """The observability tax on warm batched sampling (DESIGN.md §11).

    Runs the identical warm ``sample_neighbors_many`` loop twice —
    metrics disabled (bare store) and metrics enabled
    (:class:`InstrumentedStore` wrapper with the store's holders
    registered into a :class:`MetricsRegistry`) — and reports the
    relative cost.  Best-of-N timing on both sides keeps scheduler
    noise from dominating a measurement that is expected to sit near
    zero: the registry reads its views lazily (pull-based), so the only
    hot-path work is one ``perf_counter`` pair and one histogram record
    per *batch* call.

    Returns the timings, the overhead percentage, and the registry
    snapshot (which ``BENCH_*.json`` payloads embed verbatim).
    """
    # Warm the cache once so neither side pays snapshot builds.
    store.sample_neighbors_many(frontier, fanout, rng=SEED)

    registry = MetricsRegistry()
    instrumented = InstrumentedStore(store)
    register_store(registry, store)
    instrumented.metrics.register_into(registry)

    # Noise control, because the true delta is near zero while shared
    # CI runners jitter by ~10%: (a) amortise — each timed region runs
    # the batched call ``inner`` times so it is milliseconds long, not
    # microseconds; (b) interleave plain/obs reps so CPU frequency
    # drift hits both sides equally; (c) best-of-N within a pass; and
    # (d) take the *minimum* overhead across independent passes — a
    # genuine regression lifts every pass, a scheduler spike only one.
    inner = 10
    reps = max(repeats, 10)
    passes = 3

    def one_pass() -> Dict:
        t_plain = t_obs = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(inner):
                store.sample_neighbors_many(frontier, fanout, rng=SEED)
            t_plain = min(t_plain, time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(inner):
                instrumented.sample_neighbors_many(
                    frontier, fanout, rng=SEED
                )
            t_obs = min(t_obs, time.perf_counter() - start)
        t_plain /= inner
        t_obs /= inner
        return {
            "plain_warm_s": t_plain,
            "instrumented_warm_s": t_obs,
            "overhead_pct": (t_obs - t_plain) / t_plain * 100.0,
        }

    runs = [one_pass() for _ in range(passes)]
    best = min(runs, key=lambda r: r["overhead_pct"])
    return {
        "fanout": fanout,
        "repeats": reps,
        "inner_calls_per_rep": inner,
        "passes": runs,
        "plain_warm_s": best["plain_warm_s"],
        "instrumented_warm_s": best["instrumented_warm_s"],
        "overhead_pct": best["overhead_pct"],
        "registry_snapshot": registry.snapshot().to_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: checks the machinery, not the numbers",
    )
    parser.add_argument(
        "--out", default=None, help="write JSON here (default: stdout)"
    )
    parser.add_argument(
        "--check-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="fail if the instrumentation overhead on warm batched "
        "sampling exceeds PCT percent (CI uses 5)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        results = run_benchmark(
            num_sources=200, frontier_size=100, mean_degree=20, repeats=1
        )
    else:
        results = run_benchmark(
            num_sources=4000, frontier_size=1000, mean_degree=50, repeats=3
        )
    results["mode"] = "smoke" if args.smoke else "full"

    payload = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    warm10 = results["fanouts"]["10"]["speedup_warm_vs_scalar"]
    hit10 = results["fanouts"]["10"]["cache"]["hit_rate"]
    overhead = results["obs"]["overhead_pct"]
    print(
        f"[bench_batched_sampling] fanout=10: warm speedup "
        f"{warm10:.1f}x, cache hit rate {hit10:.2%}, "
        f"obs overhead {overhead:+.2f}%",
        file=sys.stderr,
    )
    if not args.smoke and warm10 < 5.0:
        print(
            "[bench_batched_sampling] FAIL: warm speedup below the 5x "
            "acceptance bar",
            file=sys.stderr,
        )
        return 1
    if args.check_overhead is not None and overhead > args.check_overhead:
        print(
            f"[bench_batched_sampling] FAIL: instrumentation overhead "
            f"{overhead:.2f}% exceeds the {args.check_overhead:g}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
