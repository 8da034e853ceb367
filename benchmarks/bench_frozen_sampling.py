"""Frozen CSC kernels vs the warm batched path vs scalar descents.

Measures the FrozenShard read path (one flattened CSC image per shard,
whole-frontier numpy draws — `repro/core/frozen.py`) against the two
pre-existing regimes on the same GNN-shaped workload as
``bench_batched_sampling``: a hub-heavy frontier over a skewed synthetic
graph, fan-outs {5, 10, 25}.

Four regimes per fan-out:

* ``scalar``         — one root→leaf descent per draw (the PR-3 floor);
* ``batched_warm``   — the never-frozen tier: a warm read image
  (the checked-in record predates it and shows the per-source snapshot
  loop it replaced, ~320k vertices/s at fan-out 10);
* ``frozen_rows``    — the frozen kernel behind the store API
  (`sample_neighbors_many` dispatching to the shard and returning the
  kernel's matrix as one `SampleBlock`) — what drop-in callers see;
* ``frozen_matrix``  — the raw matrix kernel (`FrozenShard.sample_matrix`,
  one numpy pass for the whole frontier) — the figure the >= 10x
  acceptance criterion and the bench-history gate target.

A second section sweeps frontier size at fan-out 10 (does the frozen
advantage grow with batch size, as the per-batch fixed costs amortise?),
and a third records the one-time ``freeze()`` compile cost next to the
steady-state win so the break-even batch count is visible.

Emits JSON (``--out``, default stdout); ``--smoke`` shrinks everything
for CI.  The checked-in record is ``BENCH_frozen_sampling.json``,
appended to ``BENCH_HISTORY.jsonl`` via ``bench_history.py record``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from bench_batched_sampling import SEED, build_graph, make_frontier
from repro.core.snapshot import coerce_generator
from repro.gnn.samplers import sample_blocks

FANOUTS = (5, 10, 25)
FRONTIER_SWEEP = (100, 1000, 4000)


def _time(fn, repeats: int, inner: int = 1) -> float:
    """Best-of-N wall time of ``fn()`` (seconds).

    ``inner`` amortises sub-millisecond regions: each timed rep runs the
    call ``inner`` times and reports the mean, so scheduler jitter on a
    shared runner cannot swamp a ~200 µs kernel (the same trick the
    obs-overhead gate of ``bench_batched_sampling`` uses).
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def run_benchmark(
    num_sources: int,
    frontier_size: int,
    mean_degree: int,
    repeats: int,
) -> Dict:
    import random

    store = build_graph(num_sources, mean_degree)
    frontier = make_frontier(num_sources, frontier_size)
    frontier_arr = np.asarray(frontier, dtype=np.int64)

    # Compile once up front and keep the compile time: the break-even
    # analysis below reports how many batches the one-time cost buys.
    t_compile = _time(lambda: store.freeze(), 1)
    (shard,) = store.frozen_shards

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
        "compile": {
            "compile_s": t_compile,
            "rows": shard.num_rows,
            "edges": shard.num_edges,
            "edges_per_s": shard.num_edges / t_compile,
        },
        "fanouts": {},
    }

    for fanout in FANOUTS:
        # -- scalar: one descent per draw ------------------------------
        store.thaw()  # make sure the frozen path cannot shortcut
        def scalar():
            rng = random.Random(SEED)
            for src in frontier:
                store.sample_neighbors(src, fanout, rng)

        t_scalar = _time(scalar, repeats)

        # -- warm read image (the never-frozen tier) -------------------
        store.snapshot_cache.clear()
        store.sample_neighbors_many(frontier, fanout, rng=SEED)  # warm it
        t_warm = _time(
            lambda: store.sample_neighbors_many(frontier, fanout, rng=SEED),
            repeats,
        )

        # -- frozen kernel behind the store API (one SampleBlock) ------
        store.freeze()
        store.sample_neighbors_many(frontier, fanout, rng=SEED)  # warm it
        t_rows = _time(
            lambda: store.sample_neighbors_many(frontier, fanout, rng=SEED),
            repeats,
            inner=5,
        )

        # -- raw matrix kernel (the gated figure) ----------------------
        gen = coerce_generator(SEED)
        shard.sample_matrix(frontier_arr, fanout, gen)  # warm it
        t_matrix = _time(
            lambda: shard.sample_matrix(frontier_arr, fanout, gen),
            repeats,
            inner=20,
        )

        results["fanouts"][str(fanout)] = {
            "scalar_s": t_scalar,
            "batched_warm_s": t_warm,
            "frozen_rows_s": t_rows,
            "frozen_matrix_s": t_matrix,
            "scalar_vertices_per_s": frontier_size / t_scalar,
            "batched_warm_vertices_per_s": frontier_size / t_warm,
            "frozen_rows_vertices_per_s": frontier_size / t_rows,
            "frozen_matrix_vertices_per_s": frontier_size / t_matrix,
            "speedup_rows_vs_warm": t_warm / t_rows,
            "speedup_matrix_vs_warm": t_warm / t_matrix,
            "speedup_matrix_vs_scalar": t_scalar / t_matrix,
            "compile_breakeven_batches": t_compile / max(t_warm - t_matrix,
                                                         1e-12),
        }

    # Frontier-size sweep at fan-out 10: per-batch fixed costs amortise,
    # so the frozen advantage should grow with the frontier.
    results["frontier_sweep"] = {}
    for size in FRONTIER_SWEEP:
        if size > num_sources * 2:
            continue
        sweep = make_frontier(num_sources, size, seed=SEED + 2)
        sweep_arr = np.asarray(sweep, dtype=np.int64)
        store.thaw()
        store.snapshot_cache.clear()
        store.sample_neighbors_many(sweep, 10, rng=SEED)
        t_warm = _time(
            lambda: store.sample_neighbors_many(sweep, 10, rng=SEED),
            repeats,
        )
        gen = coerce_generator(SEED)
        shard.sample_matrix(sweep_arr, 10, gen)  # warm it
        t_matrix = _time(
            lambda: shard.sample_matrix(sweep_arr, 10, gen), repeats,
            inner=20,
        )
        results["frontier_sweep"][str(size)] = {
            "batched_warm_s": t_warm,
            "frozen_matrix_s": t_matrix,
            "frozen_matrix_vertices_per_s": size / t_matrix,
            "speedup_matrix_vs_warm": t_warm / t_matrix,
        }

    # Multi-hop: the sampler-facing kernel (2-hop [10, 10] fan-out).
    store.freeze()
    seeds = frontier[: max(1, frontier_size // 10)]
    t_hops = _time(
        lambda: sample_blocks(store, seeds, [10, 10], rng=SEED), repeats
    )
    levels = sample_blocks(store, seeds, [10, 10], rng=SEED).levels
    results["multi_hop"] = {
        "seeds": len(seeds),
        "fanouts": [10, 10],
        "time_s": t_hops,
        "expanded_vertices": int(sum(l.size for l in levels)),
        "seeds_per_s": len(seeds) / t_hops,
    }
    return results


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

    k10 = results["fanouts"]["10"]
    print(
        f"[bench_frozen_sampling] fanout=10: frozen matrix "
        f"{k10['frozen_matrix_vertices_per_s']:,.0f} v/s "
        f"({k10['speedup_matrix_vs_warm']:.1f}x warm batched, "
        f"{k10['speedup_matrix_vs_scalar']:.1f}x scalar); "
        f"rows API {k10['speedup_rows_vs_warm']:.1f}x warm",
        file=sys.stderr,
    )
    if not args.smoke and k10["speedup_matrix_vs_warm"] < 10.0:
        print(
            "[bench_frozen_sampling] FAIL: frozen matrix kernel below "
            "the 10x-over-warm acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
