"""The latency ladder: one frontier pushed through every rung.

Runs on ``train_frozen``'s graph with one hub-heavy frontier (half the
rows from the top 5 % of ranks) at fan-out 10.  Each rung is timed
directly — median of ``reps`` repetitions, fast rungs amortised over an
inner loop — from the kernel outwards, so the ratio between neighbouring
rungs is the tax of the layer between them.

Rungs reach into internals on purpose, so each one is allowed to
disappear: a rung whose entry point no longer exists (or no longer takes
these arguments) reports ``None`` and the run goes on.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from inputs import Shape, TrainInputs, churn_batches, hub_heavy_frontier, stream

K = 10
#: A missing entry point, or one that no longer takes these arguments.
_GONE = (AttributeError, ImportError, TypeError, KeyError)


def _rate(fn: Callable[[], object], work: float, reps: int,
          inner: int = 1) -> float:
    fn()  # warm caches and lazy set-up; users pay that once, not per call
    samples: List[float] = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - t0) / inner)
    return work / median(samples)


def run_ladder(inp: TrainInputs, shape: Shape, cluster, features, model,
               seed: int) -> Dict[str, Optional[float]]:
    """All 17 rungs.  ``cluster`` is ``train_frozen``'s own (frozen, read
    only until now); it is thawed here and must not be used afterwards."""
    reps = shape.ladder_reps
    g = inp.graph
    frontier = hub_heavy_frontier(
        stream(seed, 9), g.num_sources, shape.ladder_frontier
    )
    rows = frontier.tolist()
    n = float(len(rows))
    out: Dict[str, Optional[float]] = {}

    def rung(name: str, make: Callable[[], Optional[float]]) -> None:
        try:
            out[name] = make()
        except _GONE:
            out[name] = None

    # -- one store, built by the bulk-load rung itself ----------------------
    from repro.core.topology import DynamicGraphStore

    store = DynamicGraphStore()

    def bulk_load() -> float:
        # Sources dealt round-robin into ``reps`` disjoint slices of like
        # degree mix; loading them all is exactly one build of the graph.
        samples = []
        for part in range(reps):
            rows_of = g.src % reps == part
            t0 = perf_counter()
            store.bulk_load(g.src[rows_of], g.dst[rows_of], g.weight[rows_of])
            samples.append(int(rows_of.sum()) / (perf_counter() - t0))
        return median(samples)

    rung("core.topology.bulk_load_edges_per_s", bulk_load)
    if store.num_edges != g.src.size:  # rung gone: build it the plain way
        store = DynamicGraphStore()
        store.bulk_load(g.src, g.dst, g.weight)

    py_rng = random.Random(seed)
    rung("core.topology.sample_many_warm_vps", lambda: _rate(
        lambda: store.sample_neighbors_many(rows, K, py_rng), n, reps))

    def scalar() -> None:
        for src in rows:
            store.sample_neighbors(src, K, py_rng)

    rung("core.topology.sample_scalar_vps", lambda: _rate(scalar, n, reps))

    # Whole-store compiles are the slowest rung; a third of the reps
    # keeps the ladder inside a run's time budget.
    rung("core.frozen.compile_edges_per_s", lambda: _rate(
        store.freeze, float(store.num_edges), max(3, reps // 3)))
    store.freeze()

    def kernel() -> float:
        (shard,) = store.frozen_shards
        gen = np.random.default_rng(seed)
        return _rate(lambda: shard.sample_matrix(frontier, K, gen), n, reps,
                     inner=10)

    rung("core.frozen.sample_matrix_vps", kernel)
    rung("core.topology.sample_many_frozen_vps", lambda: _rate(
        lambda: store.sample_neighbors_many(rows, K, py_rng), n, reps, inner=5))

    def sampler_matrix() -> float:
        from repro.gnn.samplers import sample_neighbor_matrix

        return _rate(lambda: sample_neighbor_matrix(store, rows, K, py_rng),
                     n, reps, inner=5)

    rung("gnn.samplers.neighbor_matrix_vps", sampler_matrix)

    def server_endpoint() -> float:
        from repro.distributed.server import GraphServer

        server = GraphServer(0, store=store)
        return _rate(lambda: server.sample_neighbors_many(rows, K, py_rng),
                     n, reps, inner=5)

    rung("distributed.server.sample_many_vps", server_endpoint)

    def blocks(target) -> Callable[[], float]:
        def make() -> float:
            from repro.gnn.samplers import sample_blocks

            return _rate(
                lambda: sample_blocks(target, rows, shape.fanouts, py_rng),
                n, reps,
            )
        return make

    rung("gnn.samplers.blocks_2hop_store_sps", blocks(store))

    # -- the cluster client: frozen first, then thawed and warm -------------
    client = cluster.client
    rung("distributed.client.sample_many_frozen_vps", lambda: _rate(
        lambda: client.sample_neighbors_many(rows, K, py_rng), n, reps))
    rung("gnn.samplers.blocks_2hop_client_sps", blocks(client))

    def thaw_cluster() -> None:
        for server in cluster.servers:
            server.store.thaw()

    def client_default() -> float:
        thaw_cluster()
        return _rate(lambda: client.sample_neighbors_many(rows, K, py_rng),
                     n, reps)

    rung("distributed.client.sample_many_default_vps", client_default)

    def blocks_default() -> float:
        thaw_cluster()
        return blocks(client)()

    rung("gnn.samplers.blocks_2hop_client_default_sps", blocks_default)
    store_sps = out.get("gnn.samplers.blocks_2hop_store_sps")
    client_sps = out.get("gnn.samplers.blocks_2hop_client_sps")
    out["distributed.client.tax_2hop_x"] = (
        store_sps / client_sps if store_sps and client_sps else None
    )

    # -- what caps any sampling gain: feature gather and the model ----------
    def one_block():
        from repro.gnn.samplers import sample_blocks

        return sample_blocks(store, rows[: shape.batch], shape.fanouts, py_rng)

    def gather() -> float:
        ids = one_block().levels[-1].tolist()
        return _rate(lambda: features.gather("feat", ids), float(len(ids)),
                     reps)

    rung("storage.attributes.gather_rows_per_s", gather)

    def fwd_bwd() -> float:
        from repro.gnn.ops import softmax_cross_entropy

        block = one_block()
        feats = [features.gather("feat", level.tolist())
                 for level in block.levels]
        labels = inp.labels[block.levels[0]]

        def step() -> None:
            logits = model.forward(feats, block.fanouts)
            _, grad = softmax_cross_entropy(logits, labels)
            model.zero_grads()
            model.backward(grad)

        return _rate(step, float(block.batch_size), reps)

    rung("gnn.models.fwd_bwd_seeds_per_s", fwd_bwd)

    # -- last, because it mutates the store ---------------------------------
    def apply_batches() -> float:
        samples = []
        for b in churn_batches(stream(seed, 10), g, reps, shape.churn_ops):
            t0 = perf_counter()
            store.apply_edge_batch(b.src, b.dst, b.weight, None, b.op)
            samples.append(shape.churn_ops / (perf_counter() - t0))
        return median(samples)

    rung("core.topology.apply_batch_ops_per_s", apply_batches)
    return out
