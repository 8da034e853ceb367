"""The operator layer's three sampling methods (paper §III):

* **node sampling** — draw seed vertices from the whole graph;
* **neighbor sampling** — draw a fixed fan-out of weighted neighbors for
  each vertex of a batch (the per-layer GNN operation, Figures 10a-c);
* **subgraph sampling** — draw a multi-hop subgraph pivoted at each seed
  (Figures 10d-f), including the meta-path variant used on heterogeneous
  graphs.

Samplers accept anything that satisfies :class:`GraphStoreAPI` — a local
store, a baseline, or the distributed client — and return dense NumPy
index tensors ready for the model layers.  A vertex with no out-edges is
padded with itself (a self-loop), the standard mini-batch convention, so
downstream tensors stay rectangular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.snapshot import RNGLike, coerce_generator, coerce_scalar_rng
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI, SampleBlock
from repro.errors import ConfigurationError
from repro.gnn.ops import occurrence_rows
from repro.obs.telemetry import Telemetry

__all__ = [
    "MiniBatchBlocks",
    "sample_seed_nodes",
    "sample_neighbor_matrix",
    "sample_blocks",
    "sample_blocks_partial",
    "sample_subgraph",
    "sample_metapath",
]


#: A level of at least this many draws, above the bottom, is reduced
#: to its distinct vertices before the next hop: a whole step broke
#: even at 160–240 draws on the training and serving graphs (DESIGN.md
#: §20), so a serving flush's ≤ 30 draws stay as drawn.
DEDUP_FROM = 256


@dataclass(frozen=True)
class MiniBatchBlocks:
    """A sampled multi-hop mini-batch, in the shape of DGL's blocks.

    ``nodes[0]`` are the seeds as given (shape ``(B,)``);
    ``nodes[d + 1]`` holds the ``fanouts[d]`` draws of each row of
    ``nodes[d]``, flat (``inverse[d + 1]`` is ``None``) or, for a
    level of at least :data:`DEDUP_FROM` draws above the bottom, as
    their sorted distinct vertices with ``inverse[d + 1]`` mapping each
    draw to its row.  Occurrences of a vertex share one draw set.
    """

    nodes: List[np.ndarray]
    inverse: List[Optional[np.ndarray]]
    fanouts: List[int]

    @property
    def batch_size(self) -> int:
        return int(self.nodes[0].shape[0])

    @property
    def levels(self) -> List[np.ndarray]:
        """One row per occurrence: ``levels[d + 1]`` lists the draws of
        every row of ``levels[d]`` in order.  Built per read, for the
        benchmarks and tests; the package reads nodes and inverse."""
        rows = occurrence_rows(self.inverse, self.fanouts)
        return [n if r is None else n[r] for n, r in zip(self.nodes, rows)]


def sample_seed_nodes(
    store: GraphStoreAPI,
    k: int,
    rng: RNGLike = None,
    etype: int = DEFAULT_ETYPE,
) -> np.ndarray:
    """Node sampling: ``k`` seeds drawn from the graph's source vertices.

    Uses the store's degree-weighted vertex sampler when it offers one
    (PlatoD2GL's store does); otherwise falls back to uniform choice over
    the sources.  A negative ``k`` raises.
    """
    if k < 0:
        raise ConfigurationError(f"sample count must be >= 0, got {k}")
    sampler = getattr(store, "sample_vertices", None)
    if sampler is not None:
        seeds = sampler(k, rng, etype)
    else:
        pool = list(store.sources(etype))
        if not pool:
            seeds = []
        else:
            rng = coerce_scalar_rng(rng) or random
            seeds = [pool[rng.randrange(len(pool))] for _ in range(k)]
    return np.asarray(seeds, dtype=np.int64)


def _as_frontier(vertices: Sequence[int]) -> np.ndarray:
    """An ``int64`` frontier from an array or any iterable of ids."""
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    return np.asarray(vertices, dtype=np.int64)


def _pad_self_loops(
    ids: np.ndarray, state: np.ndarray, srcs: np.ndarray
) -> np.ndarray:
    """Overwrite every row that is not ``SERVED`` with its own source
    (one masked copy, in place: the block is the sampler's to keep)."""
    if state.any():
        np.copyto(ids, srcs[:, None], where=state.astype(bool)[:, None])
    return ids


def sample_neighbor_matrix(
    store: GraphStoreAPI,
    srcs: Sequence[int],
    fanout: int,
    rng: RNGLike = None,
    etype: int = DEFAULT_ETYPE,
) -> np.ndarray:
    """Neighbor sampling: a dense ``(len(srcs), fanout)`` index matrix.

    Each row holds ``fanout`` weighted draws (with replacement) from the
    corresponding source's out-neighbors; sources without out-edges —
    and rows a degraded read could not serve — are padded with
    themselves.

    The whole frontier is one call of the store's batched read path
    (:meth:`GraphStoreAPI.sample_neighbors_many`); its
    :class:`~repro.core.types.SampleBlock` is padded with one masked
    copy and its ``ids`` matrix handed on.
    """
    if fanout < 1:
        raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
    srcs = np.asarray(srcs, dtype=np.int64)
    block = store.sample_neighbors_many(srcs, fanout, rng, etype)
    return _pad_self_loops(block.ids, block.state, srcs)


def _add_level(nodes: list, inverse: list, matrix: np.ndarray, depth: int):
    """Append the level ``matrix`` (the draws of each row of
    ``nodes[-1]``) makes: distinct unless small or the bottom of a
    ``depth``-hop block."""
    flat = matrix.reshape(-1)
    if len(nodes) == depth or flat.size < DEDUP_FROM:
        nodes.append(flat)
        inverse.append(None)
    else:
        distinct, inv = np.unique(flat, return_inverse=True)
        nodes.append(distinct)
        inverse.append(inv)


def sample_blocks(
    store: GraphStoreAPI,
    seeds: Sequence[int],
    fanouts: Sequence[int],
    rng: RNGLike = None,
    etype: int = DEFAULT_ETYPE,
    tracer=None,
) -> MiniBatchBlocks:
    """Multi-hop expansion for mini-batch training (K-hop sampling).

    Hop ``d`` draws ``fanouts[d]`` neighbors for every row of
    ``nodes[d]``; the result feeds
    :meth:`repro.gnn.models.GraphSAGE.forward` directly.  Every hop is
    one batched ``sample_neighbors_many`` call and the frontier stays
    an ``int64`` array from hop to hop.  One
    ``numpy.random.Generator`` is derived from ``rng`` for the whole
    expansion and passed down as is, so no layer below re-seeds per hop
    or per shard.

    Each hop runs inside a ``sampler.hop`` span (hop index, frontier
    size, fanout) on the store's telemetry hub — a cluster client shares
    its cluster's, so the hop's per-shard RPC spans nest beneath it.
    ``tracer`` (optional :class:`~repro.obs.trace.Tracer`) fills the hub.
    """
    telemetry = Telemetry.of(store, tracer)
    gen = coerce_generator(rng)
    nodes, inverse = [_as_frontier(seeds)], [None]
    for hop, fanout in enumerate(fanouts):
        with telemetry.span(
            "sampler.hop", hop, int(nodes[-1].shape[0]), fanout
        ):
            matrix = sample_neighbor_matrix(
                store, nodes[-1], fanout, gen, etype
            )
        _add_level(nodes, inverse, matrix, len(fanouts))
    return MiniBatchBlocks(nodes, inverse, list(fanouts))


def sample_blocks_partial(
    store: GraphStoreAPI,
    seeds: Sequence[int],
    fanouts: Sequence[int],
    rng: RNGLike = None,
    etype: int = DEFAULT_ETYPE,
) -> Tuple[Optional[MiniBatchBlocks], List[int], List[int]]:
    """Multi-hop expansion tolerating degraded-read seed rows.

    Under a cluster client with ``degraded_reads=True``, seeds whose
    owning shard has no live replica come back with
    ``state == UNAVAILABLE``.  :func:`sample_blocks` would silently pad
    those rows with self-loops — destroying the outage signal — so the
    serving tier uses this variant instead:

    * hop 0 is sampled directly through ``sample_neighbors_many`` and
      the block's ``state`` column is read;
    * unavailable seeds are *dropped* from the batch and reported in
      ``unavailable_idx`` (positions into ``seeds``) so the caller can
      answer them from a degraded cache;
    * the surviving seeds expand through the normal per-hop path
      (genuinely empty rows still self-loop-pad; a shard that dies
      mid-expansion degrades deeper hops to self-loops — the answer is
      fresh at hop 0, which is what the breaker keys on).

    Returns ``(blocks, served_idx, unavailable_idx)``; ``blocks`` is
    ``None`` when no seed was servable.  ``blocks.nodes[0]`` holds only
    the served seeds, in ``served_idx`` order.
    """
    if not fanouts:
        raise ConfigurationError("fanouts must be non-empty")
    seeds = _as_frontier(seeds)
    gen = coerce_generator(rng)
    block = store.sample_neighbors_many(seeds, fanouts[0], gen, etype)
    ids, state = block.ids, block.state
    if SampleBlock.UNAVAILABLE in state:
        unavailable = state == SampleBlock.UNAVAILABLE
        unavailable_idx = np.flatnonzero(unavailable).tolist()
        if len(unavailable_idx) == len(seeds):
            return None, [], unavailable_idx
        served_idx = np.flatnonzero(~unavailable)
        seeds, ids, state = (
            seeds[served_idx], ids[served_idx], state[served_idx]
        )
        served_idx = served_idx.tolist()
    else:  # every seed served: no re-index
        unavailable_idx, served_idx = [], list(range(seeds.size))
    nodes, inverse = [seeds], [None]
    matrix = _pad_self_loops(ids, state, seeds)
    _add_level(nodes, inverse, matrix, len(fanouts))
    for fanout in fanouts[1:]:
        matrix = sample_neighbor_matrix(store, nodes[-1], fanout, gen, etype)
        _add_level(nodes, inverse, matrix, len(fanouts))
    blocks = MiniBatchBlocks(nodes, inverse, list(fanouts))
    return blocks, served_idx, unavailable_idx


def sample_subgraph(
    store: GraphStoreAPI,
    seed: int,
    fanouts: Sequence[int],
    rng: Optional[random.Random] = None,
    etype: int = DEFAULT_ETYPE,
) -> Tuple[Set[int], List[Tuple[int, int]]]:
    """Subgraph sampling pivoted at one seed (paper §III).

    Expands ``fanouts`` hops, deduplicating vertices per frontier, and
    returns ``(vertex_set, edge_list)`` of the traversed subgraph.
    """
    nodes: Set[int] = {int(seed)}
    edges: List[Tuple[int, int]] = []
    frontier = [int(seed)]
    for fanout in fanouts:
        next_frontier: Set[int] = set()
        for src in frontier:
            for dst in store.sample_neighbors(src, fanout, rng, etype):
                edges.append((src, dst))
                if dst not in nodes:
                    nodes.add(dst)
                    next_frontier.add(dst)
        frontier = list(next_frontier)
        if not frontier:
            break
    return nodes, edges


def sample_metapath(
    store: GraphStoreAPI,
    seeds: Sequence[int],
    path: Sequence[Tuple[int, int]],
    rng: Optional[random.Random] = None,
) -> List[np.ndarray]:
    """Meta-path sampling over a heterogeneous graph (paper §VII-C).

    ``path`` is a sequence of ``(etype, fanout)`` hops — e.g. the WeChat
    recommendation pattern User→Live→Live walks ``[(USER_LIVE, f1),
    (LIVE_LIVE, f2)]``.  Returns the flattened frontier per hop, seeds
    first.
    """
    gen = coerce_generator(rng)
    levels = [_as_frontier(seeds)]
    for etype, fanout in path:
        matrix = sample_neighbor_matrix(store, levels[-1], fanout, gen, etype)
        levels.append(matrix.reshape(-1))
    return levels
