"""Seeded input generators: graphs, training seeds, churn, arrivals.

Everything a workload feeds the program is an array made here from
``--seed``; the program never sees the seed's generator.  Counts are
fixed per window, so two runs of one seed execute the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE

#: Insert / update / delete shares of every churn batch.
CHURN_MIX = (0.5, 0.3, 0.2)
_OP_CODES = np.asarray([OP_INSERT, OP_UPDATE, OP_DELETE], dtype=np.uint8)


@dataclass(frozen=True)
class Shape:
    """Graph and batch shapes; only the window count scales with time."""

    train_sources: int = 20_000
    train_hub: int = 2_000
    tail: int = 8
    feat_dim: int = 32
    hidden_dim: int = 32
    classes: int = 8
    fanouts: Tuple[int, ...] = (10, 10)
    batch: int = 256
    frozen_steps: int = 60
    churn_steps: int = 20
    churn_every: int = 4
    churn_ops: int = 2_000
    ingest_sources: int = 40_000
    ingest_hub: int = 4_000
    ingest_batches: int = 10
    ingest_ops: int = 4_000
    scalar_ops: int = 4_000
    serve_sources: int = 4_000
    serve_degree: int = 16
    serve_fanouts: Tuple[int, ...] = (5, 5)
    serve_rate: float = 1_000.0
    serve_requests: int = 4_000
    serve_link_every: int = 8
    serve_churn_per_s: int = 50
    serve_churn_ops: int = 256
    sweep_requests: int = 2_000
    probe_rows: int = 64
    ladder_frontier: int = 1_000
    ladder_reps: int = 15
    setups: int = 3


FULL = Shape()
SMOKE = Shape(
    train_sources=1_500,
    train_hub=100,
    tail=4,
    batch=64,
    frozen_steps=30,
    churn_steps=30,
    churn_ops=200,
    ingest_sources=2_000,
    ingest_hub=200,
    ingest_batches=3,
    ingest_ops=300,
    scalar_ops=300,
    serve_sources=400,
    serve_degree=8,
    serve_requests=300,
    sweep_requests=200,
    probe_rows=16,
    ladder_frontier=100,
    ladder_reps=3,
    setups=2,
)


class Graph(NamedTuple):
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    num_sources: int


class Churn(NamedTuple):
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    op: np.ndarray


def stream(seed: int, tag: int) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(tag)])


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    # Multiples of 1/8: Fenwick prefix sums stay exact in float64, so
    # adjacency read back after churn or recovery compares with ``==``.
    return rng.integers(1, 64, n) / 8.0


def _popular(rng: np.random.Generator, universe: int, n: int) -> np.ndarray:
    """Destinations skewed to low ranks (the hubs are also popular)."""
    return (universe * rng.random(n) ** 2).astype(np.int64)


def power_law_graph(
    rng: np.random.Generator, num_sources: int, hub: int, tail: int
) -> Graph:
    """Rank-aligned power-law graph: source ``r`` has degree
    ``max(tail, hub / (r + 1))`` and draws destinations from the source
    universe with the same rank skew, so multi-hop frontiers meet hubs."""
    ranks = np.arange(num_sources, dtype=np.float64) + 1.0
    degree = np.maximum(tail, (hub / ranks).astype(np.int64))
    src = np.repeat(np.arange(num_sources, dtype=np.int64), degree)
    dst = _popular(rng, num_sources, src.size)
    # The store merges duplicate (src, dst) edges; dedupe here so the
    # edge count is known without asking the program.
    key = np.unique(src * num_sources + dst)
    src, dst = key // num_sources, key % num_sources
    return Graph(src, dst, _weights(rng, src.size), num_sources)


def churn_batches(
    rng: np.random.Generator, graph: Graph, count: int, ops: int
) -> List[Churn]:
    """Mixed batches: updates and deletes aim at edges of the initial
    graph (so most do real work), inserts pick a uniform source and a
    popular destination (some upsert an existing edge)."""
    out: List[Churn] = []
    for _ in range(count):
        kind = rng.choice(3, size=ops, p=CHURN_MIX)
        pick = rng.integers(0, graph.src.size, ops)
        src = graph.src[pick].copy()
        dst = graph.dst[pick].copy()
        ins = kind == 0
        n_ins = int(ins.sum())
        src[ins] = rng.integers(0, graph.num_sources, n_ins)
        dst[ins] = _popular(rng, graph.num_sources, n_ins)
        out.append(Churn(src, dst, _weights(rng, ops), _OP_CODES[kind]))
    return out


class TrainInputs(NamedTuple):
    graph: Graph
    feats: np.ndarray
    labels: np.ndarray
    #: ``(windows + 1, steps, batch)`` seed vertices; window 0 warms up.
    seeds: np.ndarray
    #: One batch per churn point, in order; ``None`` for train_frozen.
    churn: Optional[List[Churn]]
    model_seed: int


def train_inputs(
    seed: int, shape: Shape, windows: int, churn: bool
) -> TrainInputs:
    graph = power_law_graph(
        stream(seed, 1), shape.train_sources, shape.train_hub, shape.tail
    )
    rng = stream(seed, 2)
    feats = rng.standard_normal(
        (shape.train_sources, shape.feat_dim)
    ).astype(np.float32)
    # Labels are a function of the features, so the loss must fall.
    labels = feats[:, : shape.classes].argmax(axis=1)
    steps = shape.churn_steps if churn else shape.frozen_steps
    seeds = rng.integers(
        0, shape.train_sources, (windows + 1, steps, shape.batch)
    )
    batches = None
    if churn:
        points = (windows + 1) * len(range(0, steps, shape.churn_every))
        batches = churn_batches(
            stream(seed, 3), graph, points, shape.churn_ops
        )
    return TrainInputs(graph, feats, labels, seeds, batches, seed * 7 + 1)


class IngestInputs(NamedTuple):
    graph: Graph
    #: ``(windows + 1) * ingest_batches`` columnar batches.
    churn: List[Churn]
    #: ``windows + 1`` batches replayed one op at a time.
    scalar: List[Churn]


def ingest_inputs(seed: int, shape: Shape, windows: int) -> IngestInputs:
    graph = power_law_graph(
        stream(seed, 4), shape.ingest_sources, shape.ingest_hub, shape.tail
    )
    rng = stream(seed, 5)
    churn = churn_batches(
        rng, graph, (windows + 1) * shape.ingest_batches, shape.ingest_ops
    )
    scalar = churn_batches(rng, graph, windows + 1, shape.scalar_ops)
    return IngestInputs(graph, churn, scalar)


class ServeWindow(NamedTuple):
    #: ``(t, vertices, kind)`` requests and ``(t, Churn, None)`` churn
    #: events merged in time order; ``t`` is simulated seconds from the
    #: start of the run.
    events: List[tuple]
    requests: int
    churn_ops: int


def _zipf_keys(
    rng: np.random.Generator, universe: int, n: int, exponent: float = 0.99
) -> np.ndarray:
    p = (np.arange(universe, dtype=np.float64) + 1.0) ** -exponent
    p /= p.sum()
    # Ranks are shuffled over the id space so hot keys spread over shards.
    ids = rng.permutation(universe)
    return ids[rng.choice(universe, size=n, p=p)]


def serve_windows(
    seed: int,
    shape: Shape,
    windows: int,
    graph: Graph,
    rate: Optional[float] = None,
    requests: Optional[int] = None,
    churn: bool = True,
    tag: int = 6,
) -> List[ServeWindow]:
    """An open-loop schedule on the simulated clock.

    Requests arrive evenly spaced at ``rate`` per simulated second (a
    bursty process would be shed by the token bucket, and the workload
    must be one on which nothing fails).  Churn runs in the middle third
    of the measured windows.  ``graph`` is the rig's adjacency read back
    after set-up, so updates and deletes hit real edges.
    """
    rate = shape.serve_rate if rate is None else rate
    per_window = shape.serve_requests if requests is None else requests
    rng = stream(seed, tag)
    total = (windows + 1) * per_window
    keys = _zipf_keys(rng, shape.serve_sources, total)
    partners = _zipf_keys(rng, shape.serve_sources, total)
    span = per_window / rate
    first_churn = 1 + windows // 3
    last_churn = 1 + (2 * windows) // 3
    out: List[ServeWindow] = []
    for w in range(windows + 1):
        events: List[tuple] = []
        for j in range(w * per_window, (w + 1) * per_window):
            key = int(keys[j])
            if j % shape.serve_link_every == shape.serve_link_every - 1:
                other = int(partners[j])
                if other == key:
                    other = (key + 1) % shape.serve_sources
                events.append((j / rate, [key, other], "link"))
            else:
                events.append((j / rate, [key], "embed"))
        churn_ops = 0
        if churn and first_churn <= w < last_churn:
            count = int(round(span * shape.serve_churn_per_s))
            batches = churn_batches(rng, graph, count, shape.serve_churn_ops)
            for m, batch in enumerate(batches):
                t = w * span + (m + 0.5) / shape.serve_churn_per_s
                events.append((t, batch, None))
            churn_ops = count * shape.serve_churn_ops
            events.sort(key=lambda e: e[0])
        out.append(ServeWindow(events, per_window, churn_ops))
    return out


def hub_heavy_frontier(
    rng: np.random.Generator, num_sources: int, size: int
) -> np.ndarray:
    """Half the rows from the top 5 % of ranks, half uniform."""
    hot = max(1, num_sources // 20)
    rows = rng.integers(0, num_sources, size)
    hot_rows = rng.random(size) < 0.5
    rows[hot_rows] = rng.integers(0, hot, int(hot_rows.sum()))
    return rows
