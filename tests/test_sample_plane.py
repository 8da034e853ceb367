"""The columnar sample plane: one ``SampleBlock`` from kernel to trainer.

Every layer — a store behind the ``GraphStoreAPI`` default, the samtree
store in each of its read tiers, the graph server, the cluster client —
answers ``sample_neighbors_many`` with the same dense ``ids[n, k]`` +
``state[n]`` block.  This suite pins that contract:

* a Hypothesis property over frontiers with duplicates, unknown ids and
  empty-adjacency sources, across every layer and tier;
* chi-square: client draws match the exact per-source distribution,
  frozen and thawed, weighted and uniform, coalesced duplicates included;
* degraded reads: a dead shard's rows come back ``UNAVAILABLE``, nothing
  raises, and the samplers pad or drop them;
* no per-vertex Python on the frozen client path (a deterministic call
  count, not a timing);
* the ledgers: messages, request accounting, coalescing, hot rotation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.baselines.platogl import PlatoGLStore
from repro.core.topology import DynamicGraphStore
from repro.core.types import UNAVAILABLE, SampleBlock
from repro.distributed.cluster import LocalCluster
from repro.distributed.rpc import NetworkModel
from repro.errors import ConfigurationError
from repro.gnn.samplers import sample_blocks, sample_blocks_partial
from tests.conftest import DescentStore, python_calls

SERVED, EMPTY, DOWN = (
    SampleBlock.SERVED, SampleBlock.EMPTY, SampleBlock.UNAVAILABLE
)

# ---------------------------------------------------------------------------
# one graph, every layer
# ---------------------------------------------------------------------------
KNOWN = list(range(40))
#: Had edges once, lost them all: the tree is gone from the directory.
EMPTIED = list(range(40, 45))
UNKNOWN = [10**6 + i for i in range(5)]


def _adjacency():
    rng = random.Random(7)
    adj = {}
    for src in KNOWN:
        degree = 1 if src % 10 == 0 else rng.randrange(2, 14)
        adj[src] = {
            1000 + 37 * src + j: 0.25 + rng.random() * (j + 1)
            for j in range(degree)
        }
    return adj


ADJ = _adjacency()


def _load(target):
    for src, row in ADJ.items():
        for dst, w in row.items():
            target.add_edge(src, dst, w)
    for src in EMPTIED:
        target.add_edge(src, 5, 1.0)
        target.remove_edge(src, 5)
    return target


def _warm(target):
    target.sample_neighbors_many(KNOWN + EMPTIED + UNKNOWN, 2, 0)
    return target


def _store(frozen=False, cache=True):
    store = _load(
        DynamicGraphStore() if cache else DescentStore()
    )
    if frozen:
        store.freeze()
    return _warm(store)


def _client(frozen=False, **kwargs):
    cluster = LocalCluster(num_servers=4, **kwargs)
    _load(cluster.client)
    if frozen:
        cluster.freeze_all()
    _warm(cluster.client)
    return cluster


def _hot_client():
    cluster = LocalCluster(
        num_servers=4, hot_set_capacity=64, network=NetworkModel()
    )
    _load(cluster.client)
    for _ in range(3):
        cluster.client.sample_neighbors_many([1, 1, 1, 2, 2, 3] + KNOWN, 2, 0)
    installed = cluster.replicate_hot(top_n=3, copies=2)
    assert {src for src, _ in installed} == {1, 2, 3}
    return cluster


#: name -> (target, whether two calls with one seed must agree).  Hot
#: replicas rotate between calls, so the shards (and the order they
#: draw from the shared generator) differ from call to call by design.
TARGETS = {
    "store_frozen": (_store(frozen=True), True),
    "store_warm": (_store(), True),
    "store_descent": (_store(cache=False), True),
    "client_coalesce": (_client().client, True),
    "client_frozen": (_client(frozen=True).client, True),
    "client_hot": (_hot_client().client, False),
    "baseline_api_default": (_load(PlatoGLStore()), True),
}

frontier_st = st.lists(
    st.sampled_from(KNOWN + EMPTIED + UNKNOWN), min_size=0, max_size=40
)


def _check_block(block, srcs, k):
    n = len(srcs)
    assert isinstance(block, SampleBlock) and len(block) == n
    assert block.ids.shape == (n, k) and block.ids.dtype == np.int64
    assert block.state.shape == (n,) and block.state.dtype == np.int8
    expected = [SERVED if s in ADJ else EMPTY for s in srcs]
    assert block.state.tolist() == expected
    for src, row, state in zip(srcs, block.ids.tolist(), expected):
        if state == SERVED:
            assert set(row) <= ADJ[src].keys()
        else:
            assert row == [0] * k
    rows = block.rows()
    assert [len(r) for r in rows] == [k if e == SERVED else 0 for e in expected]


@settings(max_examples=60, deadline=None)
@given(
    srcs=frontier_st,
    k=st.integers(0, 6),
    seed=st.integers(0, 2**32),
    weighted=st.booleans(),
    name=st.sampled_from(sorted(TARGETS)),
)
def test_every_layer_returns_the_same_block(srcs, k, seed, weighted, name):
    target, repeatable = TARGETS[name]
    block = target.sample_neighbors_many(srcs, k, seed, weighted=weighted)
    _check_block(block, srcs, k)
    if repeatable:
        again = target.sample_neighbors_many(srcs, k, seed, weighted=weighted)
        assert np.array_equal(block.ids, again.ids)
        assert np.array_equal(block.state, again.state)
    # The coalesced request shape: distinct sources + multiplicities.
    distinct = sorted(set(srcs))
    counts = [srcs.count(s) for s in distinct]
    grouped = target.sample_neighbors_many(
        distinct, k, seed, weighted=weighted, counts=counts
    )
    _check_block(grouped, [s for s, c in zip(distinct, counts) for _ in range(c)], k)


def _ledgers(target):
    """What a client read charges: its serving counters, its hot
    tracker's and its network's (none of them on a store)."""
    holders = (
        getattr(target, "serving_stats", None),
        getattr(getattr(target, "hot_tracker", None), "stats", None),
        getattr(getattr(target, "network", None), "stats", None),
    )
    return [h.to_dict() for h in holders if h is not None]


@pytest.mark.parametrize(
    "name",
    [
        "store_frozen",
        "store_warm",
        "store_descent",
        "baseline_api_default",
        "client_coalesce",
        "client_frozen",
        "client_hot",
    ],
)
def test_negative_fanout_is_a_typed_error_on_every_store_tier(name):
    target, _ = TARGETS[name]
    before = _ledgers(target)
    with pytest.raises(ConfigurationError):
        target.sample_neighbors_many([1, 1], -1, 0)
    if name.startswith("client"):
        with pytest.raises(ConfigurationError):
            target.sample_neighbors(1, -1, 0)
    # Refused before any counter, tracker or network charge.
    assert _ledgers(target) == before


@pytest.mark.parametrize("width", [2, 40])  # per-row loop, frontier kernel
@pytest.mark.parametrize(
    "name",
    [
        "store_frozen",
        "store_warm",
        "store_descent",
        "baseline_api_default",
        "client_coalesce",
        "client_frozen",
        "client_hot",
    ],
)
def test_malformed_counts_are_a_typed_error_on_every_store_tier(name, width):
    """``counts`` gives one non-negative count per source, or the call is
    refused before any counter, tracker or network charge — a longer one
    must not come back as extra all-zero rows marked served."""
    target, _ = TARGETS[name]
    srcs = KNOWN[:width]
    ones = [1] * (width - 1)
    before = _ledgers(target)
    for counts in (ones + [1, 1], ones, [-1] + ones):
        with pytest.raises(ConfigurationError):
            target.sample_neighbors_many(srcs, 3, 0, counts=counts)
    assert _ledgers(target) == before
    block = target.sample_neighbors_many(srcs, 3, 0, counts=[0] + ones)
    assert len(block) == width - 1


def test_block_rows_helper_maps_the_three_states():
    block = SampleBlock(
        np.asarray([[7, 8], [0, 0], [0, 0]], dtype=np.int64),
        np.asarray([SERVED, EMPTY, DOWN], dtype=np.int8),
    )
    rows = block.rows()
    assert rows[0] == [7, 8] and rows[1] == []
    assert rows[2] is UNAVAILABLE


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------
def _pvalue(draws, expected_share):
    support = sorted(expected_share)
    observed = np.asarray([draws.count(d) for d in support], dtype=float)
    expected = np.asarray([expected_share[d] for d in support]) * len(draws)
    assert observed.sum() == len(draws)  # nothing outside the support
    return float(scipy_stats.chisquare(observed, expected).pvalue)


def _shares(src, weighted):
    row = ADJ[src]
    if not weighted:
        return {d: 1.0 / len(row) for d in row}
    total = sum(row.values())
    return {d: w / total for d, w in row.items()}


def test_client_draws_match_the_exact_distribution():
    src = max(ADJ, key=lambda s: len(ADJ[s]))
    others = [s for s in KNOWN if s != src]
    # 400 coalesced occurrences of one source among a mixed frontier.
    frontier = [src] * 400 + others + [src] * 100 + UNKNOWN
    for frozen in (True, False):
        client = TARGETS["client_frozen" if frozen else "client_coalesce"][0]
        for weighted in (True, False):
            coalesced = client.serving_stats.coalesced_sources
            block = client.sample_neighbors_many(
                frontier, 12, 20240928, weighted=weighted
            )
            assert client.serving_stats.coalesced_sources - coalesced == 499
            mine = np.flatnonzero(np.asarray(frontier) == src)
            draws = block.ids[mine].reshape(-1).tolist()
            assert len(draws) == 500 * 12
            assert _pvalue(draws, _shares(src, weighted)) > 0.01
            # Occurrences of a coalesced source draw independently.
            assert len({tuple(r) for r in block.ids[mine].tolist()}) > 400


# ---------------------------------------------------------------------------
# degraded reads
# ---------------------------------------------------------------------------
def test_dead_shard_rows_come_back_unavailable():
    cluster = LocalCluster(
        num_servers=4, replication_factor=2, degraded_reads=True
    )
    client = _load(cluster.client)
    dead = 1
    cluster.crash_shard(dead)
    frontier = KNOWN + UNKNOWN + KNOWN[:7]
    down = [client.partitioner.shard_for(s) == dead for s in frontier]
    assert any(down) and not all(down)

    block = client.sample_neighbors_many(frontier, 3, 5)
    expected = [
        DOWN if d else (SERVED if s in ADJ else EMPTY)
        for s, d in zip(frontier, down)
    ]
    assert block.state.tolist() == expected
    assert not block.ids[np.asarray(down)].any()
    assert [r is UNAVAILABLE for r in block.rows()] == down
    assert client.sample_neighbors(frontier[down.index(True)], 3) is UNAVAILABLE

    blocks, served_idx, unavailable_idx = sample_blocks_partial(
        client, frontier, [3, 2], 5
    )
    assert unavailable_idx == [i for i, d in enumerate(down) if d]
    assert served_idx == [i for i, d in enumerate(down) if not d]
    assert blocks.levels[0].tolist() == [frontier[i] for i in served_idx]
    assert [lv.size for lv in blocks.levels] == [
        len(served_idx), 3 * len(served_idx), 6 * len(served_idx)
    ]

    # sample_blocks keeps every seed and self-loop-pads what it cannot draw.
    level1 = sample_blocks(client, frontier, [3], 5).levels[1].reshape(-1, 3)
    for src, row, state in zip(frontier, level1.tolist(), expected):
        if state == SERVED:
            assert set(row) <= ADJ[src].keys()
        else:
            assert row == [src] * 3

    cluster.crash_shard(0)
    cluster.crash_shard(2)
    cluster.crash_shard(3)
    assert sample_blocks_partial(client, KNOWN, [2], 1) == (
        None, [], list(range(len(KNOWN)))
    )


# ---------------------------------------------------------------------------
# no per-vertex Python
# ---------------------------------------------------------------------------
def test_frozen_client_draw_makes_no_per_vertex_python_call():
    client = TARGETS["client_frozen"][0]
    rng = np.random.default_rng(3)
    small = rng.choice(KNOWN, 256)
    large = rng.choice(KNOWN, 2560)
    gen = np.random.default_rng(4)
    touched = {client.partitioner.shard_for(int(s)) for s in small}
    assert len(touched) == 4
    counts = [
        python_calls(lambda: client.sample_neighbors_many(frontier, 10, gen))
        for frontier in (small, large, small)
    ]
    assert counts[0] == counts[1] == counts[2]


# ---------------------------------------------------------------------------
# ledgers
# ---------------------------------------------------------------------------
def _identity_holds(server):
    s = server.stats
    return s.requests == s.refused_requests + (
        s.update_requests + s.ingest_requests + s.sample_requests
    )


def test_ledgers_one_message_per_touched_shard_per_hop():
    network = NetworkModel()
    cluster = LocalCluster(num_servers=4, network=network)
    client = _load(cluster.client)
    shard_of = client.partitioner.shard_for
    gen = np.random.default_rng(9)
    for frontier in ([3], [3, 3, 3], KNOWN[:6] + KNOWN[:3] + UNKNOWN, KNOWN * 2):
        stats = client.serving_stats
        before = (
            network.stats.messages, stats.shard_rpcs, stats.grouped_rpcs,
            stats.sources, stats.distinct_sources, stats.coalesced_sources,
            sum(s.stats.sample_sources for s in cluster.servers),
        )
        client.sample_neighbors_many(frontier, 4, gen)
        rows, distinct = len(frontier), len(set(frontier))
        touched = {shard_of(s) for s in frontier}
        with_duplicates = {
            shard_of(s) for s in set(frontier) if frontier.count(s) > 1
        }
        after = (
            network.stats.messages, stats.shard_rpcs, stats.grouped_rpcs,
            stats.sources, stats.distinct_sources, stats.coalesced_sources,
            sum(s.stats.sample_sources for s in cluster.servers),
        )
        assert [a - b for a, b in zip(after, before)] == [
            len(touched), len(touched), len(with_duplicates),
            rows, distinct, rows - distinct, rows,
        ]
    assert all(_identity_holds(server) for server in cluster.servers)

    # A 2-hop expansion is one message per touched shard per hop.
    before = network.stats.messages
    blocks = sample_blocks(client, KNOWN[:8], [3, 2], 1)
    per_hop = [
        len({shard_of(int(s)) for s in level}) for level in blocks.levels[:-1]
    ]
    assert network.stats.messages - before == sum(per_hop)


def test_hot_source_takes_one_rotation_step_per_call():
    cluster = _hot_client()
    client, tracker = cluster.client, cluster.hot_tracker
    stats = client.serving_stats
    read_set = client.hot_replicas.shards(1)
    assert len(read_set) == 3
    seen = []
    for _ in range(len(read_set)):
        hot_reads, observed = stats.hot_reads, tracker.stats.observations
        served = [s.stats.sample_sources for s in cluster.servers]
        client.sample_neighbors_many([1] * 5, 2, 0)
        assert stats.hot_reads - hot_reads == 1
        assert tracker.stats.observations - observed == 5
        delta = [
            s.stats.sample_sources - b
            for s, b in zip(cluster.servers, served)
        ]
        (shard,) = [i for i, d in enumerate(delta) if d]
        assert delta[shard] == 5
        seen.append(shard)
    assert sorted(seen) == sorted(read_set)
