"""The columnar bulk ingestion tier: equivalence, routing, coherence.

Covers the PR's acceptance criteria:

* ``apply_edge_batch`` / ``bulk_load`` leave the store in exactly the
  state sequential per-op application does — all etypes, duplicate keys
  folded last-wins, both heuristic paths (rebuild and PALM incremental);
* the distributed write path ships one columnar message per shard with
  array-payload NetworkModel accounting, and the vectorized partitioner
  agrees element-wise with the scalar hash;
* every bulk mutation bumps the samtree version, so the PR-1
  SnapshotCache never serves a stale snapshot across interleaved
  bulk-ingest / sample rounds (chi-square checked at the end).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    IngestStats,
    fold_run,
)
from repro.core.samtree import SamtreeConfig
from repro.core.topology import (
    REBUILD_MIN_OPS,
    DynamicGraphStore,
)
from repro.core.types import GraphStoreAPI
from repro.datasets.io import load_edge_list
from repro.datasets.presets import ogbn_scaled
from repro.datasets.stream import EdgeStream
from repro.distributed.client import GraphClient
from repro.distributed.partition import (
    HashBySourcePartitioner,
    splitmix64,
    splitmix64_array,
)
from repro.distributed.rpc import NetworkModel
from repro.distributed.server import GraphServer
from repro.errors import ConfigurationError, InvalidWeightError

from tests.conftest import live_edges, stores_equal


class _RefStore(DynamicGraphStore):
    """Samtree store forced onto the generic per-row fallback — the
    reference semantics the bulk paths must match."""

    bulk_load = GraphStoreAPI.bulk_load
    apply_edge_batch = GraphStoreAPI.apply_edge_batch


# ---------------------------------------------------------------------------
# EdgeBatch
# ---------------------------------------------------------------------------
def test_edge_batch_broadcast_and_validation():
    b = EdgeBatch([1, 2], [3, 4])
    assert b.weight.tolist() == [1.0, 1.0]
    assert b.etype.tolist() == [0, 0]
    assert b.is_insert_only
    b2 = EdgeBatch([1], [2], 0.5, 3, OP_DELETE)
    assert not b2.is_insert_only
    with pytest.raises(ConfigurationError):
        EdgeBatch([1, 2], [3])  # length mismatch
    with pytest.raises(InvalidWeightError):
        EdgeBatch([-1], [2])
    with pytest.raises(ConfigurationError):
        EdgeBatch([1], [2], op=7)
    with pytest.raises(InvalidWeightError):
        EdgeBatch([1], [2], weight=-0.5)
    # delete rows don't validate weights (they carry none)
    EdgeBatch([1], [2], weight=-0.5, op=OP_DELETE)


def test_edge_batch_roundtrip_edge_ops():
    from repro.core.ingest import OP_KIND_CODES
    from repro.core.types import EdgeOp

    ops = [
        EdgeOp.insert(1, 2, 0.5, 3),
        EdgeOp.update(4, 5, 1.5),
        EdgeOp.delete(6, 7, 2),
    ]
    batch = EdgeBatch.from_edge_ops(ops)
    kinds = {code: kind for kind, code in OP_KIND_CODES.items()}
    assert [
        EdgeOp(kinds[o], s, d, w, e)
        for s, d, w, e, o in zip(
            batch.src.tolist(), batch.dst.tolist(), batch.weight.tolist(),
            batch.etype.tolist(), batch.op.tolist(),
        )
    ] == ops
    assert batch.payload_nbytes() == 16 + 3 * 23


def test_tree_groups_are_contiguous_and_complete():
    rng = random.Random(3)
    n = 500
    batch = EdgeBatch(
        [rng.randrange(20) for _ in range(n)],
        [rng.randrange(50) for _ in range(n)],
        None,
        [rng.randrange(3) for _ in range(n)],
    ).sorted_by_tree()
    seen = []
    rows = 0
    bounds = batch.tree_bounds().tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        sub = batch.select(slice(a, b))
        etype, src = int(sub.etype[0]), int(sub.src[0])
        assert (sub.src == src).all() and (sub.etype == etype).all()
        # dst-sorted within the group
        assert (np.diff(sub.dst) >= 0).all()
        seen.append((etype, src))
        rows += len(sub)
    assert rows == n
    assert seen == sorted(seen)  # groups in lexsorted order, no repeats
    assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# fold_run: duplicate-key folding == sequential application
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE]),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
)
@settings(max_examples=300)
def test_fold_run_equals_sequential_application(run, preexisting):
    """Folding a duplicate-key run to its net op leaves a one-edge store
    in exactly the state sequential application would."""
    codes = [c for c, _ in run]
    weights = [w for _, w in run]

    def replay(store):
        for c, w in run:
            if c == OP_INSERT:
                store.add_edge(0, 1, w)
            elif c == OP_UPDATE:
                store.update_edge(0, 1, w)
            else:
                store.remove_edge(0, 1)
        return store.edge_weight(0, 1)

    seq = DynamicGraphStore(SamtreeConfig(capacity=4))
    folded = DynamicGraphStore(SamtreeConfig(capacity=4))
    if preexisting:
        seq.add_edge(0, 1, 99.0)
        folded.add_edge(0, 1, 99.0)
    expected = replay(seq)

    net = fold_run(codes, weights)
    if net is not None:
        code, w = net
        if code == OP_INSERT:
            folded.add_edge(0, 1, w)
        elif code == OP_UPDATE:
            folded.update_edge(0, 1, w)
        else:
            folded.remove_edge(0, 1)
    got = folded.edge_weight(0, 1)
    if expected is None:
        assert got is None
    else:
        # Sequential upserts mutate the Fenwick table by deltas, so the
        # stored weight can drift by an ulp vs the single folded write.
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Store-level equivalence
# ---------------------------------------------------------------------------
def _random_batch(rng, n, n_src, n_dst, n_et, weights=(6, 2, 2)):
    return EdgeBatch(
        [rng.randrange(n_src) for _ in range(n)],
        [rng.randrange(n_dst) for _ in range(n)],
        [round(rng.random() * 10, 3) for _ in range(n)],
        [rng.randrange(n_et) for _ in range(n)],
        [
            rng.choices([OP_INSERT, OP_UPDATE, OP_DELETE], weights=weights)[0]
            for _ in range(n)
        ],
    )


def test_apply_edge_batch_equals_per_op_application():
    """Randomized mixed batches across etypes, duplicate keys included:
    bulk and per-op replay converge to identical stores."""
    rng = random.Random(7)
    for trial in range(25):
        cfg = SamtreeConfig(capacity=rng.choice([4, 8, 32]))
        bulk = DynamicGraphStore(cfg)
        ref = _RefStore(cfg)
        for _ in range(rng.randrange(1, 4)):
            batch = _random_batch(
                rng,
                rng.randrange(0, 250),
                rng.choice([3, 10, 40]),
                rng.choice([5, 20, 100]),
                rng.choice([1, 3]),
            )
            sa = bulk.apply_edge_batch(batch)
            sb = ref.apply_edge_batch(batch)
            assert sa.ops == sb.ops == len(batch)
            assert sa.inserted - sa.removed == sb.inserted - sb.removed
        bulk.check_invariants()
        assert stores_equal(bulk, ref), trial
        assert bulk.num_edges == ref.num_edges


def test_bulk_load_equals_add_edge_loop():
    rng = random.Random(21)
    cfg = SamtreeConfig(capacity=32)
    a = DynamicGraphStore(cfg)
    b = DynamicGraphStore(cfg)
    n = 4000
    src = np.asarray([rng.randrange(60) for _ in range(n)])
    dst = np.asarray([rng.randrange(500) for _ in range(n)])
    w = np.round(np.random.default_rng(0).random(n) * 4, 3)
    stats = a.bulk_load(src, dst, w)
    for s, d, ww in zip(src, dst, w):
        b.add_edge(int(s), int(d), float(ww))
    a.check_invariants()
    assert stores_equal(a, b)
    assert stats.ops == n
    assert stats.inserted == a.num_edges == b.num_edges


def test_bulk_load_rejects_mixed_batches():
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    mixed = EdgeBatch([1], [2], 1.0, 0, OP_DELETE)
    with pytest.raises(ConfigurationError):
        store.bulk_load(mixed)


def test_heuristic_routes_both_paths():
    """Large groups rebuild bottom-up; small touch-ups on big trees take
    the PALM incremental path — and both stay correct."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    s1 = store.bulk_load([1] * 200, list(range(200)))
    assert s1.trees_created == 1
    # Small batch against a degree-200 tree -> incremental.
    s2 = store.apply_edge_batch(
        EdgeBatch([1, 1], [5, 500], [3.0, 1.0])
    )
    assert s2.trees_incremental == 1 and s2.trees_rebuilt == 0
    # Big batch relative to the tree -> rebuild.
    assert 200 >= REBUILD_MIN_OPS  # sanity: trips the rebuild heuristic
    s3 = store.apply_edge_batch(
        EdgeBatch([1] * 200, list(range(200)), 2.0)
    )
    assert s3.trees_rebuilt == 1 and s3.trees_incremental == 0
    store.check_invariants()
    assert store.edge_weight(1, 5) == 2.0
    # dst 500 was not in the rebuild batch: the merge keeps it intact.
    assert store.edge_weight(1, 500) == 1.0


def test_delete_batch_empties_tree_and_directory():
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    store.bulk_load([7] * 50, list(range(50)))
    assert store.num_sources == 1
    stats = store.apply_edge_batch(
        EdgeBatch([7] * 50, list(range(50)), None, None, OP_DELETE)
    )
    assert stats.removed == 50
    assert store.num_sources == 0
    assert store.num_edges == 0
    store.check_invariants()
    # The source is re-creatable afterwards.
    store.add_edge(7, 3, 1.0)
    assert store.degree(7) == 1


def test_ingest_stats_merge():
    a = IngestStats(ops=2, inserted=1, trees_created=1)
    b = IngestStats(ops=3, removed=2, trees_rebuilt=1)
    a.merge_from(b)
    assert a.ops == 5 and a.inserted == 1 and a.removed == 2
    assert a.to_dict()["trees_rebuilt"] == 1


# ---------------------------------------------------------------------------
# Distributed write path
# ---------------------------------------------------------------------------
def test_vectorized_partitioner_matches_scalar():
    xs = np.array(
        [0, 1, 2, 5, 123456789, 2**62, 2**63 - 1], dtype=np.uint64
    )
    assert [int(v) for v in splitmix64_array(xs)] == [
        splitmix64(int(v)) for v in xs
    ]
    part = HashBySourcePartitioner(7)
    srcs = np.arange(5000)
    assert part.shards_for_array(srcs).tolist() == [
        part.shard_for(int(s)) for s in srcs
    ]


def test_client_bulk_load_one_columnar_message_per_shard():
    from repro.core.ingest import _HEADER_BYTES, _ROW_BYTES

    rng = random.Random(11)
    net = NetworkModel()
    part = HashBySourcePartitioner(4)
    servers = [
        GraphServer(i, config=SamtreeConfig(capacity=16)) for i in range(4)
    ]
    client = GraphClient(servers, part, network=net)
    local = DynamicGraphStore(SamtreeConfig(capacity=16))

    n = 3000
    src = np.asarray([rng.randrange(200) for _ in range(n)])
    dst = np.asarray([rng.randrange(800) for _ in range(n)])
    w = np.round(np.random.default_rng(1).random(n) * 3, 3)
    stats = client.bulk_load(src, dst, w)
    local.bulk_load(src, dst, w)

    # One columnar message per shard, payload accounted from the arrays.
    assert net.stats.messages == 4
    assert net.stats.payload_bytes == 4 * _HEADER_BYTES + n * _ROW_BYTES
    assert stats.ops == n
    assert client.num_edges == local.num_edges
    for s in range(200):
        assert sorted(client.neighbors(s)) == sorted(local.neighbors(s))
    for server in servers:
        server.store.check_invariants()
        # Columnar ingests count separately from scalar op batches.
        assert server.stats.ingest_requests == 1
        assert server.stats.update_requests == 0
    # Every edge landed on its owning shard.
    for server in servers:
        for etype in (0,):
            for s in server.store.sources(etype):
                assert part.shard_for(s) == server.shard_id


def test_client_mixed_batch_matches_local_store():
    rng = random.Random(29)
    part = HashBySourcePartitioner(3)
    servers = [
        GraphServer(i, config=SamtreeConfig(capacity=8)) for i in range(3)
    ]
    client = GraphClient(servers, part)
    local = DynamicGraphStore(SamtreeConfig(capacity=8))
    for _ in range(4):
        batch = _random_batch(rng, 400, 50, 120, 2)
        client.apply_edge_batch(batch)
        local.apply_edge_batch(batch)
    assert client.num_edges == local.num_edges
    for et in (0, 1):
        for s in range(50):
            assert sorted(client.neighbors(s, et)) == sorted(
                local.neighbors(s, et)
            ), (et, s)


# ---------------------------------------------------------------------------
# Dataset layer: columnar streams, io, workloads
# ---------------------------------------------------------------------------
def test_columnar_stream_matches_scalar_stream():
    data = ogbn_scaled(scale=20000.0)
    a = DynamicGraphStore(SamtreeConfig(capacity=64))
    b = DynamicGraphStore(SamtreeConfig(capacity=64))
    sa, sb = EdgeStream(data, seed=3), EdgeStream(data, seed=3)
    for batch in sa.build_batches_columnar(512):
        a.bulk_load(batch)
    for ops in sb.build_batches(512):
        for op in ops:
            b.apply(op)
    assert stores_equal(a, b)
    assert live_edges(sa) == live_edges(sb)
    # Same seed -> same churn sequence -> same final stores.
    for cb in sa.churn_batches_columnar(100, 4):
        a.apply_edge_batch(cb)
    for ops in sb.churn_batches(100, 4):
        for op in ops:
            b.apply(op)
    a.check_invariants()
    assert stores_equal(a, b)


def test_load_edge_list_bulk_equals_per_op(tmp_path, monkeypatch):
    import repro.datasets.io as edge_io

    monkeypatch.setattr(edge_io, "CHUNK_SIZE", 128)  # several flushes
    rng = random.Random(17)
    path = tmp_path / "edges.tsv"
    rows = [
        (rng.randrange(40), rng.randrange(99), round(rng.random(), 4),
         rng.randrange(2))
        for _ in range(800)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# src dst weight etype\n")
        for row in rows:
            fh.write("\t".join(map(str, row)) + "\n")
    for bidirected in (False, True):
        loaded = DynamicGraphStore(SamtreeConfig(capacity=16))
        ref = DynamicGraphStore(SamtreeConfig(capacity=16))
        for s, d, w, e in rows:
            ref.add_edge(s, d, w, e)
            if bidirected:
                ref.add_edge(d, s, w, e + 8)
        ops = load_edge_list(loaded, path, bidirected=bidirected)
        assert ops == 800 * (1 + bidirected)
        assert stores_equal(loaded, ref)


def test_load_edge_list_malformed_line_leaves_its_chunk_unapplied():
    import io

    store = DynamicGraphStore(SamtreeConfig(capacity=16))
    with pytest.raises(ConfigurationError, match="line 2"):
        load_edge_list(store, io.StringIO("1 2 0.5\n3 x\n"))
    assert store.num_edges == 0


def test_build_store_use_bulk_matches_per_op():
    from repro.bench.workloads import build_store, make_store

    data = ogbn_scaled(scale=20000.0)
    r_bulk = build_store(
        make_store("PlatoD2GL", capacity=64), data, 1024, use_bulk=True
    )
    r_ref = build_store(make_store("PlatoD2GL", capacity=64), data, 1024)
    assert r_bulk.num_ops == r_ref.num_ops
    assert stores_equal(r_bulk.store, r_ref.store)


# ---------------------------------------------------------------------------
# SnapshotCache coherence across bulk mutations
# ---------------------------------------------------------------------------
try:
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None


def _chi2_pvalue(observed, expected):
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if _scipy_stats is not None:
        return float(_scipy_stats.chisquare(observed, expected).pvalue)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    k = len(observed) - 1
    z = ((chi2 / k) ** (1.0 / 3.0) - (1 - 2.0 / (9 * k))) / np.sqrt(
        2.0 / (9 * k)
    )
    from math import erf, sqrt

    return float(0.5 * (1.0 - erf(z / sqrt(2.0))))


def test_bulk_mutations_bump_tree_version():
    """Every bulk entry point advances the samtree epoch — the signal
    the SnapshotCache coherence check relies on."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    store.bulk_load([1] * 40, list(range(40)))
    tree = store.tree(1, 0)
    v0 = tree.version
    # rebuild path
    store.apply_edge_batch(EdgeBatch([1] * 40, list(range(40)), 2.0))
    assert tree.version > v0
    v1 = tree.version
    # incremental path
    store.apply_edge_batch(EdgeBatch([1], [7], 5.0))
    assert tree.version > v1


def test_no_stale_snapshot_across_interleaved_bulk_ingest_and_sampling():
    """Interleave bulk ingestion (rebuild + incremental + delete-all)
    with batched sampling: after every mutation the served snapshot
    reflects the *current* weights exactly, and the final distribution
    passes a chi-square test against the live tree's weights."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    src = 5
    k = 64
    gen = np.random.default_rng(0)

    # Round 1: bulk create, then warm the cache.
    store.bulk_load([src] * 30, list(range(30)), 1.0)
    store.sample_neighbors_many([src] * 4, k, gen)
    assert store.snapshot_cache.stats.misses >= 1

    # Round 2: bulk rebuild shifts all mass onto dst < 10; a stale
    # snapshot would keep sampling dst >= 10.
    store.apply_edge_batch(
        EdgeBatch(
            [src] * 30,
            list(range(30)),
            [100.0 if d < 10 else 1e-9 for d in range(30)],
        )
    )
    rows = store.sample_neighbors_many([src] * 8, k, gen).rows()
    drawn = {int(v) for row in rows for v in row}
    assert drawn and max(drawn) < 10, drawn

    # Round 3: incremental path rewrites one weight to dominate.
    store.apply_edge_batch(EdgeBatch([src], [3], 1e7, None, OP_UPDATE))
    rows = store.sample_neighbors_many([src] * 8, k, gen).rows()
    frac3 = sum(
        1 for row in rows for v in row if int(v) == 3
    ) / (8 * k)
    assert frac3 > 0.9, frac3

    # Round 4: bulk delete-all then re-create must not resurrect the
    # old tree through the cache's peek fast path.
    store.apply_edge_batch(
        EdgeBatch([src] * 30, list(range(30)), None, None, OP_DELETE)
    )
    assert store.sample_neighbors_many([src], k, gen).rows() == [[]]
    store.bulk_load([src] * 5, [100, 200, 300, 400, 500])
    rows = store.sample_neighbors_many([src] * 4, k, gen).rows()
    assert {int(v) for row in rows for v in row} <= {100, 200, 300, 400, 500}

    # Distributional check on the final state.
    weights = {100: 5.0, 200: 1.0, 300: 1.0, 400: 1.0, 500: 2.0}
    store.apply_edge_batch(
        EdgeBatch(
            [src] * 5,
            list(weights),
            list(weights.values()),
        )
    )
    draws = 40_000
    rows = store.sample_neighbors_many([src] * (draws // k), k, gen).rows()
    counts = {d: 0 for d in weights}
    for row in rows:
        for v in row:
            counts[int(v)] += 1
    total_w = sum(weights.values())
    n_draws = sum(counts.values())
    expected = [weights[d] / total_w * n_draws for d in weights]
    p = _chi2_pvalue([counts[d] for d in weights], expected)
    assert p > 0.01, p
    store.check_invariants()
