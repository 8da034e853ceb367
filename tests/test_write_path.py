"""The columnar write path is one pass per batch (DESIGN.md §9).

* the batch-level duplicate fold plus the per-tree walk leave the
  adjacency sequential application leaves (float ``==``) **and** the
  ``IngestStats`` the per-group accounting it replaced produced, over
  all three branches (create / rebuild / incremental, one- and
  multi-leaf trees);
* the segmented leaf builder is byte-identical to one
  ``FSTable.from_array`` / ``CompressedIDList.from_array`` per leaf;
* a sparse batch probes the directory with one batched probe of every
  touched tree's key and marks image rows once;
* a rejected write leaves no empty samtree behind, every write path
  refuses a bad source key with the same typed error, and ``update``
  is a single descent.
"""

from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import CompressedIDList, PlainIDList
from repro.core.fenwick import FSTable
from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    IngestStats,
    fold_run,
)
from repro.core.samtree import OpStats, Samtree, SamtreeConfig, build_roots
from repro.core.snapshot import ReadImage, _Image
from repro.core.topology import (
    REBUILD_DEGREE_RATIO,
    REBUILD_MIN_OPS,
    DynamicGraphStore,
)
from repro.distributed import LocalCluster
from repro.errors import InvalidWeightError, InvariantViolationError, ReproError
from repro.storage.checkpoint import load_store, save_store
from tests.conftest import bulk_tree, tree_batch

CAPACITY = 4


# ---------------------------------------------------------------------------
# (a) batch-level fold == sequential application, same accounting
# ---------------------------------------------------------------------------
def _seed_rows():
    """A multi-leaf tree (0, 0), a one-leaf tree (0, 1), one of each in
    a second relation; sources 2.. start missing."""
    rows = [(0, d, 1.0 + d / 8, 0, OP_INSERT) for d in range(40)]
    rows += [(1, d, 2.0, 0, OP_INSERT) for d in range(3)]
    rows += [(0, d, 0.5, 2, OP_INSERT) for d in range(2)]
    rows += [(1, d, 0.25, 1, OP_INSERT) for d in range(0, 60, 2)]
    return rows


def _apply_to_model(model, rows):
    """Sequential per-op semantics on a dict-of-dicts model."""
    for src, dst, w, etype, op in rows:
        adj = model.setdefault((etype, src), {})
        if op == OP_INSERT:
            adj[dst] = w
        elif op == OP_UPDATE:
            if dst in adj:
                adj[dst] = w
        else:
            adj.pop(dst, None)
        if not adj:
            del model[(etype, src)]


def _per_group_accounting(model, rows):
    """The ``IngestStats`` of the per-tree-group path this pass replaced:
    fold each key's run, then classify the group against the tree the
    batch finds."""
    stats = IngestStats(ops=len(rows))
    groups = {}
    for src, dst, w, etype, op in rows:
        groups.setdefault((etype, src), {}).setdefault(dst, []).append((op, w))
    for key, runs in groups.items():
        nets = {}
        for dst, run in runs.items():
            net = fold_run([o for o, _ in run], [w for _, w in run])
            if net is not None:
                nets[dst] = net[0]
        if not nets:
            continue
        adj = model.get(key)
        if adj is None:
            fresh = sum(1 for code in nets.values() if code == OP_INSERT)
            if fresh:
                stats.trees_created += 1
                stats.inserted += fresh
            continue
        m = len(nets)
        if m >= REBUILD_MIN_OPS and m * REBUILD_DEGREE_RATIO >= len(adj):
            stats.trees_rebuilt += 1
        else:
            stats.trees_incremental += 1
        for dst, code in nets.items():
            if code == OP_INSERT and dst not in adj:
                stats.inserted += 1
            elif code == OP_DELETE and dst in adj:
                stats.removed += 1
    return stats


def _check_batches(batches):
    store = DynamicGraphStore(SamtreeConfig(capacity=CAPACITY))
    model = {}
    for rows in [_seed_rows()] + batches:
        expected = _per_group_accounting(model, rows)
        columns = list(zip(*rows)) or [[]] * 5
        got = store.apply_edge_batch(EdgeBatch(*columns))
        _apply_to_model(model, rows)
        assert got.to_dict() == expected.to_dict()
        store.check_invariants()
        assert {k: dict(t.items()) for k, t in store.iter_trees()} == model
        assert store.num_edges == sum(map(len, model.values()))
    return store


ROW = st.tuples(
    st.integers(0, 4),  # src
    st.integers(0, 23),  # dst: few keys, so runs of duplicates are long
    st.integers(0, 63).map(lambda i: i / 8.0),
    st.integers(0, 2),  # etype
    st.sampled_from([OP_INSERT, OP_INSERT, OP_UPDATE, OP_DELETE]),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(ROW, max_size=120), min_size=1, max_size=3))
def test_fold_and_walk_equal_sequential_application(batches):
    _check_batches(batches)


def test_pinned_batch_reaches_every_branch():
    """Create, rebuild, and incremental on a one-leaf and on a
    multi-leaf tree in one duplicate-heavy batch (pinned: Hypothesis
    does not promise which examples it draws)."""
    rng = random.Random(5)
    rows = []
    for _ in range(3):  # every key three times, mixed ops
        rows += [(3, d, rng.randrange(64) / 8, 0, rng.choice([0, 1, 2]))
                 for d in range(6)]                       # create
        rows += [(1, d, rng.randrange(64) / 8, 0, rng.choice([0, 1, 2]))
                 for d in range(20)]                      # rebuild (deg 3)
        rows += [(1, 0, 1.5, 0, OP_INSERT),
                 (0, 7, 0.0, 0, OP_DELETE), (0, 99, 3.0, 0, OP_INSERT),
                 (0, 7, 2.5, 0, OP_UPDATE)]               # multi-leaf touch-up
        rows += [(0, 1, 4.0, 2, OP_UPDATE), (0, 5, 1.0, 2, OP_INSERT)]  # leaf
        rows += [(4, 1, 1.0, 0, OP_UPDATE)]               # missing, no insert
    rows.append((3, 0, 1.0, 0, OP_INSERT))
    store = _check_batches([rows])
    total = store.ingest_stats
    assert total.trees_created == 4 + 1   # the seed's four trees + (0, 3)
    assert total.trees_rebuilt == 1
    assert total.trees_incremental == 2
    assert store.tree(0, 0).height > 1 and store.tree(0, 2).height == 1
    assert store.tree(4, 0) is None


def test_one_op_groups_take_every_kind_on_both_tree_shapes():
    rows = [(0, 7, 9.0, 0, OP_UPDATE), (1, 1, 0.0, 0, OP_DELETE),
            (0, 5, 4.0, 2, OP_INSERT), (1, 7, 1.0, 1, OP_INSERT),
            (2, 2, 1.0, 0, OP_DELETE)]
    store = _check_batches([rows])
    assert store.ingest_stats.trees_incremental == 4


# ---------------------------------------------------------------------------
# (b) the segmented builder, byte for byte
# ---------------------------------------------------------------------------
#: Widest-to-narrowest ID spread of a leaf: CP-ID prefix 7, 6, 4, 0 bytes.
SPREADS = {7: 1 << 8, 6: 1 << 16, 4: 1 << 32, 0: 1 << 62}


@pytest.mark.parametrize("compress", [True, False])
def test_segmented_builder_is_byte_identical_to_per_leaf_from_array(compress):
    capacity = 8
    config = SamtreeConfig(capacity=capacity, compress=compress)
    rng = np.random.default_rng(11)
    id_cols, lengths = [], []
    for z, spread in SPREADS.items():
        for n in range(1, 3 * capacity + 1):
            # Distinct ascending offsets below `spread`, the last one in
            # its top half: a segment that is one leaf has prefix `z`.
            offsets = sorted(rng.choice(
                min(spread // 2, 1 << 20), size=n, replace=False
            ).tolist())
            if n > 1:
                offsets[-1] += spread // 2
            base = int(rng.integers(1, 100)) * spread if z else 0
            id_cols.append([base + o for o in offsets])
            lengths.append(n)
    ids = np.asarray(sum(id_cols, []), dtype=np.int64)
    weights = rng.random(ids.size) * 7.0
    seen_z = set()
    a = 0
    built = list(build_roots(config, ids, weights, lengths))
    assert len(built) == len(lengths)
    for n, (root, size) in zip(lengths, built):
        tree = Samtree._over(config, OpStats(), root, size)
        tree.check_invariants()
        assert tree.degree == n and tree.version == 1
        leaves = list(tree._leaves())
        # An internal node's first separator is the open lower bound.
        keys = [ids[a]] if root.is_leaf else [ids[a]] + root.keys[1:]
        assert root.is_leaf or root.keys[0] == 0
        target = max(1, min(capacity, int(round(capacity * 0.75))))
        bounds = Samtree._level_bounds(
            n, target, capacity, config.leaf_min_fill
        )
        assert len(leaves) == len(keys) == len(bounds) - 1
        for leaf, key, lo, hi in zip(leaves, keys, bounds, bounds[1:]):
            seg_ids, seg_w = ids[a + lo : a + hi], weights[a + lo : a + hi]
            table = FSTable.from_array(seg_w)
            assert leaf.fstable._tree == table._tree
            assert leaf.fstable._weights == table._weights
            assert type(leaf.fstable._weights) is type(table._weights)
            assert key == seg_ids[0]
            if compress:
                ref = CompressedIDList.from_array(seg_ids)
                for slot in CompressedIDList.__slots__:
                    assert getattr(leaf.ids, slot) == getattr(ref, slot), slot
                assert type(leaf.ids._suffixes) is bytearray
                seen_z.add(ref._z)
            else:
                assert type(leaf.ids) is PlainIDList
                assert leaf.ids._ids == PlainIDList.from_array(seg_ids)._ids
        a += n
    if compress:
        assert seen_z == set(SPREADS)


def test_bulk_built_tree_takes_ids_below_its_first_leaf():
    """The builder leaves the leftmost separator of every level open
    (``_MIN_KEY``), as an insert-built tree does: ids below the first
    leaf's smallest split that leaf without a stale-high separator."""
    store = DynamicGraphStore(SamtreeConfig(capacity=4))
    store.bulk_load([0] * 20, list(range(10, 30)))
    assert store.tree(0).height > 1
    store.add_edge(0, 7)
    store.add_edge(0, 1)  # splits the first leaf: separator 10 must not stay
    store.check_invariants()
    rng = random.Random(0)
    for capacity in (4, 5, 8):
        tree = bulk_tree(
            range(1000, 1400, 2), None, SamtreeConfig(capacity=capacity)
        )
        for _ in range(300):
            tree.insert(rng.randrange(1000), 1.0)
            tree.delete(rng.randrange(1000, 1400))
        tree.check_invariants()


def test_segmented_builder_handles_empty_segments_and_trees_stay_usable():
    config = SamtreeConfig(capacity=4)
    ids = np.asarray([3, 9, 1, 2, 3, 4, 5, 6, 7], dtype=np.int64)
    built = list(build_roots(config, ids, np.ones(9), [2, 0, 7]))
    assert [size for _, size in built] == [2, 0, 7]
    tree = Samtree._over(config, OpStats(), *built[2])
    tree.check_invariants()
    assert tree.degree == 7 and tree.version == 1 and tree.height == 2
    assert len(list(tree._leaves())) == 3
    tree.insert(100, 2.0)
    assert tree.delete(1) and tree.to_dict()[100] == 2.0
    tree.check_invariants()
    empty = Samtree(config)
    empty._replace(*built[1])
    assert not empty and empty.height == 1
    empty.check_invariants()


# ---------------------------------------------------------------------------
# (c) work counts
# ---------------------------------------------------------------------------
def test_sparse_batch_probes_once_per_tree_and_marks_rows_once(monkeypatch):
    rng = np.random.default_rng(3)
    sources = 20_000
    store = DynamicGraphStore()
    src = np.repeat(np.arange(sources), 2)
    store.bulk_load(src, rng.integers(0, sources, src.size), 1.0)
    store.sample_neighbors_many(np.arange(200), 2, rng)  # the image has rows
    n = 4_000
    batch = EdgeBatch(
        rng.integers(0, sources + 50, n),  # a few missing trees as well
        rng.integers(0, sources, n),
        rng.integers(1, 64, n) / 8.0,
        None,
        rng.choice([OP_INSERT, OP_UPDATE, OP_DELETE], n, p=[0.5, 0.3, 0.2]),
    )
    touched = len(set(zip(batch.etype.tolist(), batch.src.tolist())))
    assert touched > 0.85 * n  # sparse: about one op per tree

    calls = {"get": 0, "get_many": 0, "mark_batch": 0, "mark": 0}
    probed = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    directory = store.directory
    directory.get = counted("get", directory.get)
    get_many = directory.get_many
    directory.get_many = counted(
        "get_many", lambda keys: probed.extend(keys) or get_many(keys)
    )
    monkeypatch.setattr(
        ReadImage, "mark_batch", counted("mark_batch", ReadImage.mark_batch)
    )
    monkeypatch.setattr(_Image, "mark", counted("mark", _Image.mark))

    stats = store.apply_edge_batch(batch)

    # One batched probe whose keys are each touched tree once; no scalar get.
    assert calls == {"get": 0, "get_many": 1, "mark_batch": 1, "mark": 0}
    assert len(probed) == touched
    assert set(probed) == set(zip(batch.etype.tolist(), batch.src.tolist()))
    assert stats.trees_created > 0 and stats.trees_incremental > 0
    del directory.get, directory.get_many
    store.check_invariants()  # every written image row is dirty, none stale


# ---------------------------------------------------------------------------
# rejected writes, single-descent update
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("write", [
    lambda s: s.add_edge(7, 1, -1.0),
    lambda s: s.add_edge(7, -1, 1.0),
    lambda s: s.accumulate_edge(7, 1, float("inf")),
    lambda s: s.apply_source_batch(7, 0, [("insert", 1, float("nan"))]),
    lambda s: s.apply_source_batch(
        7, 0, [("insert", 1, 1.0), ("insert", -2, 1.0)]
    ),
])
def test_rejected_write_leaves_no_empty_tree(write):
    store = DynamicGraphStore()
    with pytest.raises(InvalidWeightError):
        write(store)
    assert store.num_sources == 0 and store.num_edges == 0
    assert list(store.sources()) == []
    assert store.sample_vertices(3, random.Random(0)) == []
    store.check_invariants()
    store.add_edge(7, 1, 2.0)  # and the source is still writable
    assert store.neighbors(7) == [(1, 2.0)]


#: Source keys no path may create: a negative source, an etype past the
#: int16 column the WAL and checkpoints store (either side).
BAD_KEYS = [(-1, 0), (5, 70000), (5, -(2**15) - 1)]
KEY_WRITES = {
    "add_edge": lambda w, src, et: w.add_edge(src, 2, 1.0, et),
    "accumulate_edge": lambda w, src, et: w.accumulate_edge(src, 2, 1.0, et),
    "apply_source_batch": lambda w, src, et: w.apply_source_batch(
        src, et, [("insert", 2, 1.0)]
    ),
    "EdgeBatch": lambda w, src, et: w.apply_edge_batch(
        EdgeBatch([src], [2], 1.0, et)
    ),
    # numpy casts an int64 column to int16 without a word.
    "EdgeBatch columns": lambda w, src, et: w.apply_edge_batch(
        EdgeBatch(np.array([src]), np.array([2]), None, np.array([et]))
    ),
    "durable client": lambda w, src, et: w.add_edge(src, 2, 1.0, et),
}


@pytest.mark.parametrize("src,etype", BAD_KEYS)
@pytest.mark.parametrize("entry", sorted(KEY_WRITES))
def test_every_write_path_refuses_a_bad_key_with_a_typed_error(
    entry, src, etype, tmp_path
):
    """One key contract on every path: before, a store took the key and
    the next ``save_store`` wrote a snapshot ``load_store`` refused, and
    the durable tier raised a bare ``OverflowError``."""
    if entry == "durable client":
        cluster = LocalCluster(num_servers=2, durable=True, wal_dir=str(tmp_path))
        writer, stores = cluster.client, [s.store for s in cluster.servers]
    else:
        writer = DynamicGraphStore(SamtreeConfig(capacity=CAPACITY))
        stores = [writer]
    with pytest.raises(ReproError):
        KEY_WRITES[entry](writer, src, etype)
    assert all(len(s.directory) == 0 and s.num_edges == 0 for s in stores)
    KEY_WRITES[entry](writer, 5, 3)  # a good key still goes in ...
    if entry == "durable client":
        assert sum(len(list(s.wal.replay())) for s in cluster.servers) == 1
        cluster.checkpoint_all()
        shard = next(i for i, s in enumerate(cluster.servers) if s.store.num_edges)
        cluster.crash(shard)
        cluster.recover(shard)
        assert writer.neighbors(5, 3) == [(2, 1.0)]
        for server in cluster.servers:
            server.wal.close()
    else:  # ... and the store round-trips through a snapshot
        buf = io.BytesIO()
        save_store(writer, buf)
        buf.seek(0)
        assert load_store(buf).neighbors(5, 3) == [(2, 1.0)]


def test_rejected_tree_batch_applies_nothing():
    tree = Samtree(SamtreeConfig(capacity=4))
    tree_batch(tree, [("insert", v, 1.0) for v in range(3)])
    version = tree.version
    with pytest.raises(InvalidWeightError):
        tree_batch(
            tree,
            [("insert", v, 1.0) for v in range(3, 9)] + [("update", 0, -1.0)]
        )
    assert tree.version == version and tree.to_dict() == {0: 1.0, 1: 1.0, 2: 1.0}
    tree.check_invariants()


def test_check_invariants_rejects_an_empty_tree_in_the_directory():
    store = DynamicGraphStore()
    store.add_edge(1, 2, 1.0)
    store.directory.put((0, 9), Samtree(store.config, stats=store.stats))
    with pytest.raises(InvariantViolationError, match="empty samtree"):
        store.check_invariants()


def test_samtree_update_is_one_descent(monkeypatch):
    tree = Samtree(SamtreeConfig(capacity=4))
    for v in range(30):
        tree.insert(v, 1.0)
    assert tree.height > 1
    descents = []
    real = Samtree._descend
    monkeypatch.setattr(
        Samtree, "_descend",
        lambda self, v: descents.append(v) or real(self, v),
    )
    version, ops = tree.version, tree.stats.leaf_ops
    assert tree.update(17, 3.5) is True
    assert descents == [17]
    assert tree.get_weight(17) == 3.5 and tree.total_weight == 32.5
    assert tree.version == version + 1 and tree.stats.leaf_ops == ops + 1
    assert tree.update(99, 2.0) is False
    assert tree.version == version + 1 and tree.degree == 30
    with pytest.raises(InvalidWeightError):
        tree.update(17, float("nan"))
    monkeypatch.undo()
    tree.check_invariants()

    store = DynamicGraphStore(SamtreeConfig(capacity=4))
    store.bulk_load([1] * 30, list(range(30)))
    monkeypatch.setattr(
        Samtree, "_descend",
        lambda self, v: descents.append(v) or real(self, v),
    )
    del descents[:]
    assert store.update_edge(1, 4, 2.0) is True
    assert store.update_edge(1, 77, 2.0) is False
    assert store.update_edge(2, 4, 2.0) is False
    assert descents == [4, 77]
