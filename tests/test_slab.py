"""The slab: small sources as rows, promoted to samtrees past ``c``.

(a) differential against a tree-only reference store (the write path as
it was before the slab, over bare ``Samtree``s), (b) the boundaries of
the row life cycle and of the round kernel, (c) rejected writes, (d) the
three samplers of one adjacency are one distribution, (e) work counts,
(g) checkpoints whichever mix of rows and trees holds the store, and the
threaded PALM path over rows that grow, relocate and promote.
"""

from __future__ import annotations

import io
import os
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency.palm import PalmExecutor
from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    IngestStats,
)
from repro.core.samtree import OpStats, Samtree, SamtreeConfig, build_roots
from repro.core.slab import ROUND_PAD, ROW_MIN_ROOM, Slab
from repro.core.topology import (
    KERNEL_MIN_GROUPS,
    REBUILD_DEGREE_RATIO,
    REBUILD_MIN_OPS,
    DynamicGraphStore,
)
from repro.core.tree_batch import apply_tree_codes
from repro.core.types import EdgeOp
from repro.errors import (
    ConfigurationError,
    InvalidWeightError,
    InvariantViolationError,
)
from repro.storage.checkpoint import load_store, save_store
from repro.storage.wal import ShardWAL
from tests.conftest import bulk_tree, tree_batch

try:
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None

DATA = os.path.join(os.path.dirname(__file__), "data")


def _is_row(store, src, etype=0):
    return type(store.directory.get((etype, src))) is int


def _adjacency(store):
    return {
        (etype, src): store.neighbors(src, etype)
        for etype in store.etypes() for src in store.sources(etype)
    }


# ---------------------------------------------------------------------------
# (a) the tree-only reference: the parent commit's write path
# ---------------------------------------------------------------------------
class TreeOnlyStore:
    """One bare ``Samtree`` per source, written the way the store wrote
    before the slab: scalar ops descend, a columnar batch is folded,
    then a missing source is bulk-built, a dense group rebuilt, a
    one-op group is the scalar op and the rest take the leaf-local
    batch."""

    def __init__(self, config):
        self.config = config
        self.stats = OpStats()
        self.trees = {}
        self.num_edges = 0

    def neighbors(self, key):
        return list(self.trees[key].items())

    def _drop_if_empty(self, key):
        if not self.trees[key]:
            del self.trees[key]

    def write(self, key, code, dst, weight, add=False):
        tree = self.trees.get(key)
        if code == OP_INSERT:
            if tree is None:
                tree = self.trees[key] = Samtree(self.config, self.stats)
            done = tree._upsert(dst, weight, add)
            self.num_edges += done
        elif tree is None:
            return False
        elif code == OP_UPDATE:
            done = tree.update(dst, weight)
        else:
            done = tree.delete(dst)
            self.num_edges -= done
            self._drop_if_empty(key)
        return done

    def apply_source_batch(self, key, ops):
        tree = self.trees.get(key)
        if tree is None:
            if not any(kind == "insert" for kind, _, _ in ops):
                return [False] * len(ops)
            tree = self.trees[key] = Samtree(self.config, self.stats)
        before = tree.degree
        out = tree_batch(tree, ops)
        self.num_edges += tree.degree - before
        self._drop_if_empty(key)
        return out

    def apply_edge_batch(self, batch):
        stats = IngestStats(ops=len(batch))
        batch = batch.folded_by_tree()
        bounds = batch.tree_bounds().tolist()
        dsts, codes, weights = (
            batch.dst.tolist(), batch.op.tolist(), batch.weight.tolist()
        )
        for a, b in zip(bounds, bounds[1:]):
            key = (int(batch.etype[a]), int(batch.src[a]))
            tree = self.trees.get(key)
            group = list(zip(dsts[a:b], codes[a:b], weights[a:b]))
            if tree is None:
                new = [(d, w) for d, c, w in group if c == OP_INSERT]
                if new:
                    ids, ws = zip(*new)
                    self.trees[key] = bulk_tree(ids, ws, self.config, self.stats)
                    stats.inserted += len(new)
                continue
            before, gone = tree.degree, 0
            m = b - a
            if m >= REBUILD_MIN_OPS and m * REBUILD_DEGREE_RATIO >= before:
                merged = tree.to_dict()
                for d, c, w in group:
                    if c == OP_INSERT:
                        merged[d] = w
                    elif c == OP_UPDATE:
                        if d in merged:
                            merged[d] = w
                    elif merged.pop(d, None) is not None:
                        gone += 1
                ids = sorted(merged)
                (built,) = build_roots(
                    self.config, np.asarray(ids, dtype=np.int64),
                    np.asarray([merged[i] for i in ids], dtype=np.float64),
                    [len(ids)],
                )
                tree._replace(*built)
            elif m == 1:
                ((d, c, w),) = group
                if c == OP_INSERT:
                    tree.insert(d, w)
                elif c == OP_UPDATE:
                    tree.update(d, w)
                else:
                    gone = tree.delete(d)
            else:
                done = apply_tree_codes(tree, dsts[a:b], codes[a:b], weights[a:b])
                gone = sum(ok for ok, c in zip(done, codes[a:b]) if c == OP_DELETE)
            stats.inserted += tree.degree - before + gone
            stats.removed += gone
            self._drop_if_empty(key)
        self.num_edges += stats.inserted - stats.removed
        return stats


_KIND = {OP_INSERT: "insert", OP_UPDATE: "update", OP_DELETE: "delete"}


def _stream(rng, capacity, steps, sources, dsts, dense):
    """A mixed op stream: scalar ops, ``accumulate_edge``, per-source
    batches, sparse columnar batches with duplicate keys over two
    relations, deletes to empty with re-insert, and (``dense``) groups
    that take the rebuild branch."""
    def op():
        return rng.choice([OP_INSERT, OP_INSERT, OP_UPDATE, OP_DELETE])

    def w():
        return rng.randrange(64) / 8.0

    for _ in range(steps):
        kind = rng.random()
        key = (rng.randrange(2), rng.randrange(sources))
        if kind < 0.35:
            yield "scalar", key, op(), rng.randrange(dsts), w()
        elif kind < 0.45:
            yield "accumulate", key, OP_INSERT, rng.randrange(dsts), w()
        elif kind < 0.55:
            yield "source_batch", key, [
                (_KIND[op()], rng.randrange(dsts), w())
                for _ in range(rng.randrange(1, 7))
            ]
        elif kind < 0.6:  # delete a source to empty, then re-insert
            yield "empty", key
        elif kind < 0.95 or not dense:
            n = rng.choice([3, 40, 400])
            yield "batch", [
                (rng.randrange(sources), rng.randrange(dsts), w(),
                 rng.randrange(2), op())
                for _ in range(n)
            ]
        else:
            src = rng.randrange(sources)
            yield "batch", [
                (src, rng.randrange(dsts), w(), 0, op())
                for _ in range(REBUILD_MIN_OPS + 2 * capacity)
            ]


def _run_both(capacity, seed, dsts, dense):
    rng = random.Random(seed)
    config = SamtreeConfig(capacity=capacity)
    store, ref = DynamicGraphStore(config), TreeOnlyStore(config)
    for step in _stream(rng, capacity, 250, 60, dsts, dense):
        what = step[0]
        if what in ("scalar", "accumulate"):
            _, (etype, src), code, dst, weight = step
            add = what == "accumulate"
            fn = {
                OP_INSERT: store.accumulate_edge if add else store.add_edge,
                OP_UPDATE: store.update_edge,
            }.get(code)
            got = (
                store.remove_edge(src, dst, etype) if fn is None
                else fn(src, dst, weight, etype)
            )
            assert got == ref.write((etype, src), code, dst, weight, add)
        elif what == "source_batch":
            _, (etype, src), ops = step
            assert store.apply_source_batch(src, etype, ops) == (
                ref.apply_source_batch((etype, src), ops)
            )
        elif what == "empty":
            _, (etype, src) = step
            for dst, _ in store.neighbors(src, etype):
                assert store.remove_edge(src, dst, etype)
                assert ref.write((etype, src), OP_DELETE, dst, 0.0)
            assert store.tree(src, etype) is None
            store.add_edge(src, 1, 2.5, etype)
            ref.write((etype, src), OP_INSERT, 1, 2.5)
        else:
            batch = EdgeBatch(*zip(*step[1]))
            got, want = store.apply_edge_batch(batch), ref.apply_edge_batch(batch)
            assert (got.inserted, got.removed) == (want.inserted, want.removed)
        assert store.num_edges == ref.num_edges
    store.check_invariants()
    return store, ref


@pytest.mark.parametrize("capacity", [4, 8, 32, 256])
def test_differential_against_tree_only_store(capacity):
    """Any stream, dense groups included: same adjacency, same edge
    count, same ``IngestStats`` — and every source that is a slab row
    holds its neighbours in the one-leaf samtree's order."""
    for seed in range(3):
        store, ref = _run_both(capacity, seed, dsts=3 * capacity, dense=True)
        got = _adjacency(store)
        assert got.keys() == ref.trees.keys()
        rows = 0
        for key, adj in got.items():
            assert dict(adj) == ref.trees[key].to_dict()
            assert (len(adj) > capacity) <= (not _is_row(store, key[1], key[0]))
            if _is_row(store, key[1], key[0]):
                rows += 1
                assert adj == ref.neighbors(key)
        assert capacity < 8 or rows


@pytest.mark.parametrize("capacity", [4, 8, 32, 256])
def test_rows_that_never_outgrow_c_match_the_tree_in_order_and_leaf_ops(capacity):
    """Scalar ops and sparse batches over a universe no source can
    outgrow ``c`` in: ``neighbors()`` lists and ``OpStats.leaf_ops``
    equal the tree-only store's — append + swap-delete is the leaf's own
    discipline, and the round kernel counts what the leaf loop counts."""
    for seed in range(3):
        store, ref = _run_both(capacity, seed, dsts=capacity, dense=False)
        assert all(type(v) is int for v in store.directory.values())
        assert {k: v for k, v in _adjacency(store).items()} == {
            k: ref.neighbors(k) for k in ref.trees
        }
        assert store.stats.leaf_ops == ref.stats.leaf_ops
        assert store.stats.to_dict() == ref.stats.to_dict()


# ---------------------------------------------------------------------------
# (b) boundaries
# ---------------------------------------------------------------------------
def test_row_at_c_then_the_insert_that_promotes_it():
    c = 8
    store = DynamicGraphStore(SamtreeConfig(capacity=c))
    for dst in range(c):
        store.add_edge(1, 10 * dst, 1.0 + dst)
    assert _is_row(store, 1) and store.degree(1) == c
    view = store.tree(1)
    assert (view.degree, view.height, view.get_weight(20)) == (c, 1, 3.0)
    assert view.total_weight == sum(1.0 + d for d in range(c))
    version = view.version
    assert not store.add_edge(1, 30, 9.0)  # an upsert of a held id: no promotion
    assert _is_row(store, 1)
    store.sample_neighbors_many([1], 2, 0)
    assert store.add_edge(1, 5, 0.5)  # the c + 1'th: promoted, then split
    tree = store.tree(1)
    assert isinstance(tree, Samtree) and tree.height == 2
    assert tree.version > version + 1  # version holders see it move on
    assert store.slab.live_rows().size == 0 and store.slab.free
    store.check_invariants()
    for dst in range(c):  # never demoted ...
        store.remove_edge(1, 10 * dst)
    assert isinstance(store.tree(1), Samtree) and store.degree(1) == 1
    store.remove_edge(1, 5)  # ... and gone with its last edge
    assert store.tree(1) is None and store.num_sources == 0
    store.add_edge(1, 2, 1.0)  # a re-created source is a row again
    assert _is_row(store, 1)
    store.check_invariants()


def _grouped_batch(sources, ops_of):
    rows = [
        (src, dst, w, 0, code)
        for src in sources for dst, code, w in ops_of(src)
    ]
    return EdgeBatch(*zip(*rows))


def test_round_that_promotes_or_empties_a_row_with_rounds_left():
    """Enough groups for the kernel; in round 1 one group's insert finds
    its row at ``c`` (promotion) and another's delete takes its row's
    last edge, with rounds 2.. still to run on both."""
    c = 4
    store = DynamicGraphStore(SamtreeConfig(capacity=c))
    sources = list(range(2 * KERNEL_MIN_GROUPS))
    store.bulk_load(
        np.repeat(sources, c - 1), np.tile(np.arange(c - 1) * 2, len(sources))
    )
    store.bulk_load([500], [7])  # a one-edge row
    model = {src: {d: 1.0 for d in range(0, 2 * (c - 1), 2)} for src in sources}
    model[500] = {7: 1.0}

    def ops_of(src):
        if src == 0:  # fills to c, promotes, keeps writing to the tree
            return [(1, OP_INSERT, 2.0), (3, OP_INSERT, 3.0),
                    (5, OP_INSERT, 4.0), (9, OP_DELETE, 0.0), (11, OP_INSERT, 5.0)]
        if src == 500:  # emptied in round 1, re-created in round 2
            return [(3, OP_UPDATE, 1.0), (7, OP_DELETE, 0.0),
                    (8, OP_INSERT, 6.0), (9, OP_INSERT, 7.0)]
        return [(0, OP_UPDATE, 0.5), (1, OP_INSERT, 1.5), (2, OP_DELETE, 0.0)]

    batch = _grouped_batch(sources + [500], ops_of)
    stats = store.apply_edge_batch(batch)
    for src in sources + [500]:
        for dst, code, w in ops_of(src):
            adj = model[src]
            if code == OP_INSERT or (code == OP_UPDATE and dst in adj):
                adj[dst] = w
            elif code == OP_DELETE:
                adj.pop(dst, None)
    assert {s: dict(store.neighbors(s)) for s in model} == model
    assert isinstance(store.tree(0), Samtree) and _is_row(store, 500)
    assert all(_is_row(store, s) for s in sources[1:])
    assert stats.trees_incremental == len(sources) + 1
    assert store.num_edges == sum(map(len, model.values()))
    store.check_invariants()


def test_row_relocated_in_the_batch_that_deletes_from_it():
    store = DynamicGraphStore(SamtreeConfig(capacity=64))
    sources = list(range(2 * KERNEL_MIN_GROUPS))
    store.bulk_load(
        np.repeat(sources, ROW_MIN_ROOM),
        np.tile(np.arange(ROW_MIN_ROOM) * 2, len(sources)),
    )
    starts = {s: int(store.slab.start[store.directory.get((0, s))]) for s in sources}
    batch = _grouped_batch(sources, lambda src: [
        (1, OP_INSERT, 2.0),   # the row is full: grows, relocates
        (4, OP_DELETE, 0.0),   # ... and is deleted from where it went
        (5, OP_INSERT, 3.0),
    ])
    store.apply_edge_batch(batch)
    want = [(0, 1.0), (2, 1.0), (1, 2.0), (6, 1.0), (8, 1.0), (10, 1.0),
            (12, 1.0), (14, 1.0), (5, 3.0)]
    for src in sources:
        row = store.directory.get((0, src))
        assert int(store.slab.start[row]) != starts[src]
        assert store.slab.room[row] == 2 * ROW_MIN_ROOM
        assert sorted(store.neighbors(src)) == sorted(want)
    assert store.slab.garbage == ROW_MIN_ROOM * len(sources)
    store.check_invariants()


@pytest.mark.parametrize("length", [1, ROUND_PAD - 1, ROUND_PAD, ROUND_PAD + 1])
def test_rows_at_each_pad_boundary(length):
    """Rows at, just inside and past the kernel's pad take the same ops
    to the same state (a longer row falls to the scalar op)."""
    store = DynamicGraphStore(SamtreeConfig(capacity=256))
    sources = list(range(2 * KERNEL_MIN_GROUPS))
    store.bulk_load(
        np.repeat(sources, length), np.tile(np.arange(length) * 3, len(sources))
    )
    last = 3 * (length - 1)
    batch = _grouped_batch(sources, lambda src: [
        (last, OP_UPDATE, 4.0), (last + 1, OP_INSERT, 5.0),
    ] + ([(0, OP_DELETE, 0.0)] if length > 1 else []))
    store.apply_edge_batch(batch)
    want = {3 * i: 1.0 for i in range(length)}
    want.update({last: 4.0, last + 1: 5.0})
    if length > 1:
        del want[0]
    for src in sources:
        assert dict(store.neighbors(src)) == want
    store.check_invariants()


def test_arena_compacts_and_free_rows_are_reused():
    store = DynamicGraphStore(SamtreeConfig(capacity=64))
    slab = store.slab
    for src in range(400):
        for dst in range(17):  # two relocations each: 8 + 16 slots of garbage
            store.add_edge(src, dst, 1.0)
    assert slab.used < 400 * (8 + 16 + 32)  # compacted on the way
    slab.settle()
    assert slab.garbage * 2 <= slab.used - slab.garbage
    for src in range(0, 400, 2):
        for dst in range(17):
            store.remove_edge(src, dst)
    assert len(slab.free) == 200
    rows = slab.rows
    store.bulk_load(np.arange(1000, 1300), np.arange(300), 1.0)
    assert slab.rows == rows + 100 and not slab.free  # 200 reused first
    store.check_invariants()
    slab.compact()
    assert slab.garbage == 0
    store.check_invariants()
    assert store.num_edges == 200 * 17 + 300


# ---------------------------------------------------------------------------
# (c) rejected writes
# ---------------------------------------------------------------------------
BAD = [(1, float("nan")), (1, -1.0), (1, float("inf")), (-3, 1.0), (2**64, 1.0)]
WRITES = {
    "add_edge": lambda s, d, w: s.add_edge(7, d, w),
    "accumulate_edge": lambda s, d, w: s.accumulate_edge(7, d, w),
    "update_edge": lambda s, d, w: s.update_edge(7, d, w),
    "apply_source_batch": lambda s, d, w: s.apply_source_batch(
        7, 0, [("insert", 5, 1.0), ("insert", d, w)]
    ),
    "apply_edge_batch": lambda s, d, w: s.apply_edge_batch(
        EdgeBatch([7, 7], [5, d], [1.0, w])
    ),
}


@pytest.mark.parametrize("dst,weight", BAD)
@pytest.mark.parametrize("entry", sorted(WRITES))
def test_rejected_write_leaves_no_row_and_no_directory_entry(entry, dst, weight):
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    if entry != "update_edge":  # an update of a missing source is a no-op
        with pytest.raises((InvalidWeightError, OverflowError)):
            WRITES[entry](store, dst, weight)
    assert store.num_sources == 0 and store.num_edges == 0
    assert store.slab.rows == 1 and store.slab.used == 0
    store.add_edge(7, 3, 2.0)  # ... and as a later edge, the row untouched
    before = (store.neighbors(7), store.tree(7).version, store.slab.used)
    with pytest.raises((InvalidWeightError, OverflowError)):
        WRITES[entry](store, dst, weight)
    assert (store.neighbors(7), store.tree(7).version, store.slab.used) == before
    assert store.num_edges == 1
    store.check_invariants()


@pytest.mark.parametrize("entry", ["add_edge", "accumulate_edge", "apply_source_batch"])
def test_an_id_past_int64_makes_the_source_a_samtree(entry):
    """The store takes the samtree's 64-bit ids whichever form a source
    has: one the ``int64`` columns cannot hold — a neighbour's or the
    source's own — moves the source to a tree instead of being refused."""
    wide = 2**64 - 1
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    store.add_edge(7, 3, 2.0)
    assert _is_row(store, 7)
    version = store.tree(7).version
    WRITES[entry](store, wide, 1.5)  # on a row: promoted
    assert isinstance(store.tree(7), Samtree) and store.tree(7).version > version
    assert store.edge_weight(7, wide) == 1.5 and store.edge_weight(7, 3) == 2.0
    WRITES[entry](store, 2**63, 0.5)  # ... and on the tree, as before
    other = DynamicGraphStore(SamtreeConfig(capacity=8))
    WRITES[entry](other, wide, 1.5)  # as a first edge: a tree from the start
    assert isinstance(other.tree(7), Samtree) and not other.slab.live_rows().size
    assert dict(other.neighbors(7)).get(wide) == 1.5
    other.add_edge(wide, 1, 1.0)  # a source id the src column cannot hold
    assert isinstance(other.tree(wide), Samtree)
    assert not other.update_edge(7, wide - 1, 1.0)
    assert other.remove_edge(wide, 1) and other.tree(wide) is None
    for s in (store, other):
        assert s.num_edges == sum(s.degree(src) for src in s.sources())
        s.check_invariants()


def test_total_weight_of_a_row_is_its_image_total_and_moves_an_ulp_at_most():
    """A row sums left to right — its image row's ``total``, bit for
    bit; the samtree it is promoted to reads FSTable partial sums, which
    may differ in the last bits (DESIGN.md §9)."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    weights = [0.1, 0.2, 0.3, 0.7, 1e-9, 3.3, 0.1]
    for dst, weight in enumerate(weights):
        store.add_edge(1, dst, weight)
    store.sample_neighbors_many([1], 2, rng=0)
    _, cum = store.snapshot_cache.row((0, 1))
    assert store.total_weight(1) == cum[-1] == float(np.cumsum(weights)[-1])
    assert store.edge_weight(1, 3) == 0.7 and store.edge_weight(1, 99) is None
    for dst in (7, 8):  # the 9th edge promotes
        store.add_edge(1, dst, 0.1)
    assert isinstance(store.tree(1), Samtree)
    assert store.total_weight(1) == pytest.approx(sum(weights) + 0.2, rel=1e-12)


def test_remove_edge_rejects_a_bad_id_and_keeps_the_row():
    store = DynamicGraphStore()
    store.add_edge(7, 3, 2.0)
    with pytest.raises(InvalidWeightError):
        store.remove_edge(7, -1)
    assert store.neighbors(7) == [(3, 2.0)]
    store.check_invariants()


def test_check_invariants_names_a_broken_slab():
    def fresh():
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        store.bulk_load([1, 1, 1, 2], [4, 5, 6, 7], 1.0)
        return store, store.slab, store.directory.get((0, 1))

    store, slab, row = fresh()
    slab.ids[slab.start[row] + 1] = 4  # duplicate id
    with pytest.raises(InvariantViolationError, match="duplicate"):
        store.check_invariants()
    with pytest.raises(InvariantViolationError):
        store.tree(1).check_invariants()
    store, slab, row = fresh()
    slab.weights[slab.start[row]] = float("nan")
    with pytest.raises(InvariantViolationError, match="weights"):
        store.check_invariants()
    store, slab, row = fresh()
    slab.src[row] = 9
    with pytest.raises(InvariantViolationError, match="directory key"):
        store.check_invariants()
    store, slab, row = fresh()
    slab.free.append(row)
    with pytest.raises(InvariantViolationError, match="free rows"):
        store.check_invariants()
    store, slab, row = fresh()
    slab.length[row] = slab.room[row] + 1
    with pytest.raises(InvariantViolationError, match="length"):
        store.check_invariants()
    store, slab, row = fresh()
    store._num_edges += 1
    with pytest.raises(InvariantViolationError, match="edge counter"):
        store.check_invariants()


# ---------------------------------------------------------------------------
# (d) three samplers, one distribution
# ---------------------------------------------------------------------------
def _chi2_pvalue(observed, expected):
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if _scipy_stats is not None:
        return float(_scipy_stats.chisquare(observed, expected).pvalue)
    chi2 = float(((observed - expected) ** 2 / expected).sum())  # pragma: no cover
    return 1.0 if chi2 < 3 * len(expected) else 0.0  # pragma: no cover


def test_slab_draw_image_row_and_samtree_descent_are_one_distribution():
    weights = {3: 0.5, 11: 4.0, 12: 0.0, 40: 1.5, 41: 2.0, 90: 8.0}
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    for dst, w in weights.items():
        store.add_edge(1, dst, w)
    assert _is_row(store, 1)
    tree = Samtree(SamtreeConfig(capacity=4))  # the same adjacency, two leaves
    for dst, w in weights.items():
        tree.insert(dst, w)
    n = 60_000
    draws = {
        "slab": store.sample_neighbors(1, n, random.Random(5)),
        "image": store.sample_neighbors_many([1] * 100, n // 100, 6)
        .ids.ravel().tolist(),
        "descent": tree.sample_many(n, random.Random(7)),
    }
    live = [d for d, w in weights.items() if w > 0.0]
    total = sum(weights.values())
    for name, drawn in draws.items():
        counts = Counter(drawn)
        assert 12 not in counts, name  # a zero-weight edge is never drawn
        p = _chi2_pvalue(
            [counts[d] for d in live], [n * weights[d] / total for d in live]
        )
        assert p > 1e-3, (name, p)
    uniform = Counter(store.sample_neighbors_uniform(1, n, random.Random(8)))
    assert _chi2_pvalue(
        [uniform[d] for d in weights], [n / len(weights)] * len(weights)
    ) > 1e-3
    for dst in weights:  # an all-zero row draws uniformly, weighted or not
        store.update_edge(1, dst, 0.0)
    flat = Counter(store.sample_neighbors(1, n, random.Random(9)))
    assert _chi2_pvalue(
        [flat[d] for d in weights], [n / len(weights)] * len(weights)
    ) > 1e-3
    assert store.sample_neighbors(99, 4, 0) == []
    assert store.sample_neighbors(1, 0, 0) == []


def test_seeded_slab_draws_are_the_one_leaf_samtrees():
    """Weights that sum exactly: the row's inverse transform and the
    leaf's FTS pick the same index for the same uniform."""
    store = DynamicGraphStore()
    tree = Samtree()
    for dst in range(13):
        store.add_edge(4, dst * 7, (dst % 5 + 1) / 8.0)
        tree.insert(dst * 7, (dst % 5 + 1) / 8.0)
    assert store.sample_neighbors(4, 200, 3) == tree.sample_many(
        200, random.Random(3)
    )
    assert store.sample_neighbors_uniform(4, 50, 3) == [
        tree.sample_uniform(rng) for rng in [random.Random(3)] for _ in range(50)
    ]


@pytest.mark.parametrize("src", [99, 1, 2], ids=["absent", "slab_row", "samtree"])
@pytest.mark.parametrize("draw", ["sample_neighbors", "sample_neighbors_uniform"])
def test_negative_k_is_refused_whatever_the_source(src, draw):
    """One contract for ``k < 0``: a scalar draw raises on a missing
    source, a slab row and a samtree alike, as the batched read does."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    store.bulk_load([1] * 3 + [2] * 20, list(range(3)) + list(range(20)), 1.0)
    assert _is_row(store, 1) and isinstance(store.tree(2), Samtree)
    with pytest.raises(ConfigurationError):
        getattr(store, draw)(src, -1, 0)
    with pytest.raises(ConfigurationError):
        store.sample_neighbors_many([src], -1, 0)
    assert getattr(store, draw)(src, 0, 0) == []


_ROW_OP = st.tuples(
    st.integers(0, 12), st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE]),
    st.floats(0.0, 8.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("scalar"), st.lists(
                st.tuples(st.integers(0, 23), _ROW_OP), min_size=1, max_size=20
            )),
            st.tuples(st.just("batch"), st.lists(_ROW_OP, min_size=24, max_size=24)),
            st.just(("compact", [])),
        ),
        max_size=10,
    )
)
def test_row_running_sums_are_the_cumsum_of_their_weights(steps):
    """Whatever mix of scalar ops and round kernels (a batch gives each
    of 24 sources one op) grows, relocates, compacts, releases or
    promotes rows, every live row's ``cum`` ``==`` ``np.cumsum`` of its
    weights (``check_rows``), the scalar draw's total is its last entry,
    and a read image reads the rows in place."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    store.bulk_load(np.repeat(np.arange(24), 4), np.tile(np.arange(4), 24), 0.5)
    slab = store.slab
    for kind, ops in steps:
        if kind == "compact":
            with slab.lock:
                slab.compact()
        elif kind == "scalar":
            for src, (dst, code, w) in ops:
                if code == OP_DELETE:
                    store.remove_edge(src, dst)
                elif code == OP_UPDATE:
                    store.update_edge(src, dst, w)
                else:
                    store.add_edge(src, dst, w)
        else:
            dst, code, w = map(list, zip(*ops))
            store.apply_edge_batch(EdgeBatch(list(range(24)), dst, w, op=code))
        store.sample_neighbors_many(list(range(24)) * 2, 2, rng=0)
        store.check_invariants()
        for src in store.sources():
            if _is_row(store, src):
                weights = store.tree(src).arrays()[1]
                assert store.total_weight(src) == np.cumsum(weights)[-1]


# ---------------------------------------------------------------------------
# (e) work counts
# ---------------------------------------------------------------------------
def test_sparse_batch_runs_no_samtree_op_and_probes_once_per_group(monkeypatch):
    rng = np.random.default_rng(3)
    sources = 20_000
    store = DynamicGraphStore()
    src = np.repeat(np.arange(sources), 2)
    store.bulk_load(src, rng.integers(0, sources, src.size), 1.0)
    hub = np.arange(1000)
    store.bulk_load(np.full(hub.size, sources), hub, 1.0)  # one samtree
    n = 4_000
    batch = EdgeBatch(
        np.concatenate([rng.integers(0, sources + 50, n - 1), [sources]]),
        rng.integers(0, sources, n),
        rng.integers(1, 64, n) / 8.0,
        None,
        rng.choice([OP_INSERT, OP_UPDATE, OP_DELETE], n, p=[0.5, 0.3, 0.2]),
    )
    touched = len(set(batch.src.tolist()))
    assert touched > 0.85 * n  # sparse: about one op per source

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    probed = []
    directory = store.directory
    directory.get = counted("get", directory.get)
    get_many = directory.get_many
    directory.get_many = counted(
        "get_many", lambda keys: probed.extend(keys) or get_many(keys)
    )
    for name in ("insert", "update", "delete", "_upsert"):
        monkeypatch.setattr(Samtree, name, counted("tree", getattr(Samtree, name)))
    monkeypatch.setattr(Slab, "apply", counted("scalar", Slab.apply))
    monkeypatch.setattr(Slab, "apply_round", counted("round", Slab.apply_round))

    stats = store.apply_edge_batch(batch)

    del directory.get, directory.get_many
    # One batched probe, each group's key once; no scalar get.
    assert calls["get_many"] == 1 and calls["get"] == 0
    assert sorted(probed) == sorted({(0, s) for s in batch.src.tolist()})
    assert 1 <= calls["tree"] <= 2  # the hub's one op (insert -> _upsert)
    assert 2 <= calls["round"] <= 6
    assert calls["scalar"] < 0.05 * n  # what the rounds leave
    assert stats.trees_created > 0 and stats.trees_incremental > 0.8 * touched
    store.check_invariants()


# ---------------------------------------------------------------------------
# (f) accounting: a row is charged as the one-leaf samtree it stands for
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("compress", [True, False])
def test_nbytes_of_a_slab_row_is_its_one_leaf_samtrees(compress):
    config = SamtreeConfig(capacity=64, compress=compress)
    rng = random.Random(4)
    for spread in (1 << 8, 1 << 16, 1 << 32, 1 << 62):
        for n in (1, 2, 9, 64):
            base = rng.randrange(1, 100) * spread if spread < 1 << 62 else 0
            ids = sorted(rng.sample(range(base, base + spread), n))
            store = DynamicGraphStore(config, snapshot_cache=None)
            store.bulk_load([5] * n, ids, 1.0)
            assert _is_row(store, 5)
            tree = bulk_tree(ids, None, config)
            got = store.nbytes_breakdown()
            for part, nbytes in tree.nbytes_breakdown().items():
                assert got[part] == nbytes, (spread, n, part)
            assert store.nbytes() == sum(got.values())


# ---------------------------------------------------------------------------
# (g) checkpoints and the WAL, whichever mix of rows and trees
# ---------------------------------------------------------------------------
def _golden_store():
    """The op stream the parent commit's checkpoint
    ``data/checkpoint_v3_pr22.bin`` was written from."""
    rng = random.Random(22)
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    for _ in range(600):
        src = rng.choice([1, 2, 3, 4, 5, 6, 2**40]) if rng.random() < 0.7 else 7
        dst = rng.randrange(60 if src == 7 else 12)
        etype = rng.randrange(2)
        if rng.random() < 0.75:
            store.add_edge(src, dst, rng.randrange(1, 64) / 8.0, etype)
        else:
            store.remove_edge(src, dst, etype)
    return store


def _saved(store):
    buf = io.BytesIO()
    save_store(store, buf)
    return buf.getvalue()


def test_checkpoint_round_trips_rows_and_trees_and_reaches_a_fixed_point():
    store = _golden_store()
    forms = Counter(type(v) is int for v in store.directory.values())
    assert forms[True] >= 3 and forms[False] >= 3  # rows and trees
    first = _saved(store)
    loaded = load_store(io.BytesIO(first))
    loaded.check_invariants()
    assert {k: dict(v) for k, v in _adjacency(loaded).items()} == {
        k: dict(v) for k, v in _adjacency(store).items()
    }  # float ==
    # A source's form is re-derived from its size alone.
    for (etype, src), adj in _adjacency(loaded).items():
        assert _is_row(loaded, src, etype) == (len(adj) <= 8)
    second = _saved(loaded)
    assert _saved(load_store(io.BytesIO(second))) == second  # a fixed point
    assert len(first) == len(second)


def test_a_checkpoint_written_by_the_parent_commit_loads():
    with open(os.path.join(DATA, "checkpoint_v3_pr22.bin"), "rb") as f:
        golden = f.read()
    loaded = load_store(io.BytesIO(golden))
    loaded.check_invariants()
    want = _golden_store()
    assert {k: dict(v) for k, v in _adjacency(loaded).items()} == {
        k: dict(v) for k, v in _adjacency(want).items()
    }
    assert loaded.num_edges == want.num_edges == 193
    # What the parent wrote is what this build writes for the same store
    # loaded back (records are key-ordered, adjacency id-ordered).
    assert _saved(loaded) == _saved(load_store(io.BytesIO(_saved(want))))


def test_golden_wal_replays_into_rows(tmp_path):
    copy = str(tmp_path / "golden.wal")
    with open(os.path.join(DATA, "wal_v1_pr20.wal"), "rb") as f, open(copy, "wb") as g:
        g.write(f.read())
    store = DynamicGraphStore()
    wal = ShardWAL(copy, shard_id=5)
    for batch in wal.replay():
        store.apply_edge_batch(batch)
    wal.close()
    assert _adjacency(store) == {
        (0, 1): [(2, 0.5)], (0, 3): [(4, 2.0)], (0, 10): [(12, 0.25)],
    }
    assert all(type(v) is int for v in store.directory.values())
    store.check_invariants()


# ---------------------------------------------------------------------------
# PALM: rows of different sources share one arena
# ---------------------------------------------------------------------------
def test_threaded_palm_over_rows_that_grow_relocate_and_promote():
    c = 8
    rng = random.Random(11)
    ops = []
    for _ in range(6_000):
        src = rng.randrange(300)
        dst = rng.randrange(40 if src % 3 else c)  # a third never outgrow c
        roll = rng.random()
        if roll < 0.65:
            ops.append(EdgeOp.insert(src, dst, rng.randrange(1, 64) / 8.0))
        elif roll < 0.8:
            ops.append(EdgeOp.update(src, dst, rng.randrange(1, 64) / 8.0))
        else:
            ops.append(EdgeOp.delete(src, dst))
    sequential = DynamicGraphStore(SamtreeConfig(capacity=c))
    want = [sequential.apply(op) for op in ops]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for tree_batching in (True, False):
            store = DynamicGraphStore(SamtreeConfig(capacity=c))
            executor = PalmExecutor(
                store, num_threads=8, tree_batching=tree_batching
            )
            got = []
            for lo in range(0, len(ops), 500):
                got += executor.apply_batch(ops[lo : lo + 500]).outcomes
            assert got == want
            assert _adjacency(store).keys() == _adjacency(sequential).keys()
            for key, adj in _adjacency(store).items():
                assert dict(adj) == dict(sequential.neighbors(key[1], key[0]))
            assert store.num_edges == sequential.num_edges
            forms = Counter(type(v) is int for v in store.directory.values())
            assert forms[True] > 50 and forms[False] > 50
            assert store.slab.garbage or store.slab.free  # rows did relocate
            store.check_invariants()
    finally:
        sys.setswitchinterval(interval)
