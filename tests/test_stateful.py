"""Hypothesis stateful (rule-based) machines for the store stack.

These machines drive long, adversarial interleavings that example-based
tests cannot enumerate: every rule application cross-checks the samtree
store against a dict-of-dicts model, and the temporal machine checks the
window semantics against a brute-force filter.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.baselines.platogl import PlatoGLStore
from repro.core.frozen import alias_mass
from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.memory import DEFAULT_MEMORY_MODEL
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.snapshot import ALIAS_TOLERANCE, ROW_LOOP_BELOW
from repro.core.temporal import TemporalGraphStore
from repro.core.topology import DynamicGraphStore
from repro.core.types import SampleBlock
from tests.conftest import bulk_tree

SRC = st.integers(min_value=0, max_value=6)
DST = st.integers(min_value=0, max_value=30)
WEIGHT = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
ETYPE = st.sampled_from([0, 1])
OP = st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE])
_KIND = {OP_INSERT: "insert", OP_UPDATE: "update", OP_DELETE: "delete"}
#: Frontiers on both sides of the read image's draw-loop cut; sources 7
#: and 8 never get edges.
FRONTIER = st.lists(
    st.integers(min_value=0, max_value=8), min_size=1, max_size=48
)
assert 1 < ROW_LOOP_BELOW <= 48


class StoreMachine(RuleBasedStateMachine):
    """DynamicGraphStore + PlatoGL vs a dict-of-dicts reference model."""

    def __init__(self) -> None:
        super().__init__()
        self.store = DynamicGraphStore(SamtreeConfig(capacity=4, alpha=1))
        self.platogl = PlatoGLStore(block_size=4)
        self.model: dict = {}
        #: Sources whose degree may have passed ``c`` since they last
        #: entered the directory (a batch applies in key order, so the
        #: bound is degree before + the batch's inserts).
        self.may_have_outgrown: set = set()

    def _degree(self, etype, src):
        return sum(1 for e, s, _ in self.model if (e, s) == (etype, src))

    def _note_growth(self, etype, src, inserts=1):
        if self._degree(etype, src) + inserts > self.store.config.capacity:
            self.may_have_outgrown.add((etype, src))

    @rule(src=SRC, dst=DST, w=WEIGHT, etype=ETYPE)
    def add(self, src, dst, w, etype):
        self._note_growth(etype, src)
        expected_new = (etype, src, dst) not in self.model
        assert self.store.add_edge(src, dst, w, etype) == expected_new
        assert self.platogl.add_edge(src, dst, w, etype) == expected_new
        self.model[(etype, src, dst)] = w

    @rule(src=SRC, dst=DST, w=WEIGHT, etype=ETYPE)
    def update(self, src, dst, w, etype):
        expected = (etype, src, dst) in self.model
        assert self.store.update_edge(src, dst, w, etype) == expected
        assert self.platogl.update_edge(src, dst, w, etype) == expected
        if expected:
            self.model[(etype, src, dst)] = w

    @rule(src=SRC, dst=DST, etype=ETYPE)
    def remove(self, src, dst, etype):
        expected = (etype, src, dst) in self.model
        assert self.store.remove_edge(src, dst, etype) == expected
        assert self.platogl.remove_edge(src, dst, etype) == expected
        self.model.pop((etype, src, dst), None)

    @rule(src=SRC, dst=DST, w=WEIGHT, etype=ETYPE)
    def accumulate(self, src, dst, w, etype):
        key = (etype, src, dst)
        expected_new = key not in self.model
        self._note_growth(etype, src)
        assert self.store.accumulate_edge(src, dst, w, etype) == expected_new
        self.model[key] = w if expected_new else self.model[key] + w
        self.platogl.add_edge(src, dst, self.model[key], etype)

    def _model_apply(self, etype, src, dst, op, w):
        key = (etype, src, dst)
        if op == OP_DELETE:
            self.model.pop(key, None)
        elif op == OP_INSERT or key in self.model:
            self.model[key] = w

    @rule(
        src=SRC,
        etype=ETYPE,
        ops=st.lists(st.tuples(OP, DST, WEIGHT), min_size=1, max_size=24),
    )
    def source_batch(self, src, etype, ops):
        """PALM within-tree batch: enough ops on one capacity-4 tree to
        force several leaf splits and merges in one repair round."""
        self._note_growth(etype, src, sum(op == OP_INSERT for op, _, _ in ops))
        self.store.apply_source_batch(
            src, etype, [(_KIND[op], dst, w) for op, dst, w in ops]
        )
        self.platogl.apply_edge_batch(
            [src] * len(ops),
            [dst for _, dst, _ in ops],
            [w for _, _, w in ops],
            etype,
            [op for op, _, _ in ops],
        )
        for op, dst, w in ops:
            self._model_apply(etype, src, dst, op, w)

    @rule(
        rows=st.lists(
            st.tuples(SRC, DST, WEIGHT, ETYPE, OP), min_size=1, max_size=40
        )
    )
    def edge_batch(self, rows):
        """Columnar batch across trees: groups this small take the
        incremental branch of ``apply_edge_batch`` (or bulk-build a
        missing tree)."""
        self._apply_edge_batch(rows)

    @rule(
        src=SRC,
        etype=ETYPE,
        dsts=st.lists(DST, min_size=16, max_size=31, unique=True),
        ws=st.lists(WEIGHT, min_size=31, max_size=31),
        ops=st.lists(OP, min_size=31, max_size=31),
    )
    def edge_batch_wide(self, src, etype, dsts, ws, ops):
        """>= REBUILD_MIN_OPS distinct destinations on one source: an
        existing tree takes the rebuild branch of ``apply_edge_batch``."""
        self._apply_edge_batch(
            [(src, d, w, etype, op) for d, w, op in zip(dsts, ws, ops)]
        )

    def _apply_edge_batch(self, rows):
        columns = [list(col) for col in zip(*rows)]
        for src, _, _, etype, _ in rows:
            self._note_growth(
                etype, src,
                sum(r[4] == OP_INSERT for r in rows if (r[0], r[3]) == (src, etype)),
            )
        self.store.apply_edge_batch(EdgeBatch(*columns))
        self.platogl.apply_edge_batch(EdgeBatch(*columns))
        for src, dst, w, etype, op in rows:
            self._model_apply(etype, src, dst, op, w)

    @rule(src=SRC, etype=ETYPE)
    def read_neighbors(self, src, etype):
        expected = {
            dst: w
            for (e, s, dst), w in self.model.items()
            if e == etype and s == src
        }
        assert dict(self.store.neighbors(src, etype)) == expected
        assert self.store.degree(src, etype) == len(expected)
        assert self.platogl.degree(src, etype) == len(expected)

    @rule(
        srcs=FRONTIER,
        k=st.integers(min_value=0, max_value=4),
        etype=ETYPE,
        weighted=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def sample_many(self, srcs, k, etype, weighted, seed):
        """The batched read tier — the read image's row loop, frontier
        kernel or alias kernel — serves only current neighbours."""
        block = self.store.sample_neighbors_many(
            srcs, k, seed, etype, weighted=weighted
        )
        assert block.ids.shape == (len(srcs), k)
        for src, row, state in zip(srcs, block.ids.tolist(), block.state.tolist()):
            adjacency = {
                dst: w
                for (e, s, dst), w in self.model.items()
                if e == etype and s == src
            }
            assert (state == SampleBlock.SERVED) == bool(adjacency)
            if not adjacency:
                assert row == [0] * k
                continue
            positive = {d for d, w in adjacency.items() if w > 0.0}
            if not weighted or not positive:  # an all-zero row draws uniformly
                positive = set(adjacency)
            assert set(row) <= positive

    @rule()
    def freeze(self):
        self.store.freeze()

    @rule()
    def thaw(self):
        self.store.thaw()

    @rule()
    def compact(self):
        self.store.snapshot_cache.compact()

    @rule()
    def compact_slab(self):
        """Moves every slab row: pointer rows must follow."""
        with self.store.slab.lock:
            self.store.slab.compact()

    @invariant()
    def counters_match(self):
        assert self.store.num_edges == len(self.model)
        assert self.platogl.num_edges == len(self.model)

    @invariant()
    def weights_read_back_exactly(self):
        """Every weight read back ``==`` the weight written — through
        ``neighbors`` (the leaf columns) and ``edge_weight`` (one slot)."""
        got = {
            (etype, src, dst): w
            for etype in self.store.etypes()
            for src in self.store.sources(etype)
            for dst, w in self.store.neighbors(src, etype)
        }
        assert got == self.model
        for (etype, src, dst), w in self.model.items():
            assert self.store.edge_weight(src, dst, etype) == w

    @invariant()
    def frozen_rows_follow_the_model(self):
        """A frozen relation never holds a clean row older than its
        tree, and every aliased one's table decomposes the *model's*
        current weights (``check_invariants`` asks the tree instead).  A
        row admitted since the freeze may be a pointer into the slab."""
        cache = self.store.snapshot_cache
        for etype, image in cache.relations.items():
            if not image.frozen:
                continue
            for slot in np.flatnonzero(image.clean[: image.rows]).tolist():
                src = int(image.src[slot])
                adjacency = {
                    dst: w
                    for (e, s, dst), w in self.model.items()
                    if e == etype and s == src
                }
                ids = cache.row((etype, src))[0].tolist()
                assert sorted(ids) == sorted(adjacency)
                if not adjacency:
                    continue
                if image.aliased[slot]:
                    a = int(image.start[slot])
                    b = a + int(image.length[slot])
                    weights = np.asarray([adjacency[dst] for dst in ids])
                    mass = alias_mass(image.alias_prob, image.alias_idx, a, b)
                    wanted = weights / weights.sum()
                    assert np.abs(mass - wanted).max() <= ALIAS_TOLERANCE

    @invariant()
    def forms_follow_size(self):
        """Every directory value is a live slab row or a non-empty
        samtree; a source past ``c`` is a tree, and a tree is a source
        that once outgrew ``c`` (never demoted, gone with its last
        edge); the rows are charged what their one-leaf samtrees cost."""
        store = self.store
        config, slab = store.config, store.slab
        live = set(slab.live_rows().tolist())
        leaf_nodes = fstables = 0
        degrees: dict = {}
        for etype, src, _ in self.model:
            degrees[(etype, src)] = degrees.get((etype, src), 0) + 1
        self.may_have_outgrown &= degrees.keys()
        assert {key for key, _ in store.iter_trees()} == degrees.keys()
        for key, value in store.directory.items():
            if type(value) is int:
                assert value in live and degrees[key] <= config.capacity
                ids, weights = slab.arrays(value)
                parts = bulk_tree(ids, weights, config).nbytes_breakdown()
                assert parts["internal_nodes"] == parts["cstables"] == 0
                leaf_nodes += parts["leaf_nodes"]
                fstables += parts["fstables"]
            else:
                assert isinstance(value, Samtree) and value.degree
                assert key in self.may_have_outgrown
        assert slab.nbytes_parts(DEFAULT_MEMORY_MODEL, config.compress) == (
            leaf_nodes, fstables
        )

    @invariant()
    def structure_valid(self):
        # Includes the read image: every clean row carries its tree's
        # version and equals ``flatten_tree(tree)``.
        self.store.check_invariants()


def test_sample_rule_reaches_every_read_tier():
    """Pinned like the branch test below: the ``sample_many`` rule runs
    the image's row loop, its frontier kernel and the alias kernel —
    alone and beside a re-flattened row — across writes, a compaction
    and a re-created source."""
    machine = StoreMachine()
    for src in range(5):
        for dst in range(src + 1):
            machine.add(src=src, dst=dst, w=0.5 + dst, etype=0)
    few, many = [0, 3, 7], [0, 1, 2, 3, 4, 7, 8] * 6
    assert len(few) < ROW_LOOP_BELOW <= len(many)
    cache = machine.store.snapshot_cache
    for frontier in (few, many):
        machine.sample_many(srcs=frontier, k=3, etype=0, weighted=True, seed=1)
    assert cache.stats.builds == 5 and cache.stats.hits > 0
    machine.remove(src=0, dst=0, etype=0)  # tree 0 leaves the directory
    machine.update(src=3, dst=1, w=9.0, etype=0)
    assert (0, 3) in cache and (0, 0) not in cache  # 3 is written in place
    for frontier in (few, many):
        machine.sample_many(srcs=frontier, k=3, etype=0, weighted=False, seed=2)
    assert cache.stats.invalidations == 0  # 0 re-probed to an empty row
    machine.add(src=0, dst=9, w=1.0, etype=0)  # ... and is re-created
    machine.compact()
    machine.sample_many(srcs=few, k=2, etype=0, weighted=True, seed=3)
    machine.freeze()
    machine.frozen_rows_follow_the_model()
    stats = machine.store.frozen_stats
    machine.sample_many(srcs=many, k=2, etype=0, weighted=True, seed=4)
    assert (stats.batches, stats.vertices) == (1, len(many))
    machine.accumulate(src=2, dst=0, w=1.0, etype=0)  # one row leaves the kernel
    machine.sample_many(srcs=many, k=2, etype=0, weighted=True, seed=5)
    assert stats.stale_misses == many.count(2)
    assert stats.vertices == 2 * len(many) - many.count(2)
    machine.frozen_rows_follow_the_model()
    machine.structure_valid()
    machine.freeze()  # ... and is given its table back
    assert stats.compiled_rows == 5 + 1
    machine.sample_many(srcs=many, k=2, etype=0, weighted=False, seed=6)
    assert stats.stale_misses == many.count(2)
    machine.thaw()
    machine.structure_valid()
    machine.teardown()


def test_edge_batch_rules_reach_both_branches():
    """The machine's two ``apply_edge_batch`` rules cover the rebuild
    and the incremental branch (pinned here because Hypothesis does not
    promise which examples it draws)."""
    machine = StoreMachine()
    wide = dict(ws=[1.5] * 31, ops=[OP_INSERT] * 31)
    machine.edge_batch_wide(src=1, etype=0, dsts=list(range(16)), **wide)
    assert machine.store.ingest_stats.trees_created == 1
    machine.edge_batch_wide(src=1, etype=0, dsts=list(range(8, 28)), **wide)
    assert machine.store.ingest_stats.trees_rebuilt == 1
    machine.edge_batch(rows=[(1, 3, 0.25, 0, OP_UPDATE), (1, 4, 0.0, 0, OP_DELETE)])
    assert machine.store.ingest_stats.trees_incremental == 1
    machine.weights_read_back_exactly()
    machine.teardown()


class TemporalMachine(RuleBasedStateMachine):
    """TemporalGraphStore vs a brute-force (last_seen, window) filter."""

    WINDOW = 7

    def __init__(self) -> None:
        super().__init__()
        self.temporal = TemporalGraphStore(
            self.WINDOW, config=SamtreeConfig(capacity=4)
        )
        self.last_seen: dict = {}
        self.now = 0

    def _expire(self):
        self.last_seen = {
            k: t
            for k, t in self.last_seen.items()
            if t + self.WINDOW > self.now
        }

    @rule(src=SRC, dst=DST, w=WEIGHT, delta=st.integers(min_value=0, max_value=4))
    def observe(self, src, dst, w, delta):
        self.now += delta
        self.temporal.observe(self.now, src, dst, w)
        self._expire()
        self.last_seen[(src, dst)] = self.now

    @rule(delta=st.integers(min_value=0, max_value=12))
    def advance(self, delta):
        self.now += delta
        self.temporal.advance(self.now)
        self._expire()

    @rule(src=SRC, dst=DST)
    def remove(self, src, dst):
        expected = (src, dst) in self.last_seen
        assert self.temporal.remove_edge(src, dst) == expected
        self.last_seen.pop((src, dst), None)

    @invariant()
    def live_set_matches(self):
        live = {
            (s, d)
            for s in self.temporal.sources()
            for d, _ in self.temporal.neighbors(s)
        }
        assert live == set(self.last_seen)

    @invariant()
    def structure_valid(self):
        self.temporal.check_invariants()


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)

TestTemporalMachine = TemporalMachine.TestCase
TestTemporalMachine.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
