"""Tests for the KV substrate and the attribute (feature) store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import memory
from repro.core.memory import (
    ID_BYTES,
    KV_INDEX_ENTRY_BYTES,
    KV_KEY_BYTES,
    humanize_bytes,
)
from repro.errors import (
    ConfigurationError,
    InvalidWeightError,
    ShapeError,
    VertexNotFoundError,
)
from repro.storage.attributes import AttributeSchema, AttributeStore
from repro.storage.kvstore import BlockKVStore


class TestBlockKVStore:
    def make(self):
        return BlockKVStore(value_nbytes=lambda v: len(v))

    def test_put_get_delete(self):
        kv = self.make()
        kv.put(("b", 0, 1), b"abc")
        assert kv.get(("b", 0, 1)) == b"abc"
        assert ("b", 0, 1) in kv
        assert kv.delete(("b", 0, 1)) is True
        assert kv.delete(("b", 0, 1)) is False
        assert kv.get(("b", 0, 1)) is None

    def test_len_and_iteration(self):
        kv = self.make()
        for i in range(5):
            kv.put(("b", i), b"x")
        assert len(kv) == 5
        assert sorted(kv) == [("b", i) for i in range(5)]
        assert dict(kv.items())[("b", 2)] == b"x"

    def test_nbytes_includes_key_and_index_overhead(self):
        kv = self.make()
        kv.put(("b", 1), b"xyzw")
        assert kv.nbytes() == KV_KEY_BYTES + KV_INDEX_ENTRY_BYTES + 4


class TestAttributeStore:
    def test_schema_registration(self):
        store = AttributeStore()
        store.register("feat", 4)
        store.register("feat", 4)  # idempotent
        with pytest.raises(ConfigurationError):
            store.register("feat", 8)
        with pytest.raises(ConfigurationError):
            store.gather("unknown", [1])
        with pytest.raises(ConfigurationError):
            AttributeSchema("bad", 0)

    def test_put_get(self):
        store = AttributeStore()
        store.register("feat", 3)
        store.put("feat", 7, [1.0, 2.0, 3.0])
        assert store.get("feat", 7).tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(VertexNotFoundError):
            store.get("feat", 8)
        with pytest.raises(ShapeError):
            store.put("feat", 9, [1.0, 2.0])

    def test_put_many_and_gather(self):
        store = AttributeStore()
        store.register("feat", 2)
        store.put_many("feat", [1, 2], np.array([[1, 2], [3, 4]], dtype=np.float32))
        out = store.gather("feat", [2, 99, 1])
        assert out.shape == (3, 2)
        assert out[0].tolist() == [3.0, 4.0]
        assert out[1].tolist() == [0.0, 0.0]  # missing rows are zero
        assert out[2].tolist() == [1.0, 2.0]
        with pytest.raises(ShapeError):
            store.put_many("feat", [1], np.zeros((2, 2)))

    def test_delete(self):
        store = AttributeStore()
        store.register("feat", 1)
        store.put("feat", 5, [1.0])
        assert store.delete("feat", 5) is True
        assert store.delete("feat", 5) is False
        assert store.nbytes() == 0

    def test_nbytes(self):
        store = AttributeStore()
        store.register("feat", 4)
        empty = store.nbytes()
        store.put("feat", 1, [0, 0, 0, 0])
        assert store.nbytes() > empty


    def test_results_do_not_alias_the_store(self):
        """Scribbling on a returned vector never rewrites stored rows —
        nor the zero row every missing id shares."""
        store = AttributeStore()
        store.register("feat", 2)
        store.put("feat", 1, [1.0, 2.0])
        for result in (
            store.get("feat", 1),
            store.gather("feat", [1, 404]),
        ):
            result[...] = 99.0
        assert store.gather("feat", [1, 404, 405]).tolist() == [
            [1.0, 2.0], [0.0, 0.0], [0.0, 0.0],
        ]
        assert store.get("feat", 1).tolist() == [1.0, 2.0]


def _registered(name, dim):
    store = AttributeStore()
    store.register(name, dim)
    return store


_DIM = 3
_IDS = st.integers(0, 45)
#: Reads also ask for ids no write may store.
_READ_IDS = st.integers(-5, 45)
_ROWS = st.lists(st.integers(-9, 9), min_size=_DIM, max_size=_DIM)
_FORMS = {
    "list": list,
    "ndarray": lambda ids: np.asarray(ids, dtype=np.int64),
    "generator": lambda ids: (v for v in ids),
    "numpy scalars": lambda ids: [np.int64(v) for v in ids],
}


class AttributeStoreMachine(RuleBasedStateMachine):
    """The slab store against the representation it replaced: a plain
    ``{id: row}`` dict read one row per iteration."""

    def __init__(self):
        super().__init__()
        self.store = _registered("feat", _DIM)
        self.model = {}

    def reference_gather(self, ids):
        out = np.zeros((len(ids), _DIM), dtype=np.float32)
        for i, v in enumerate(ids):
            row = self.model.get(v)
            if row is not None:
                out[i] = row
        return out

    @rule(v=_IDS, row=_ROWS)
    def put(self, v, row):
        self.store.put("feat", v, row)
        self.model[v] = np.asarray(row, dtype=np.float32)

    @rule(
        pairs=st.lists(st.tuples(_IDS, _ROWS), max_size=12),
        as_array=st.booleans(),
    )
    def put_many(self, pairs, as_array):
        """Overwrites, fresh ids and repeats inside one call (last wins)."""
        ids = [v for v, _ in pairs]
        matrix = np.asarray(
            [row for _, row in pairs], dtype=np.float32
        ).reshape(len(pairs), _DIM)
        keys = np.asarray(ids, dtype=np.int64) if as_array else ids
        self.store.put_many("feat", keys, matrix)
        for v, row in zip(ids, matrix):
            self.model[v] = row

    @rule(start=st.integers(100, 400), count=st.integers(60, 200))
    def put_block(self, start, count):
        """Enough fresh ids at once to push the slab past a doubling."""
        ids = list(range(start, start + count))
        matrix = np.arange(count * _DIM, dtype=np.float32).reshape(count, _DIM)
        self.store.put_many("feat", ids, matrix + start)
        for v, row in zip(ids, matrix + start):
            self.model[v] = row

    @rule(v=_IDS)
    def delete(self, v):
        assert self.store.delete("feat", v) is (v in self.model)
        self.model.pop(v, None)

    @rule(start=st.integers(100, 400), count=st.integers(1, 150))
    def delete_block(self, start, count):
        """Free many slots so later puts run on reused ones."""
        for v in range(start, start + count):
            assert self.store.delete("feat", v) is (v in self.model)
            self.model.pop(v, None)

    @rule(
        v=st.one_of(st.integers(-5, -1), st.integers(2**63, 2**64)),
        many=st.booleans(),
    )
    def refused_put(self, v, many):
        """An id outside ``0 .. 2**63 - 1`` is refused, and nothing of
        the call is stored (the invariant below checks)."""
        with pytest.raises(InvalidWeightError):
            if many:
                self.store.put_many("feat", [0, v], np.zeros((2, _DIM)))
            else:
                self.store.put("feat", v, [1.0] * _DIM)

    @rule(v=st.one_of(_READ_IDS, st.integers(100, 600)))
    def point_reads(self, v):
        default = self.store.gather("feat", [v])[0]
        assert default.dtype == np.float32
        if v in self.model:
            assert self.store.get("feat", v).tolist() == self.model[v].tolist()
            assert default.tolist() == self.model[v].tolist()
            self.store.get("feat", v)[...] = 77.0  # a copy: no effect
        else:
            with pytest.raises(VertexNotFoundError):
                self.store.get("feat", v)
            assert default.tolist() == [0.0] * _DIM
        default[...] = 77.0

    @rule(
        ids=st.lists(st.one_of(_READ_IDS, st.integers(90, 620)), max_size=30),
        form=st.sampled_from(sorted(_FORMS)),
    )
    def gather(self, ids, form):
        """Stored, missing, negative, repeated and no ids at all."""
        out = self.store.gather("feat", _FORMS[form](ids))
        assert out.dtype == np.float32 and out.shape == (len(ids), _DIM)
        assert np.array_equal(out, self.reference_gather(ids))

    @invariant()
    def accounting(self):
        per_pair = ID_BYTES + KV_INDEX_ENTRY_BYTES
        assert self.store.nbytes() == len(self.model) * (per_pair + 4 * _DIM)
        ids = sorted(self.model)
        assert np.array_equal(
            self.store.gather("feat", ids), self.reference_gather(ids)
        )


TestAttributeStoreModel = AttributeStoreMachine.TestCase
TestAttributeStoreModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestMemoryModel:
    def test_humanize(self):
        assert humanize_bytes(512) == "512B"
        assert humanize_bytes(2048) == "2.00KB"
        assert humanize_bytes(1.5 * (1 << 30)) == "1.50GB"
        assert humanize_bytes(4.2 * (1 << 40)) == "4.20TB"

    def test_layout_is_module_constants(self):
        """One byte layout: plain integers (the AliGraph build-peak
        factor a float) with the published values, and no settable
        model object beside them."""
        layout = {
            "ID_BYTES": 8, "WEIGHT_BYTES": 4, "POINTER_BYTES": 8,
            "TREE_NODE_HEADER_BYTES": 16, "DIRECTORY_ENTRY_BYTES": 24,
            "KV_KEY_BYTES": 32, "KV_INDEX_ENTRY_BYTES": 48,
            "KV_BLOCK_HEADER_BYTES": 24, "ALIGRAPH_DUPLICATION_FACTOR": 2,
            "ALIAS_ENTRY_BYTES": 12, "ALIGRAPH_VERTEX_HEADER_BYTES": 256,
            "ALIGRAPH_BUILD_PEAK_FACTOR": 2.5,
        }
        assert {name: getattr(memory, name) for name in layout} == layout
        assert set(memory.__all__) == set(layout) | {"humanize_bytes"}
        for name in ("MemoryModel", "DEFAULT_MEMORY_MODEL"):
            assert not hasattr(memory, name), name
