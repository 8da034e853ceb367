"""Tests for binary snapshot persistence (repro.storage.checkpoint)."""

from __future__ import annotations

import io
import random

import numpy as np
import pytest

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError
from repro.storage.attributes import AttributeStore
from repro.storage.checkpoint import (
    load_attributes,
    load_store,
    save_attributes,
    save_store,
)


def random_store(seed=0, n=2000, capacity=16) -> DynamicGraphStore:
    rng = random.Random(seed)
    store = DynamicGraphStore(SamtreeConfig(capacity=capacity))
    for _ in range(n):
        store.add_edge(
            rng.randrange(50),
            rng.randrange(10**9),
            round(rng.random() * 10, 4),
            etype=rng.randrange(3),
        )
    return store


class TestStoreRoundtrip:
    def test_roundtrip_in_memory(self):
        store = random_store()
        buf = io.BytesIO()
        written = save_store(store, buf)
        assert written == len(buf.getvalue())
        buf.seek(0)
        loaded = load_store(buf)
        assert loaded.num_edges == store.num_edges
        assert loaded.num_sources == store.num_sources
        assert loaded.config == store.config
        for etype in store.etypes():
            for src in store.sources(etype):
                a = dict(store.neighbors(src, etype))
                b = dict(loaded.neighbors(src, etype))
                assert a == b
        loaded.check_invariants()

    def test_roundtrip_via_file(self, tmp_path):
        store = random_store(seed=1, n=500)
        path = str(tmp_path / "snap.pd2g")
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.num_edges == store.num_edges

    def test_empty_store(self):
        buf = io.BytesIO()
        save_store(DynamicGraphStore(), buf)
        buf.seek(0)
        loaded = load_store(buf)
        assert loaded.num_edges == 0

    def test_config_preserved(self):
        store = DynamicGraphStore(
            SamtreeConfig(capacity=32, alpha=3, compress=False)
        )
        store.add_edge(1, 2, 1.0)
        buf = io.BytesIO()
        save_store(store, buf)
        buf.seek(0)
        loaded = load_store(buf)
        assert loaded.config.capacity == 32
        assert loaded.config.alpha == 3
        assert loaded.config.compress is False

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            load_store(io.BytesIO(b"not a snapshot at all"))

    def test_rejects_truncation(self):
        store = random_store(seed=2, n=200)
        buf = io.BytesIO()
        save_store(store, buf)
        data = buf.getvalue()
        with pytest.raises(ConfigurationError):
            load_store(io.BytesIO(data[: len(data) // 2]))

    def test_rejects_future_version(self):
        buf = io.BytesIO()
        save_store(DynamicGraphStore(), buf)
        data = bytearray(buf.getvalue())
        data[4] = 0xFF  # bump version byte
        with pytest.raises(ConfigurationError):
            load_store(io.BytesIO(bytes(data)))

    def test_deterministic_bytes(self):
        a, b = io.BytesIO(), io.BytesIO()
        save_store(random_store(seed=3), a)
        save_store(random_store(seed=3), b)
        assert a.getvalue() == b.getvalue()


class TestBulkBuiltRoundtrip:
    """Snapshots of stores built through the *columnar* ingest path.

    The incremental and bulk write paths produce structurally different
    samtrees (bottom-up packed leaves vs. insert-split growth); the
    checkpoint codec must roundtrip both, and a bulk-built snapshot must
    be byte-identical to the snapshot of the reloaded copy (the codec is
    canonical over the logical adjacency it encodes).
    """

    @staticmethod
    def _assert_equivalent(a: DynamicGraphStore, b: DynamicGraphStore):
        assert b.num_edges == a.num_edges
        assert b.num_sources == a.num_sources
        assert sorted(b.etypes()) == sorted(a.etypes())
        for etype in a.etypes():
            assert sorted(b.sources(etype)) == sorted(a.sources(etype))
            for src in a.sources(etype):
                expected = dict(a.neighbors(src, etype))
                got = dict(b.neighbors(src, etype))
                assert got == expected
        b.check_invariants()

    def test_bulk_load_roundtrip(self):
        rng = random.Random(31)
        n = 3000
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        store.bulk_load(
            [rng.randrange(60) for _ in range(n)],
            [rng.randrange(10**6) for _ in range(n)],
            [round(rng.random() * 9 + 0.01, 4) for _ in range(n)],
            [rng.randrange(3) for _ in range(n)],
        )
        buf = io.BytesIO()
        save_store(store, buf)
        loaded = load_store(io.BytesIO(buf.getvalue()))
        self._assert_equivalent(store, loaded)

    def test_mixed_op_batch_roundtrip(self):
        """apply_edge_batch with inserts/updates/deletes interleaved —
        including updates folding over inserts within one batch."""
        rng = random.Random(77)
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        for _ in range(5):
            n = 400
            store.apply_edge_batch(
                EdgeBatch(
                    [rng.randrange(25) for _ in range(n)],
                    [rng.randrange(60) for _ in range(n)],
                    [round(rng.random() * 4 + 0.01, 4) for _ in range(n)],
                    [rng.randrange(2) for _ in range(n)],
                    [
                        rng.choices(
                            [OP_INSERT, OP_UPDATE, OP_DELETE],
                            weights=[5, 3, 2],
                        )[0]
                        for _ in range(n)
                    ],
                )
            )
        buf = io.BytesIO()
        save_store(store, buf)
        loaded = load_store(io.BytesIO(buf.getvalue()))
        self._assert_equivalent(store, loaded)

    def test_deletes_emptying_trees_roundtrip(self):
        """A batch that deletes a source's entire neighborhood must not
        leave a phantom (empty-tree) section in the snapshot."""
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        store.bulk_load([1] * 6 + [2] * 3, list(range(9)), 1.0, 0)
        store.apply_edge_batch(
            EdgeBatch([1] * 6, list(range(6)), 1.0, 0, OP_DELETE)
        )
        assert store.degree(1, 0) == 0
        buf = io.BytesIO()
        save_store(store, buf)
        loaded = load_store(io.BytesIO(buf.getvalue()))
        self._assert_equivalent(store, loaded)
        assert loaded.degree(1, 0) == 0
        assert dict(loaded.neighbors(2, 0)) == {
            0 + 6: 1.0, 1 + 6: 1.0, 2 + 6: 1.0
        }

    def test_bulk_and_incremental_reloads_equivalent(self):
        """The two write paths grow structurally different trees (packed
        bottom-up leaves vs. insert-split growth), so their snapshots
        need not be byte-identical (tree order differs between them) —
        but a reload of either must present the same logical adjacency,
        weights bit for bit, through any number of ``save → load``
        cycles."""
        rng = random.Random(5)
        rows = [
            (rng.randrange(30), d, round(rng.random() * 3 + 0.01, 4))
            for d in range(800)
        ]
        bulk = DynamicGraphStore(SamtreeConfig(capacity=8))
        bulk.bulk_load(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            0,
        )
        inc = DynamicGraphStore(SamtreeConfig(capacity=8))
        for s, d, w in rows:
            inc.add_edge(s, d, w)
        for store in (bulk, inc):
            current = store
            for _ in range(3):
                buf = io.BytesIO()
                save_store(current, buf)
                current = load_store(io.BytesIO(buf.getvalue()))
                self._assert_equivalent(store, current)
        self._assert_equivalent(bulk, inc)

    def test_reload_then_mutate_then_snapshot_again(self):
        """A reloaded bulk-built store keeps working as a live store:
        more columnar churn applies cleanly and re-snapshots."""
        rng = random.Random(13)
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        store.bulk_load(
            [rng.randrange(20) for _ in range(500)],
            [rng.randrange(200) for _ in range(500)],
            1.0,
            0,
        )
        buf = io.BytesIO()
        save_store(store, buf)
        loaded = load_store(io.BytesIO(buf.getvalue()))
        batch = EdgeBatch(
            [rng.randrange(20) for _ in range(300)],
            [rng.randrange(200) for _ in range(300)],
            [round(rng.random() + 0.01, 4) for _ in range(300)],
            0,
            [
                rng.choices([OP_INSERT, OP_DELETE], weights=[3, 1])[0]
                for _ in range(300)
            ],
        )
        store.apply_edge_batch(batch)
        loaded.apply_edge_batch(batch)
        self._assert_equivalent(store, loaded)

    def test_store_and_attribute_sections_share_a_buffer(self):
        """A combined snapshot — topology section followed by the
        attribute section in one stream — reloads both (the layout the
        server's checkpoint/recover cycle relies on)."""
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        store.bulk_load(
            list(range(10)) * 3, list(range(30)), 2.0, 0
        )
        attrs = AttributeStore()
        attrs.register("feat", 3)
        for v in range(10):
            attrs.put("feat", v, [float(v), 0.5, -1.0])
        buf = io.BytesIO()
        save_store(store, buf)
        save_attributes(attrs, buf)
        buf.seek(0)
        loaded_store = load_store(buf)
        loaded_attrs = load_attributes(buf)
        self._assert_equivalent(store, loaded_store)
        assert loaded_attrs.get("feat", 7).tolist() == [7.0, 0.5, -1.0]


class TestAttributeRoundtrip:
    def test_roundtrip(self):
        attrs = AttributeStore()
        attrs.register("feat", 4)
        attrs.register("label", 1, np.dtype(np.int64))
        rng = np.random.default_rng(0)
        for v in range(100):
            attrs.put("feat", v * 7, rng.normal(size=4).astype(np.float32))
            attrs.put("label", v * 7, [v % 5])
        buf = io.BytesIO()
        save_attributes(attrs, buf)
        buf.seek(0)
        loaded = load_attributes(buf)
        assert sorted(loaded.fields()) == ["feat", "label"]
        assert loaded.schema("feat").dim == 4
        assert loaded.schema("label").dtype == np.dtype(np.int64)
        for v in range(100):
            assert loaded.get("feat", v * 7) == pytest.approx(
                attrs.get("feat", v * 7)
            )
            assert loaded.get("label", v * 7)[0] == v % 5

    def test_snapshot_bytes_are_pinned(self):
        """The on-disk image is a function of the content alone: the body
        is what the dict-of-rows store wrote for it (ids ascending per
        field, whatever order, overwrite or delete produced them), under
        the version-3 header and ahead of the section's CRC-32 trailer."""
        attrs = AttributeStore()
        attrs.register("feat", 3)
        attrs.register("label", 1, np.int64)
        attrs.put("feat", 9, [1.0, 2.0, 3.0])
        attrs.put_many(
            "feat",
            [4, 2**40, 0],
            np.arange(9, dtype=np.float32).reshape(3, 3) / 4,
        )
        attrs.put("feat", 4, [-1.5, 0.0, 7.25])
        attrs.put("feat", 5, [9.0, 9.0, 9.0])
        attrs.delete("feat", 5)
        attrs.put("label", 7, [3])
        attrs.put("label", 1, [-2])
        golden = bytes.fromhex(
            "5044324103000200000004000300030000000400000000000000666561743c66"
            "3400000000000000000400000000000000090000000000000000000000000100"
            "000000c03f0000e03f000000400000c0bf000000000000e8400000803f000000"
            "40000040400000403f0000803f0000a03f050003000100000002000000000000"
            "006c6162656c3c693801000000000000000700000000000000feffffffffffff"
            "ff0300000000000000"
            "e644fda4"
        )
        buf = io.BytesIO()
        assert save_attributes(attrs, buf) == len(golden)
        assert buf.getvalue() == golden
        loaded = load_attributes(io.BytesIO(golden))
        out = io.BytesIO()
        save_attributes(loaded, out)
        assert out.getvalue() == golden
        assert loaded.get("feat", 2**40).tolist() == [0.75, 1.0, 1.25]

    def test_empty(self):
        buf = io.BytesIO()
        save_attributes(AttributeStore(), buf)
        buf.seek(0)
        assert list(load_attributes(buf).fields()) == []

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            load_attributes(io.BytesIO(b"xxxxxxxxxxxx"))

    def test_file_roundtrip(self, tmp_path):
        attrs = AttributeStore()
        attrs.register("feat", 2)
        attrs.put("feat", 9, [1.0, 2.0])
        path = str(tmp_path / "attrs.pd2a")
        save_attributes(attrs, path)
        loaded = load_attributes(path)
        assert loaded.get("feat", 9).tolist() == [1.0, 2.0]
