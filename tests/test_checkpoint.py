"""Tests for binary snapshot persistence (repro.storage.checkpoint)."""

from __future__ import annotations

import hashlib
import io
import random

import pytest

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, InvalidWeightError
from repro.storage.checkpoint import load_store, save_store

from tests.conftest import stores_equal


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

    @pytest.mark.parametrize("degree", [3, 9])  # a slab row, a samtree
    def test_boundary_ids_roundtrip(self, degree):
        """Ids ``0`` and ``2**63 - 1``, as source and as destination,
        survive a snapshot; one past the domain is refused, so the store
        never holds what no snapshot can restore."""
        top = 2**63 - 1
        edges = {0: 0.5, top: 1.5, **{d: 2.0 for d in range(7, 4 + degree)}}
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        for src in (0, top):
            for dst, weight in edges.items():
                store.add_edge(src, dst, weight)
        for src, dst in ((top + 1, 0), (0, top + 1)):
            with pytest.raises(InvalidWeightError):
                store.add_edge(src, dst, 1.0)
        buf = io.BytesIO()
        save_store(store, buf)
        buf.seek(0)
        loaded = load_store(buf)
        assert sorted(loaded.sources()) == [0, top]
        for src in (0, top):
            assert dict(loaded.neighbors(src)) == edges
        block = loaded.sample_neighbors_many([top, 0], 4, rng=1)
        assert set(block.ids.ravel().tolist()) <= set(edges)
        loaded.check_invariants()

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

    def test_two_store_sections_share_a_buffer(self):
        """Snapshots written back to back into one stream reload in turn:
        a load leaves the stream at the end of its own section."""
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        store.bulk_load(
            list(range(10)) * 3, list(range(30)), 2.0, 0
        )
        other = random_store(seed=3, n=200, capacity=8)
        buf = io.BytesIO()
        save_store(store, buf)
        save_store(other, buf)
        buf.seek(0)
        self._assert_equivalent(store, load_store(buf))
        self._assert_equivalent(other, load_store(buf))
        assert buf.read() == b""


def mixed_store(compress: bool) -> DynamicGraphStore:
    """Slab rows and samtrees in two relations, with deletes, seeded."""
    rng = random.Random(11)
    store = DynamicGraphStore(SamtreeConfig(capacity=4, compress=compress))
    n = 600
    store.apply_edge_batch(EdgeBatch.inserts(
        [rng.randrange(60) for _ in range(n)],
        [rng.choice((rng.randrange(10**12), 2**63 - 1 - rng.randrange(9)))
         for _ in range(n)],
        [round(rng.random() * 8, 3) for _ in range(n)],
        [rng.randrange(2) for _ in range(n)],
    ))
    for _ in range(40):
        src, etype = rng.randrange(60), rng.randrange(2)
        nbrs = store.neighbors(src, etype)
        if nbrs:
            store.remove_edge(src, rng.choice(nbrs)[0], etype)
    return store


#: sha256 of :func:`mixed_store`'s section by ``compress``, as the
#: record-by-record writer wrote it: the format is the bytes, not only
#: what a loader accepts.
PINNED_SHA256 = {
    True: "7c0655471dd6a3c840174d18d38eea367f826d2d65f4024575e143a2da6c6e72",
    False: "1f1822c660f229c08784dcc8368c43926b96688ec6f5321af1614570e948d598",
}


@pytest.mark.parametrize("compress", [True, False])
def test_the_written_bytes_are_pinned(compress, tmp_path):
    store = mixed_store(compress)
    assert {type(v) is int for _, v in store.directory.items()} == {True, False}
    assert sorted(store.etypes()) == [0, 1]
    buf = io.BytesIO()
    assert save_store(store, buf) == len(buf.getvalue()) == 10644
    path = str(tmp_path / "snap.pd2g")
    assert save_store(store, path) == 10644
    with open(path, "rb") as f:
        assert f.read() == buf.getvalue()
    assert hashlib.sha256(buf.getvalue()).hexdigest() == PINNED_SHA256[compress]


def test_a_section_loads_from_its_bytes_in_place():
    """The section's bytes (a server's in-memory image), a view of them
    and a stream load the same store."""
    store = mixed_store(True)
    buf = io.BytesIO()
    save_store(store, buf)
    image = buf.getvalue()
    for source in (image, memoryview(image), io.BytesIO(image)):
        loaded = load_store(source)
        loaded.check_invariants()
        assert stores_equal(store, loaded)
