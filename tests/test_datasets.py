"""Tests for the dataset generators, presets, and edge streams."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.topology import DynamicGraphStore
from repro.core.types import OP_DELETE
from repro.datasets.presets import (
    DATASET_SPECS,
    RelationSpec,
    load_dataset,
    ogbn_scaled,
    reddit_scaled,
    wechat_scaled,
)
from repro.datasets.statistics import (
    format_table3,
    published_table3_rows,
)
from repro.datasets.stream import EdgeStream, RequestStream
from repro.datasets.synthetic import (
    TYPE_ID_STRIDE,
    power_law_edges,
    type_offset,
    zipf_probabilities,
)
from repro.errors import ConfigurationError
from tests.conftest import live_edges


class TestSynthetic:
    def test_zipf_probabilities(self):
        p = zipf_probabilities(10, 1.0)
        assert p.sum() == pytest.approx(1.0)
        assert p[0] > p[-1]
        uniform = zipf_probabilities(10, 0.0)
        assert uniform[0] == pytest.approx(uniform[-1])
        with pytest.raises(ConfigurationError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ConfigurationError):
            zipf_probabilities(5, -1.0)

    def test_power_law_edges_shapes_and_ranges(self):
        rng = np.random.default_rng(0)
        src, dst, w = power_law_edges(100, 50, 1000, rng, src_type=1, dst_type=2)
        assert src.shape == dst.shape == w.shape == (1000,)
        assert ((src >= type_offset(1)) & (src < type_offset(2))).all()
        assert ((dst >= type_offset(2)) & (dst < type_offset(3))).all()
        assert (w > 0).all()

    def test_skewed_degrees(self):
        rng = np.random.default_rng(1)
        src, _, _ = power_law_edges(1000, 1000, 20000, rng, src_exponent=1.0)
        _, counts = np.unique(src, return_counts=True)
        # Power-law skew: the hottest source is far above the mean.
        assert counts.max() > 5 * counts.mean()

    def test_type_offset(self):
        assert type_offset(0) == 0
        assert type_offset(3) == 3 * TYPE_ID_STRIDE
        with pytest.raises(ConfigurationError):
            type_offset(-1)

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigurationError):
            power_law_edges(0, 10, 10, rng)
        with pytest.raises(ConfigurationError):
            power_law_edges(10, 10, -1, rng)


class TestSpecs:
    def test_published_sizes_match_table3(self):
        ogbn = DATASET_SPECS["OGBN"][0]
        assert ogbn.num_edges == 61_900_000
        assert ogbn.density == pytest.approx(25.8, abs=0.1)
        reddit = DATASET_SPECS["Reddit"][0]
        assert reddit.density == pytest.approx(489.3, abs=0.2)
        wechat = {s.name: s for s in DATASET_SPECS["WeChat"]}
        assert wechat["User-Live"].density == pytest.approx(62.06, abs=0.1)
        assert wechat["User-Attr"].density == pytest.approx(1.96, abs=0.01)
        assert wechat["Live-Live"].density == pytest.approx(49.62, abs=0.1)
        assert wechat["Live-Tag"].density == pytest.approx(1.99, abs=0.01)
        total_edges = sum(s.num_edges for s in DATASET_SPECS["WeChat"])
        assert total_edges == pytest.approx(65.88e9, rel=0.01)

    def test_scaling_preserves_density(self):
        spec = DATASET_SPECS["Reddit"][0]
        scaled = spec.scaled(1000)
        assert scaled.density == pytest.approx(spec.density, rel=0.01)
        with pytest.raises(ConfigurationError):
            spec.scaled(0.5)

    def test_min_nodes_floor(self):
        spec = RelationSpec("tiny", 0, 0, 0, 100, 100, 1000)
        scaled = spec.scaled(1000, min_nodes=64)
        assert scaled.num_src == 64


class TestPresets:
    def test_ogbn(self):
        data = ogbn_scaled(scale=10_000)
        assert data.name == "OGBN"
        assert len(data.relations) == 2  # forward + reversed twin
        assert len(data.forward_relations()) == 1
        rows = data.stats_rows()
        assert rows[0]["density"] == pytest.approx(25.8, rel=0.05)

    def test_reddit(self):
        data = reddit_scaled(scale=3000)
        assert data.stats_rows()[0]["density"] == pytest.approx(489.3, rel=0.05)

    def test_wechat_four_relations(self):
        data = wechat_scaled(scale=4_000_000)
        assert [r.spec.name for r in data.forward_relations()] == [
            "User-Live",
            "User-Attr",
            "Live-Live",
            "Live-Tag",
        ]
        # Bi-directed storage adds a reversed twin per relation.
        assert len(data.relations) == 8
        assert len({r.spec.etype for r in data.relations}) == 8
        user_live = data.relation("User-Live")
        assert (user_live.dst >= TYPE_ID_STRIDE).all()
        rev = data.relation("rev:User-Live")
        assert (rev.src == user_live.dst).all()
        assert (rev.dst == user_live.src).all()

    def test_bidirected_off(self):
        data = wechat_scaled(scale=4_000_000, bidirected=False)
        assert len(data.relations) == 4

    def test_load_dataset(self):
        assert load_dataset("OGBN", scale=20_000).name == "OGBN"
        assert load_dataset("WeChat").name == "WeChat"
        with pytest.raises(ConfigurationError):
            load_dataset("nope")

    def test_determinism(self):
        a = ogbn_scaled(scale=10_000, seed=5)
        b = ogbn_scaled(scale=10_000, seed=5)
        assert (a.relations[0].src == b.relations[0].src).all()

    def test_relation_lookup_error(self):
        with pytest.raises(ConfigurationError):
            ogbn_scaled(scale=10_000).relation("nope")


class TestStatistics:
    def test_published_rows(self):
        rows = published_table3_rows()
        assert len(rows) == 6  # OGBN + Reddit + 4 WeChat relations
        table = format_table3(rows)
        assert "63.30B" in table
        assert "489.27" in table or "489.3" in table


class TestRequestStream:
    def test_deterministic_by_seed(self):
        a = RequestStream(1000, exponent=1.2, seed=5)
        b = RequestStream(1000, exponent=1.2, seed=5)
        for batch_a, batch_b in zip(a.batches(64, 4), b.batches(64, 4)):
            assert np.array_equal(batch_a, batch_b)
        c = RequestStream(1000, exponent=1.2, seed=6)
        assert not np.array_equal(a.batch(64), c.batch(64))

    def test_hot_sources_ground_truth(self):
        stream = RequestStream(2000, exponent=1.4, seed=7)
        hot = stream.hot_sources(3)
        counts = {int(h): 0 for h in hot}
        for batch in stream.batches(256, 30):
            for src in batch:
                if int(src) in counts:
                    counts[int(src)] += 1
        observed = sorted(counts, key=counts.get, reverse=True)
        # The declared hottest key really dominates the trace.
        assert observed[0] == int(hot[0])
        assert counts[int(hot[0])] > 256 * 30 * 0.25

    def test_skew_concentration_grows_with_exponent(self):
        def top_share(exponent):
            stream = RequestStream(2000, exponent=exponent, seed=8)
            draws = np.concatenate(list(stream.batches(256, 20)))
            _, counts = np.unique(draws, return_counts=True)
            return counts.max() / draws.size

        assert top_share(0.6) < top_share(0.99) < top_share(1.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RequestStream(0)
        with pytest.raises(ConfigurationError):
            RequestStream(10, exponent=-0.1)
        stream = RequestStream(10)
        with pytest.raises(ConfigurationError):
            stream.batch(0)
        with pytest.raises(ConfigurationError):
            stream.hot_sources(-1)


class TestEdgeStream:
    def test_build_batches_cover_everything(self):
        data = ogbn_scaled(scale=20_000)
        stream = EdgeStream(data)
        total = 0
        for batch in stream.build_batches(97):
            assert len(batch) <= 97
            total += len(batch)
        assert total == data.num_edges

    def test_live_set_matches_store(self):
        data = ogbn_scaled(scale=20_000)
        stream = EdgeStream(data, seed=3)
        store = DynamicGraphStore()
        for batch in stream.build_batches(256):
            store.apply_edge_batch(batch)
        assert store.num_edges == len(live_edges(stream))
        for batch in stream.churn_batches(128, 6, mix=(0.4, 0.3, 0.3)):
            store.apply_edge_batch(batch)
        assert store.num_edges == len(live_edges(stream))

    #: sha256 of every churn batch's columns (src, dst, weight, etype,
    #: op bytes) after a 4096-row build, per (seed, mix): the op
    #: sequence the stream has always drawn.
    CHURN_DIGESTS = {
        (0, (0.5, 0.3, 0.2)): "9f44c26d7a92b0aca1354c7079a4c3ed46c67ed9b553fc7339bc42ca0a2bfb45",
        (0, (0.2, 0.3, 0.5)): "f1e73bde21f5095abb376a8ab4502cec004318bc0b5c177fb06af99810dfd56d",
        (7, (0.5, 0.3, 0.2)): "e51fe26a990cfe0a4cb025049e62738a302606f22c3a8253301c1b3613684743",
        (7, (0.2, 0.3, 0.5)): "e9ec5e05d1d63dfb39fd4b56868e250266116bcd796cb4ac6b312371d73f6e88",
    }

    @pytest.mark.parametrize("seed, mix", sorted(CHURN_DIGESTS))
    def test_churn_op_sequence_is_pinned(self, seed, mix):
        stream = EdgeStream(ogbn_scaled(scale=20_000), seed=seed)
        for _ in stream.build_batches(4096):
            pass
        digest = hashlib.sha256()
        rows = 0
        for batch in stream.churn_batches(64, 6, mix):
            rows += len(batch)
            for column in (batch.src, batch.dst, batch.weight, batch.etype,
                           batch.op):
                digest.update(column.tobytes())
        assert rows == 384
        assert digest.hexdigest() == self.CHURN_DIGESTS[seed, mix]

    def test_mix_validation(self):
        stream = EdgeStream(ogbn_scaled(scale=20_000))
        with pytest.raises(ConfigurationError):
            list(stream.churn_batches(10, 1, mix=(0, 0, 0)))
        with pytest.raises(ConfigurationError):
            list(stream.build_batches(0))

    def test_delete_only_churn_drains(self):
        data = ogbn_scaled(scale=20_000)
        stream = EdgeStream(data, seed=1)
        store = DynamicGraphStore()
        for batch in stream.build_batches(512):
            store.apply_edge_batch(batch)
        before = len(live_edges(stream))
        for batch in stream.churn_batches(64, 3, mix=(0.0, 0.0, 1.0)):
            assert (batch.op == OP_DELETE).all()
            store.apply_edge_batch(batch)
        assert len(live_edges(stream)) < before
        assert store.num_edges == len(live_edges(stream))
