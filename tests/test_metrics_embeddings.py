"""Tests for observability (metrics) and unsupervised walk embeddings."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, VertexNotFoundError
from repro.gnn.embeddings import EmbeddingTable, SkipGramTrainer
from repro.obs.hist import LatencyHistogram


class TestLatencyHistogram:
    def test_record_and_stats(self):
        hist = LatencyHistogram()
        for us in (1, 2, 4, 100, 1000):
            hist.record(us * 1e-6)
        assert hist.count == 5
        assert hist.mean == pytest.approx(1107 * 1e-6 / 5, rel=0.01)
        assert hist.max == pytest.approx(1e-3)
        assert hist.percentile(0.5) <= hist.percentile(0.99)

    def test_percentile_bounds(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.99) == 0.0
        hist.record(5e-6)
        with pytest.raises(ConfigurationError):
            hist.percentile(1.5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().record(-1.0)

    def test_reset(self):
        hist = LatencyHistogram()
        hist.record(1e-6)
        hist.reset()
        assert hist.count == 0 and hist.mean == 0.0

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(1e-5)
        assert set(hist.summary()) == {"count", "mean", "p50", "p99", "max"}


class TestEmbeddingTable:
    def test_allocation(self):
        table = EmbeddingTable(8, np.random.default_rng(0))
        i = table.index_of(42, create=True)
        assert i == 0
        assert table.index_of(42) == 0
        assert 42 in table and 43 not in table
        assert len(table) == 1
        assert table.vector(42).shape == (8,)
        with pytest.raises(VertexNotFoundError):
            table.vector(43)

    def test_rows_ordering(self):
        table = EmbeddingTable(4, np.random.default_rng(0))
        for v in (9, 3, 7):
            table.index_of(v, create=True)
        assert table.vertices() == [9, 3, 7]
        assert table.rows.shape == (3, 4)

    def test_dim_validation(self):
        with pytest.raises(ConfigurationError):
            EmbeddingTable(0, np.random.default_rng(0))


class TestSkipGramTrainer:
    def two_cluster_store(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=16))
        rng = random.Random(0)
        # Two dense cliques bridged by nothing: walks stay inside.
        for base in (0, 100):
            nodes = list(range(base, base + 12))
            for a in nodes:
                for b in rng.sample(nodes, 5):
                    if a != b:
                        store.add_edge(a, b, 1.0)
        return store

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SkipGramTrainer(num_negatives=0)
        with pytest.raises(ConfigurationError):
            SkipGramTrainer(lr=0.0)

    def test_empty_pairs(self):
        assert SkipGramTrainer().train_pairs([]) == 0.0

    def test_loss_decreases(self):
        trainer = SkipGramTrainer(dim=16, seed=1)
        store = self.two_cluster_store()
        seeds = list(store.sources())
        first = trainer.train_from_store(store, seeds, epochs=1)
        last = trainer.train_from_store(store, seeds, epochs=3)
        assert last < first

    def test_clusters_separate(self):
        trainer = SkipGramTrainer(dim=16, lr=0.05, seed=2)
        store = self.two_cluster_store()
        seeds = list(store.sources()) * 3
        for _ in range(4):
            trainer.train_from_store(store, seeds, walk_length=8, window=2)
        # Intra-cluster similarity should beat inter-cluster similarity.
        intra = trainer.similarity(0, 1)
        inter = trainer.similarity(0, 100)
        assert intra > inter

    def test_most_similar_prefers_same_cluster(self):
        trainer = SkipGramTrainer(dim=16, lr=0.05, seed=3)
        store = self.two_cluster_store()
        seeds = list(store.sources()) * 4
        for _ in range(8):
            trainer.train_from_store(store, seeds, walk_length=10, window=2)
        # Averaged over several query vertices, same-cluster hits dominate
        # (single-query top-k is noisy at this tiny scale).
        same_cluster = 0
        total = 0
        for query in (0, 1, 2, 100, 101, 102):
            for v, _ in trainer.most_similar(query, k=5):
                total += 1
                if (v < 100) == (query < 100):
                    same_cluster += 1
        assert same_cluster / total > 0.6

    def test_most_similar_excludes_self(self):
        trainer = SkipGramTrainer(dim=8, seed=4)
        trainer.train_pairs([(1, 2), (2, 1), (1, 3)])
        assert all(v != 1 for v, _ in trainer.most_similar(1, k=2))
