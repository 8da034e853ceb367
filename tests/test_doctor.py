"""Tests for the samtree doctor.

Pins the structural-health observability contract (DESIGN.md §12):

* the doctor's per-component byte breakdown sums **exactly** to
  ``nbytes()`` — under bulk build, under a 100k-edge churn workload,
  and across cluster crash/recovery;
* fill factors land in ``(0, 1]`` and depth equals the measured tree
  height; node counts match an independent walk;
* the ``--fail-on`` threshold gate (parsing + violations + CLI exit 3);
* the Prometheus export is derived from ``to_dict()``: every numeric
  leaf is exactly one sample with the same value.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.baselines.platogl import PlatoGLStore
from repro.cli import main as cli_main
from repro.core.ingest import OP_UPDATE
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.distributed import LocalCluster
from repro.errors import ConfigurationError
from repro.obs import (
    check_thresholds,
    diagnose,
    diagnose_cluster,
    diagnose_store,
    lint_prometheus,
    parse_fail_on,
    to_prometheus_text,
)
from repro.obs.doctor import FILL_BINS


def _churned_store(
    num_edges=100_000, num_sources=500, capacity=32, seed=7
) -> DynamicGraphStore:
    """Bulk build + trickle churn (inserts, updates, deletes)."""
    rng = random.Random(seed)
    store = DynamicGraphStore(SamtreeConfig(capacity=capacity))
    srcs = [rng.randrange(num_sources) for _ in range(num_edges)]
    dsts = [rng.randrange(num_edges) for _ in range(num_edges)]
    store.bulk_load(srcs, dsts, 1.0)
    for _ in range(num_edges // 20):
        store.add_edge(
            rng.randrange(num_sources), rng.randrange(num_edges), rng.random()
        )
        store.remove_edge(
            rng.randrange(num_sources), rng.randrange(num_edges)
        )
    return store


class TestDoctorInvariants:
    def test_breakdown_sums_exactly_to_nbytes_after_bulk_build(self):
        rng = random.Random(0)
        store = DynamicGraphStore(SamtreeConfig(capacity=16))
        store.bulk_load(
            [rng.randrange(50) for _ in range(5000)],
            [rng.randrange(5000) for _ in range(5000)],
            1.0,
        )
        report = diagnose_store(store)
        assert report.total_bytes == store.nbytes()
        assert report.total_bytes == sum(report.components.values())

    def test_breakdown_sums_exactly_on_100k_edge_churned_store(self):
        store = _churned_store()
        report = diagnose_store(store)
        # The acceptance criterion: exact equality, not approximate.
        assert report.total_bytes == store.nbytes()
        assert report.num_edges == store.num_edges
        assert report.num_trees == store.num_sources

    def test_fill_in_unit_interval_and_depth_matches_height(self):
        store = _churned_store(num_edges=20_000, num_sources=100)
        report = diagnose_store(store)
        assert 0.0 < report.fill.min <= report.fill.max <= 1.0
        assert 0.0 < report.fill.mean <= 1.0
        assert sum(report.fill.bins) == report.fill.count == report.num_leaves
        # Depth histogram == independently measured heights.
        heights = {}
        for _, tree in store.iter_trees():
            heights[tree.height] = heights.get(tree.height, 0) + 1
        assert report.depth_hist == heights
        assert report.max_depth == max(heights)

    def test_node_counts_match_independent_walk(self):
        store = _churned_store(num_edges=10_000, num_sources=50)
        report = diagnose_store(store)
        leaves = internals = 0
        for _, tree in store.iter_trees():
            for node, depth in tree.iter_nodes():
                assert 1 <= depth <= tree.height
                if node.is_leaf:
                    leaves += 1
                else:
                    internals += 1
        assert report.num_leaves == leaves
        assert report.num_internal == internals
        # FSTable count == leaves, CSTable count == internal nodes.
        d = report.to_dict()
        assert d["num_fstables"] == leaves
        assert d["num_cstables"] == internals

    def test_split_imbalance_accumulates_and_is_bounded(self):
        tree = Samtree(SamtreeConfig(capacity=8))
        rng = random.Random(3)
        for v in range(500):
            tree.insert(v * 7919 % 100_000, rng.random())
        assert tree.stats.leaf_splits > 0
        assert 0.0 <= tree.stats.mean_split_imbalance < 1.0

    def test_counters_flow_through_report(self):
        store = _churned_store(num_edges=20_000, num_sources=100)
        report = diagnose_store(store)
        assert report.counters["leaf_splits"] == store.stats.leaf_splits
        assert report.counters["merges"] == store.stats.merges
        assert (
            report.counters["trees_created"]
            == store.ingest_stats.trees_created
        )
        assert report.mean_split_imbalance == pytest.approx(
            store.stats.mean_split_imbalance
        )

    def test_read_image_rows_and_direct_tree_mutation(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        for src in range(3):
            for dst in range(4 + 2 * (src == 0)):  # source 0 outgrows c
                store.add_edge(src, dst, 1.0 + dst)
        store.sample_neighbors_many([0, 1, 2], 2, rng=0)
        store.update_edge(1, 0, 9.0)  # a slab row: written in place, clean
        report = diagnose_store(store)
        assert report.cache_entries == 3 and report.cache_stale_rows == 0
        assert (report.slab_rows, report.promoted) == (2, 1)
        store.tree(0).insert(99, 1.0)  # a samtree, behind the store's back
        report = diagnose_store(store)
        assert report.cache_stale_rows == 1
        assert report.to_dict()["snapshot_cache"]["stale_rows"] == 1
        # A slab row is read in place: a row op behind the store's back
        # is what the next draw reads, nothing goes stale ...
        store.slab.apply(store.directory.get(0, 2), OP_UPDATE, 0, 7.0)
        assert diagnose_store(store).cache_stale_rows == 1
        # ... until the directory stops mapping the key to the row
        store.directory.put(0, 2, store.directory.get(0, 1))
        assert diagnose_store(store).cache_stale_rows == 2

    def test_diagnose_dispatch_and_bad_target(self):
        store = DynamicGraphStore()
        store.add_edge(1, 2, 1.0)
        assert diagnose(store).scope == "store"
        with pytest.raises(ConfigurationError):
            diagnose(object())

    def test_a_baseline_store_is_refused_by_name(self):
        """A baseline store has no samtrees to walk: the doctor refuses
        it, and a cluster of them, with the store type in the error."""
        store = PlatoGLStore()
        store.add_edge(1, 2, 1.0)
        cluster = LocalCluster(num_servers=2, store_factory=PlatoGLStore)
        cluster.client.add_edge(1, 2, 1.0)
        for call in (
            lambda: diagnose_store(store),
            lambda: diagnose_cluster(cluster),
            lambda: diagnose(store),
            lambda: diagnose(cluster),
        ):
            with pytest.raises(ConfigurationError, match="PlatoGLStore"):
                call()


class TestDoctorCluster:
    def _cluster(self, durable=True, replicas=1):
        rng = random.Random(11)
        cluster = LocalCluster(
            num_servers=3,
            config=SamtreeConfig(capacity=16),
            durable=durable,
            replication_factor=replicas,
        )
        n = 200
        cluster.client.bulk_load(
            [rng.randrange(n) for _ in range(20_000)],
            [rng.randrange(20_000) for _ in range(20_000)],
            1.0,
        )
        for _ in range(500):
            cluster.client.add_edge(
                rng.randrange(n), rng.randrange(20_000), rng.random()
            )
            cluster.client.remove_edge(
                rng.randrange(n), rng.randrange(20_000)
            )
        return cluster

    def test_cluster_totals_reconcile_with_total_nbytes(self):
        cluster = self._cluster()
        report = diagnose_cluster(cluster)
        assert report.scope == "cluster"
        assert report.num_shards_seen == 3
        wal_bytes = sum(
            s.wal.nbytes for s in cluster.servers if s.wal is not None
        )
        assert (
            report.total_bytes == cluster.total_nbytes() + wal_bytes
        )
        assert "wal" in report.components
        assert "attributes" not in report.components  # shards hold no features

    def test_chaos_crash_recover_keeps_invariants(self):
        cluster = self._cluster(replicas=2)
        before = diagnose_cluster(cluster)
        # Crash a primary: the doctor walks live primaries only.
        cluster.crash(0)
        degraded = diagnose_cluster(cluster)
        assert degraded.num_shards_seen == 2
        assert degraded.total_bytes == sum(degraded.components.values())
        assert degraded.num_edges < before.num_edges
        # Recover via peer state transfer and re-diagnose: totals and
        # structure are whole again and the breakdown still partitions.
        cluster.recover(0)
        healed = diagnose_cluster(cluster)
        assert healed.num_shards_seen == 3
        assert healed.num_edges == before.num_edges
        assert healed.num_trees == before.num_trees
        assert healed.total_bytes == sum(healed.components.values())
        wal_bytes = sum(
            s.wal.nbytes for s in cluster.servers if s.wal is not None
        )
        assert healed.total_bytes == cluster.total_nbytes() + wal_bytes

    def test_registry_export_lints(self):
        cluster = self._cluster(durable=False)
        report = diagnose_cluster(cluster)
        text = to_prometheus_text(report.to_registry())
        stats = lint_prometheus(text)
        assert stats["samples"] > 20
        assert "repro_doctor_memory_total_bytes" in text
        assert "repro_doctor_memory_components_leaf_nodes" in text
        for name in ("rows", "promoted", "garbage_share"):
            assert f"repro_doctor_slab_{name} " in text
        slab = report.to_dict()["slab"]
        assert slab["rows"] + slab["promoted"] == report.num_trees
        assert 0.0 <= slab["garbage_share"] <= 1.0


def _numeric_leaves(node, path=(), labels=()):
    """``(series key, value)`` of every numeric leaf of a ``to_dict()``
    payload, named by the export's flatten rule."""
    if isinstance(node, (dict, list)):
        label = "key" if isinstance(node, dict) else "index"
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            if isinstance(key, str) and key.isidentifier():
                yield from _numeric_leaves(child, path + (key,), labels)
            else:
                yield from _numeric_leaves(
                    child, path, labels + ((label, str(key)),)
                )
    elif isinstance(node, (int, float)):
        name = "_".join(("repro_doctor",) + path)
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels))
        yield (f"{name}{{{inner}}}" if inner else name), float(node)


def _exposition_samples(text):
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            assert key not in samples, key
            samples[key] = float(value)
    return samples


class TestDoctorExport:
    """``to_registry`` is one flatten of ``to_dict()``: no field of the
    report can miss the exposition."""

    def _assert_every_leaf_is_one_sample(self, payload, text):
        lint_prometheus(text)
        leaves = dict(_numeric_leaves(payload))
        assert len(leaves) == len(list(_numeric_leaves(payload)))
        assert _exposition_samples(text) == leaves

    def test_default_cli_cluster(self, capsys):
        assert cli_main(["doctor", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert cli_main(["doctor", "--format", "prometheus"]) == 0
        text = capsys.readouterr().out
        self._assert_every_leaf_is_one_sample(payload, text)
        assert len(_exposition_samples(text)) == 87
        assert 'repro_doctor_depth_histogram{key="2"}' in text
        assert 'repro_doctor_fill_bins{index="9"}' in text
        assert "repro_doctor_serving_coalesce_rate" in text

    def test_frozen_single_store(self):
        store = _churned_store(num_edges=4_000, num_sources=60)
        store.freeze()
        store.add_edge(0, 1, 1.0)
        store.sample_neighbors_many(list(range(60)), 3, rng=0)
        report = diagnose_store(store)
        payload = report.to_dict()
        assert payload["serving"] is None and payload["scope"] == "store"
        assert payload["snapshot_cache"]["alias_served"] > 0
        text = to_prometheus_text(report.to_registry())
        self._assert_every_leaf_is_one_sample(payload, text)
        assert "repro_doctor_serving" not in text
        assert "repro_doctor_scope" not in text


class TestThresholdGate:
    def _healthy_report(self):
        return diagnose_store(_churned_store(num_edges=20_000,
                                             num_sources=100))

    def test_parse_fail_on(self):
        checks = parse_fail_on("fill=0.4, depth=4,imbalance=0.5,bytes=64MB")
        assert ("fill", 0.4) in checks
        assert ("depth", 4.0) in checks
        assert ("imbalance", 0.5) in checks
        assert ("bytes", 64 * (1 << 20)) in checks
        with pytest.raises(ConfigurationError):
            parse_fail_on("fill")
        with pytest.raises(ConfigurationError):
            parse_fail_on("nope=3")
        with pytest.raises(ConfigurationError):
            parse_fail_on("fill=abc")

    def test_healthy_store_passes_and_rotten_bounds_fail(self):
        report = self._healthy_report()
        assert check_thresholds(report, parse_fail_on("fill=0.4")) == []
        assert check_thresholds(report, parse_fail_on("depth=10")) == []
        violations = check_thresholds(
            report, parse_fail_on("fill=0.99,depth=1,bytes=1kb")
        )
        assert len(violations) == 3
        assert any("fill" in v for v in violations)
        assert any("depth" in v for v in violations)
        assert any("bytes" in v for v in violations)

    def test_cli_doctor_json_and_gate(self, capsys):
        args = ["doctor", "--vertices", "50", "--edges", "3000",
                "--capacity", "16", "--shards", "2"]
        assert cli_main(args + ["--format", "json"]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert payload["memory"]["total_bytes"] == sum(
            payload["memory"]["components"].values()
        )
        # Prometheus output lints (the CLI lints internally; exit 0).
        assert cli_main(args + ["--format", "prometheus"]) == 0
        capsys.readouterr()
        # Healthy gate passes; impossible gate exits 3.
        assert cli_main(args + ["--fail-on", "fill=0.3,depth=5"]) == 0
        capsys.readouterr()
        assert cli_main(args + ["--fail-on", "bytes=1b"]) == 3


def test_fill_bins_cover_unit_interval():
    """Every fill in (0, 1] lands in exactly one of the FILL_BINS bins."""
    from repro.obs.doctor import _FillStats

    fs = _FillStats()
    for i in range(1, 1001):
        fs.add(i / 1000.0)
    assert sum(fs.bins) == 1000
    assert fs.count == 1000
    assert fs.min == pytest.approx(0.001)
    assert fs.max == 1.0
    # Exact boundaries: 0.1 is the top of bin 0, 0.1000...1 starts bin 1.
    edge = _FillStats()
    for f, expected_bin in ((0.1, 0), (0.1001, 1), (1.0, FILL_BINS - 1),
                            (0.0, 0)):
        edge.add(f)
    assert edge.bins[0] == 2  # 0.1 and 0.0
    assert edge.bins[1] == 1
    assert edge.bins[FILL_BINS - 1] == 1
