"""The cluster registry's exported series inventory.

One cluster carries every ``repro_*`` family at once: replicated,
durable shards, a fault injector, a retry policy, a hot-set tracker, a
network model, an inference service, a monitor and a flight recorder.
After a seeded round of churn, sampling and serving, the sorted
``(name, labels, kind)`` set of ``registry.snapshot()`` must equal the
recorded ``tests/data/registry_series.json`` — with every replica up,
with replica 0 of shard 0 crashed, and after it recovers — and every
sample backed by a ``*Stats`` holder must equal the attribute it reads
(0 for the crashed replica's store).

Regenerate the inventory only when a family is meant to appear or go::

    PYTHONPATH=src python tests/test_registry_series.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.ingest import EdgeBatch
from repro.distributed.cluster import LocalCluster
from repro.distributed.faults import FaultPolicy
from repro.distributed.retry import RetryPolicy
from repro.distributed.rpc import NetworkModel
from repro.gnn.models import GraphSAGE
from repro.serving.service import InferenceService
from repro.storage.attributes import AttributeStore

INVENTORY = Path(__file__).resolve().parent / "data" / "registry_series.json"

NUM_SOURCES = 48

#: Derived read-outs each holder exports beside its counter fields.
DERIVED_GAUGES = {
    "repro_samtree": ("leaf_fraction",),
    "repro_snapshot_cache": ("hit_rate",),
    "repro_cache": ("coalesce_rate",),
    "repro_serving": ("availability",),
}

#: A topology store's holders: ``(prefix, attribute path)``.
STORE_HOLDERS = (
    ("repro_samtree", ("stats",)),
    ("repro_snapshot_cache", ("snapshot_cache", "stats")),
    ("repro_ingest", ("ingest_stats",)),
    ("repro_frozen", ("frozen_stats",)),
)

WAL_LEDGER = ("records_appended", "bytes_appended")


def _resolve(root, path):
    for attr in path:
        root = getattr(root, attr)
    return root


def build_rig():
    """The every-family cluster and its service, after one seeded round
    of churn, sampling and serving."""
    network = NetworkModel()
    cluster = LocalCluster(
        num_servers=3,
        replication_factor=2,
        durable=True,
        network=network,
        fault_policy=FaultPolicy(),
        retry=RetryPolicy(seed=0),
        hot_set_capacity=16,
    )
    rng = np.random.default_rng(0)
    srcs = np.repeat(np.arange(NUM_SOURCES, dtype=np.int64), 4)
    dsts = rng.integers(0, NUM_SOURCES, srcs.size).astype(np.int64)
    cluster.client.bulk_load(srcs, dsts, 1.0)
    features = AttributeStore()
    features.register("feat", 8)
    features.put_many(
        "feat",
        list(range(NUM_SOURCES)),
        rng.standard_normal((NUM_SOURCES, 8)).astype(np.float32),
    )
    encoder = GraphSAGE(8, 8, 4, num_layers=2, rng=np.random.default_rng(1))
    service = InferenceService(cluster, features, encoder, (3, 2))
    cluster.attach_monitor(interval=0.01)
    cluster.attach_recorder()
    _round(cluster, service, rng)
    return cluster, service


def _round(cluster, service, rng):
    client = cluster.client
    churn = rng.integers(0, NUM_SOURCES, (2, 32)).astype(np.int64)
    client.apply_edge_batch(EdgeBatch(churn[0], churn[1], 2.0))
    client.add_edge(1, 2, 0.5)
    cluster.freeze_all()
    for _ in range(3):
        client.sample_neighbors_many(
            rng.integers(0, NUM_SOURCES, 24).tolist(), 3, rng
        )
    for v in rng.integers(0, NUM_SOURCES, 6).tolist():
        service.submit([v])
    service.flush()
    cluster.monitor.scrape()


def series(snapshot):
    """Sorted ``[name, labels, kind]`` rows of a registry snapshot."""
    rows = []
    for key, kind in snapshot.kinds.items():
        name, brace, labels = key.partition("{")
        rows.append([name, brace + labels, kind])
    return sorted(rows)


def holder_expectations(cluster, service):
    """``key -> value`` for every holder-backed series: the attribute
    each reads, 0 for a down replica's store."""
    expected = {}

    def expect(prefix, holder, labels="", fields=None):
        names = list(fields or holder.counters())
        names += DERIVED_GAUGES.get(prefix, ())
        for name in names:
            expected[f"{prefix}_{name}{labels}"] = float(getattr(holder, name))

    expect("repro_network", cluster.network.stats)
    expect("repro_faults", cluster.fault_injector.stats)
    expect("repro_retry", cluster.retry.stats)
    expect("repro_cache", cluster.client.serving_stats)
    expect("repro_hotset", cluster.hot_tracker.stats)
    expect("repro_serving", service.stats)
    for shard, group in enumerate(cluster.replica_groups):
        for r, server in enumerate(group):
            labels = f'{{replica="{r}",shard="{shard}"}}'
            expect("repro_server", server.stats, labels)
            expect("repro_wal", server.wal, labels, WAL_LEDGER)
            live = next(s.store for s in group if s.store is not None)
            for prefix, path in STORE_HOLDERS:
                if server.store is not None:
                    expect(prefix, _resolve(server.store, path), labels)
                    continue
                for name in _resolve(live, path).counters():
                    expected[f"{prefix}_{name}{labels}"] = 0.0
                for name in DERIVED_GAUGES.get(prefix, ()):
                    expected[f"{prefix}_{name}{labels}"] = 0.0
    return expected


@pytest.fixture(scope="module")
def rig():
    return build_rig()


def _check(cluster, service):
    snap = cluster.registry.snapshot()
    recorded = json.loads(INVENTORY.read_text(encoding="utf-8"))
    assert series(snap) == recorded
    expected = holder_expectations(cluster, service)
    assert set(expected) <= set(snap.scalars)
    wrong = {
        key: (snap.scalars[key], value)
        for key, value in expected.items()
        if snap.scalars[key] != value
    }
    assert not wrong, wrong
    return snap


def test_all_replicas_up(rig):
    snap = _check(*rig)
    key = 'repro_samtree_leaf_ops{replica="0",shard="0"}'
    assert snap.scalars[key] > 0


def test_replica_crashed(rig):
    cluster, service = rig
    cluster.crash(0, 0)
    _round(cluster, service, np.random.default_rng(1))
    snap = _check(cluster, service)
    assert snap.scalars['repro_samtree_leaf_ops{replica="0",shard="0"}'] == 0


def test_replica_recovered(rig):
    cluster, service = rig
    cluster.recover(0, 0)
    _round(cluster, service, np.random.default_rng(2))
    _check(cluster, service)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    cluster, _ = build_rig()
    rows = series(cluster.registry.snapshot())
    INVENTORY.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n",
        encoding="utf-8",
    )
