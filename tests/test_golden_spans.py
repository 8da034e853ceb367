"""Traced span trees are pinned: every span's name, parent and tags.

Four seeded runs are traced and each finished trace is flattened in
pre-order to ``(name, parent position, status, tags)`` rows (tags in
insertion order, values by ``repr`` so an int that becomes a numpy
scalar shows).  A run's rows are pinned by count and sha256:

* ``serving`` — a ``build_serving_rig(trace=True)`` replay of a
  ``churn_burst`` scenario: 50 requests and one columnar churn batch;
* ``failover`` — a 4-shard, 2-replica client reading with one
  primary down, then a degraded read over a fully crashed shard, then
  reads through a retry policy under seeded transient faults (failed
  ``rpc.attempt`` spans and ``rpc.backoff``);
* ``writes`` — scalar add, update and remove writes, and one columnar
  batch;
* ``training`` — one ``Trainer.train_step`` on a cluster client.

Span timings are not pinned; the tree, the names and the tags are.
Regenerate (only when a change is *meant* to move the traced output)
with ``PYTHONPATH=src python tests/test_golden_spans.py`` and paste the
printed table over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.distributed import LocalCluster
from repro.distributed.faults import FaultPolicy
from repro.distributed.retry import RetryPolicy
from repro.distributed.rpc import NetworkModel
from repro.gnn.models import GraphSAGE
from repro.gnn.training import Trainer
from repro.obs.trace import Tracer
from repro.serving.scenarios import (
    ScenarioRunner,
    build_serving_rig,
    churn_burst,
)
from repro.storage.attributes import AttributeStore


def span_rows(tracer: Tracer) -> list:
    """Every finished trace, flattened in pre-order."""
    rows = []
    for root in tracer.traces():
        position = {}
        for span in root.walk():
            position[span.span_id] = len(position)
            rows.append([
                span.name,
                position.get(span.parent_id, -1),
                span.status,
                [[key, repr(value)] for key, value in span.tags.items()],
            ])
    return rows


def _traced_cluster(**kw):
    network = NetworkModel()
    tracer = Tracer(clock=network.now, max_traces=4096)
    cluster = LocalCluster(network=network, tracer=tracer, **kw)
    return cluster, tracer


def serving_rows() -> list:
    rig = build_serving_rig(num_sources=400, seed=11, trace=True)
    scenario = churn_burst(
        rig.num_sources,
        seed=11,
        duration=0.25,
        rate=200.0,
        burst_start=0.1,
        burst_end=0.125,
        writes_per_second=40.0,
    )
    assert sum(kind == "request" for _, kind, _ in scenario.events) == 50
    assert sum(kind == "churn" for _, kind, _ in scenario.events) == 1
    ScenarioRunner(rig, scenario).run()
    return span_rows(rig.tracer)


def failover_rows() -> list:
    cluster, tracer = _traced_cluster(
        num_servers=4,
        config=SamtreeConfig(capacity=8),
        replication_factor=2,
        durable=True,
        degraded_reads=True,
    )
    client = cluster.client
    rng = np.random.default_rng(3)
    client.bulk_load(np.arange(80) % 40, rng.integers(0, 500, 80), 1.0)
    tracer.reset()
    cluster.crash(0, replica=0)
    client.sample_neighbors_many(list(range(12)), 3, rng)
    client.degree(5)
    cluster.crash_shard(1)
    client.sample_neighbors_many(list(range(12)), 2, rng)
    client.neighbors(
        next(s for s in range(40) if cluster.partitioner.shard_for(s) == 1)
    )

    retried, retry_tracer = _traced_cluster(
        num_servers=4,
        fault_policy=FaultPolicy(transient_error_rate=0.4),
        fault_seed=5,
        retry=RetryPolicy(max_attempts=6, seed=2),
    )
    retried.client.bulk_load(np.arange(40), np.arange(40) + 100, 1.0)
    retry_tracer.reset()
    for _ in range(4):
        retried.client.sample_neighbors_many(list(range(20)), 2, rng)
    return span_rows(tracer) + span_rows(retry_tracer)


def write_rows() -> list:
    cluster, tracer = _traced_cluster(
        num_servers=4, config=SamtreeConfig(capacity=8), durable=True
    )
    client = cluster.client
    for src in range(6):
        client.add_edge(src, src + 10, 1.5)
    client.update_edge(2, 12, 4.0)
    client.remove_edge(3, 13)
    rng = np.random.default_rng(4)
    m = 60
    client.apply_edge_batch(EdgeBatch(
        rng.integers(0, 30, m),
        rng.integers(0, 300, m),
        rng.random(m),
        None,
        rng.choice(np.array([OP_INSERT, OP_UPDATE, OP_DELETE], np.uint8), m),
    ))
    return span_rows(tracer)


def training_rows() -> list:
    cluster, tracer = _traced_cluster(num_servers=4)
    rng = np.random.default_rng(6)
    sources = 200
    src = np.repeat(np.arange(sources, dtype=np.int64), 4)
    cluster.client.bulk_load(src, rng.integers(0, sources, src.size), 1.0)
    features = AttributeStore()
    features.register("feat", 8)
    features.put_many(
        "feat",
        list(range(sources)),
        rng.standard_normal((sources, 8)).astype(np.float32),
    )
    model = GraphSAGE(8, 8, 3, num_layers=2, rng=np.random.default_rng(1))
    trainer = Trainer(
        cluster.client, features, model, [3, 2], rng=random.Random(2)
    )
    tracer.reset()
    seeds = rng.integers(0, sources, 16).tolist()
    trainer.train_step(seeds, [s % 3 for s in seeds])
    return span_rows(tracer)


RUNS = {
    "serving": serving_rows,
    "failover": failover_rows,
    "writes": write_rows,
    "training": training_rows,
}


def digest(rows: list) -> tuple:
    data = json.dumps(rows, separators=(",", ":")).encode()
    return len(rows), hashlib.sha256(data).hexdigest()


PINNED = {
    "serving": (993, "b898c3b04757e93f5187b06e57fbdd99a52fd950d414dd94294f12fd83572a0d"),
    "failover": (148, "21e796e26c282cf16610984fde146f8ad45191ebafe9740525dbfe67b557222a"),
    "writes": (37, "2d4844f97cb4460f18fcd331a10eecedb5e213dd3d56fa750e157b82d1874200"),
    "training": (40, "eb6ae97f36f8caa142351c78b556817602cc48c510b896e810b38eb29ed78cf1"),
}


def test_traced_span_trees_are_pinned():
    assert {name: digest(run()) for name, run in RUNS.items()} == PINNED


if __name__ == "__main__":
    print("PINNED = {")
    for name, run in RUNS.items():
        count, sha = digest(run())
        print(f'    "{name}": ({count}, "{sha}"),')
    print("}")
