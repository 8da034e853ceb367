"""Byte figures of every store under the one byte layout.

``repro.core.memory`` fixes the layout as module constants; these tests
pin the figures it yields on seeded stores, so a change to any store's
accounting (or to a constant) shows up as a changed number, not only as
a broken formula.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.aligraph import AliGraphStore
from repro.baselines.platogl import PlatoGLStore
from repro.baselines.static_csr import StaticCSRStore
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.distributed.cluster import LocalCluster
from repro.obs.doctor import diagnose
from repro.storage.attributes import AttributeStore


def _edges():
    """Two relations, each with hubs past a samtree's capacity and many
    small sources that stay slab rows."""
    rng = random.Random(11)
    rows = []
    for etype, hubs in ((0, 3), (5, 2)):
        for src in range(hubs):
            for _ in range(150):
                dst = rng.randrange(1 << 20)
                rows.append((src, dst, 0.1 + rng.random(), etype))
        for src in range(10, 70):
            for _ in range(rng.randrange(1, 9)):
                dst = rng.randrange(1 << 12)
                rows.append((src, dst, 0.1 + rng.random(), etype))
    return rows


def _load(store):
    """Insert every edge, then delete every seventh."""
    rows = _edges()
    for src, dst, weight, etype in rows:
        store.add_edge(src, dst, weight, etype)
    for src, dst, _, etype in rows[::7]:
        store.remove_edge(src, dst, etype)
    return store


def _mixed_store(compress):
    """Slab rows and samtrees, a read image on both relations, one of
    them frozen."""
    config = SamtreeConfig(capacity=16, compress=compress)
    store = _load(DynamicGraphStore(config))
    rng = np.random.default_rng(3)
    for etype in (0, 5):
        store.sample_neighbors_many(list(range(40)), 4, rng, etype)
    store.freeze(5)
    return store


MIXED_BREAKDOWN = {
    True: {
        "leaf_nodes": 7370, "fstables": 4460, "internal_nodes": 1260,
        "cstables": 236, "directory": 6144, "snapshot_cache": 7704,
        "frozen": 3221,
    },
    False: {
        "leaf_nodes": 11768, "fstables": 4460, "internal_nodes": 1260,
        "cstables": 236, "directory": 6144, "snapshot_cache": 7704,
        "frozen": 3221,
    },
}


@pytest.mark.parametrize("compress", [True, False])
def test_mixed_store_breakdown_is_pinned(compress):
    store = _mixed_store(compress)
    assert len(store.directory.trees) == 5
    assert len(store.slab.live_rows()) > 0
    breakdown = store.nbytes_breakdown()
    assert breakdown == MIXED_BREAKDOWN[compress]
    assert store.nbytes() == sum(breakdown.values())


def test_baseline_figures_are_pinned():
    assert _load(PlatoGLStore(block_size=8)).nbytes() == 51124
    aligraph = _load(AliGraphStore())
    assert (aligraph.nbytes(), aligraph.peak_nbytes()) == (85264, 213160)
    assert _load(StaticCSRStore()).nbytes() == 34212


def test_attribute_store_figure_is_pinned():
    attrs = AttributeStore()
    attrs.register("feat", 6)
    attrs.register("label", 1, np.dtype(np.int64))
    attrs.put_many("feat", np.arange(0, 90, 3), np.ones((30, 6), np.float32))
    attrs.put_many("label", np.arange(5), np.arange(5).reshape(5, 1))
    assert attrs.nbytes() == 2720


def test_cluster_and_doctor_figures_are_pinned():
    cluster = LocalCluster(
        num_servers=4, config=SamtreeConfig(capacity=16), durable=True
    )
    _load(cluster.client)
    cluster.client.sample_neighbors_many(
        list(range(40)), 4, np.random.default_rng(1)
    )
    assert cluster.total_nbytes() == 42522
    assert diagnose(cluster).total_bytes == 100579
