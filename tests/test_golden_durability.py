"""A seeded durable cluster's bytes are pinned: every shard's WAL, its
checkpoint image, its store's image after the scalar writes, and its
adjacency after a crash and recovery.

The run builds a 4-shard ``LocalCluster`` with file-backed WALs at a
small samtree capacity (so slab rows, samtrees, promotions and splits
all occur), then applies a bulk load, a few mixed-op columnar batches,
``checkpoint_all``, and 50 each of scalar ``add_edge`` /
``update_edge`` / ``remove_edge``.  The scalar writes reach the store
through ``write_op`` and the slab / samtree write entries, so a refactor
of that path that keeps its bytes keeps every digest here.

Regenerate (only when a change is *meant* to move these bytes) with
``PYTHONPATH=src python tests/test_golden_durability.py`` and paste the
printed table over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import tempfile

import numpy as np

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.distributed import LocalCluster
from repro.storage.checkpoint import save_store

NUM_SERVERS = 4


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _adjacency_digest(store) -> str:
    """sha256 of the store's edges as sorted ``(etype, src, dst, weight)``
    columns — the content, independent of layout."""
    rows = [
        (etype, src, dst, weight)
        for etype in store.etypes()
        for src in store.sources(etype)
        for dst, weight in store.neighbors(src, etype)
    ]
    rows.sort()
    digest = hashlib.sha256()
    for col, dtype in zip(
        zip(*rows), (np.int16, np.int64, np.int64, np.float64)
    ):
        digest.update(np.asarray(col, dtype=dtype).tobytes())
    return digest.hexdigest()


def durable_digests(wal_dir: str) -> dict:
    rng = np.random.default_rng(7)
    cluster = LocalCluster(
        num_servers=NUM_SERVERS,
        config=SamtreeConfig(capacity=8),
        durable=True,
        wal_dir=wal_dir,
    )
    client = cluster.client
    n = 1500
    src = rng.integers(0, 120, n)
    dst = rng.integers(0, 5000, n)
    client.bulk_load(src, dst, rng.random(n) * 3.0, rng.integers(0, 2, n))
    for _ in range(3):
        m = 400
        client.apply_edge_batch(EdgeBatch(
            rng.integers(0, 140, m),
            rng.integers(0, 5000, m),
            rng.random(m) * 3.0,
            rng.integers(0, 2, m),
            rng.choice(
                np.array([OP_INSERT, OP_UPDATE, OP_DELETE], np.uint8), m
            ),
        ))
    cluster.checkpoint_all()
    out = {
        "checkpoint": [_sha(s._checkpoint_topology) for s in cluster.servers]
    }
    pick = random.Random(3)
    edges = sorted(
        (etype, s, d)
        for server in cluster.servers
        for etype in server.store.etypes()
        for s in server.store.sources(etype)
        for d, _ in server.store.neighbors(s, etype)
    )
    for i in range(50):
        client.add_edge(
            pick.randrange(150), 6000 + i, pick.random() * 3.0,
            pick.randrange(2),
        )
        etype, s, d = pick.choice(edges)  # overwrite an existing edge
        client.add_edge(s, d, pick.random() * 3.0, etype)
    for _ in range(50):
        etype, s, d = pick.choice(edges)
        client.update_edge(s, d, pick.random() * 3.0, etype)
    for etype, s, d in pick.sample(edges, 50):
        client.remove_edge(s, d, etype)
    out["wal"] = []
    for shard in range(NUM_SERVERS):
        path = os.path.join(wal_dir, f"shard{shard:04d}_r0.wal")
        with open(path, "rb") as f:
            out["wal"].append(_sha(f.read()))
    images = []
    for server in cluster.servers:
        buf = io.BytesIO()
        save_store(server.store, buf)
        images.append(_sha(buf.getvalue()))
    out["image"] = images
    before = [_adjacency_digest(s.store) for s in cluster.servers]
    for shard in range(NUM_SERVERS):
        cluster.crash(shard)
    cluster.recover_all()
    out["recovered"] = [_adjacency_digest(s.store) for s in cluster.servers]
    cluster.close()
    assert out["recovered"] == before
    return out


#: :func:`durable_digests` by key, one digest per shard.
PINNED = {
    "checkpoint": [
        "6059da0015e3a8842aed1ee2c669e1236e1364b5345bc76726105499563a2a34",
        "96ad8a8889cfb59e4e1d418dd4f13ac5f696e601bd0a5f96a7e59f76273fbf1f",
        "d9cc415e3240d901ba2426c0526efe6264359464f3e321e1dfc460680678e416",
        "18bc3812f6c8d2bede11e213cca9a5974b28d749f18222553718cadabd9ef02a",
    ],
    "wal": [
        "9f16a4145f5b38ea897c4b83f92618a4556a3c3b1253773bba6dc522e732c641",
        "49a4836324eaad99f0287a4b966884ceb0debac9fea7dcbc3f04499e1821d4c3",
        "15611ddde9ac1a8b963f9fb9fbfbd97fccc5ed29c1e9f0f895ff8de4d2b38212",
        "922fd5ccc2ae136bfc23e3a3f04febdc0af325072f2fedf4b687e44cb0bc9221",
    ],
    "image": [
        "ac76b49b4f1bf4bd6da8b149c6d10ee807760761e305e0cd578ab5a9c961f6a3",
        "cb787b1e8560c247c86fef42fcf04b145fc81317da0c1ccb76f563444a3599b3",
        "ec5c26468fd6b4421c9b4537e751a95c2932b462bdc5ff90628206f73b1a2b7c",
        "bf1b50a3be3093d2f81e07ad05fc8a91afe905a58989dabac27dfde7928056d6",
    ],
    "recovered": [
        "54dc0e56fd5d0f4226f152f61b92865554ee062f4070fbba65ee641248d14918",
        "28f9d0b1fc1e97da3925d03a3de9e2f3f5b1ded5ec4517288a216c911051dfc7",
        "28bb6d0ab4a559d6a0686593562636d6b5aeda5109f5a473bf41e78530befa40",
        "ad373cce61c0ba88e52c84a820e75258573e4253dc1228064b5553d9868085ab",
    ],
}


def test_durable_cluster_bytes_are_pinned(tmp_path):
    assert durable_digests(str(tmp_path)) == PINNED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        got = durable_digests(d)
    print("PINNED = {")
    for key, shas in got.items():
        print(f'    "{key}": [')
        for sha in shas:
            print(f'        "{sha}",')
        print("    ],")
    print("}")
