"""What a seeded trainer computes is pinned: every step's loss and the
final parameters, frozen and under churn.

The run builds a 4-shard ``LocalCluster`` over a skewed graph of 1 500
sources, a 16-d ``AttributeStore`` and a 2-layer ``GraphSAGE`` at
fan-outs ``[5, 5]``, and runs 20 ``train_step``s of 64 seeds twice:
once after ``freeze_all`` (the alias kernel answers every draw), once
never frozen with a 400-row mixed-op ``apply_edge_batch`` before every
4th step (dirty rows, re-admission and the binary-search draws).  The
draws reach the losses through the client, the servers, the read image
and the sampler, so a refactor of that path that keeps its draws keeps
every pin here: each loss as ``float.hex()``, the parameters as one
sha256.

Regenerate (only when a change is *meant* to move training) with
``PYTHONPATH=src python tests/test_golden_training.py`` and paste the
printed table over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.distributed import LocalCluster
from repro.distributed.rpc import NetworkModel
from repro.gnn.models import GraphSAGE
from repro.gnn.training import Trainer
from repro.storage.attributes import AttributeStore

SOURCES, FEAT_DIM, CLASSES, FANOUTS = 1500, 16, 4, [5, 5]
STEPS, BATCH, CHURN_EVERY, CHURN_OPS = 20, 64, 4, 400


def _graph(rng: np.random.Generator):
    """Every source has an edge; a few hubs have hundreds (samtrees)."""
    degree = np.maximum(1, (1200 / np.arange(1, SOURCES + 1)).astype(np.int64))
    degree += rng.integers(0, 6, SOURCES)
    src = np.repeat(np.arange(SOURCES, dtype=np.int64), degree)
    dst = rng.integers(0, SOURCES, src.size)
    key = np.unique(src * SOURCES + dst)
    return key // SOURCES, key % SOURCES, rng.random(key.size) * 4.0


def train_run(churn: bool) -> dict:
    rng = np.random.default_rng(5)
    src, dst, weight = _graph(rng)
    cluster = LocalCluster(num_servers=4, network=NetworkModel())
    client = cluster.client
    client.bulk_load(src, dst, weight)
    if not churn:
        cluster.freeze_all()
    feats = rng.standard_normal((SOURCES, FEAT_DIM)).astype(np.float32)
    labels = feats[:, :CLASSES].argmax(axis=1)
    features = AttributeStore()
    features.register("feat", FEAT_DIM)
    features.put_many("feat", list(range(SOURCES)), feats)
    model = GraphSAGE(
        FEAT_DIM, 32, CLASSES, num_layers=len(FANOUTS),
        rng=np.random.default_rng(1),
    )
    trainer = Trainer(client, features, model, FANOUTS, rng=random.Random(2))
    codes = np.array([OP_INSERT, OP_UPDATE, OP_DELETE], np.uint8)
    losses = []
    for step in range(STEPS):
        if churn and step % CHURN_EVERY == 0:
            pick = rng.integers(0, src.size, CHURN_OPS)
            op = rng.choice(codes, CHURN_OPS)
            bdst = dst[pick].copy()
            ins = op == OP_INSERT
            bdst[ins] = rng.integers(0, SOURCES, int(ins.sum()))
            client.apply_edge_batch(
                src[pick], bdst, rng.random(CHURN_OPS) * 4.0, None, op
            )
        seeds = rng.integers(0, SOURCES, BATCH)
        loss, _ = trainer.train_step(seeds.tolist(), labels[seeds])
        losses.append(float(loss).hex())
    digest = hashlib.sha256()
    for _, param, _ in model.parameters():
        digest.update(param.tobytes())
    cluster.close()
    return {"losses": losses, "params": digest.hexdigest()}


#: :func:`train_run` by mode.
PINNED = {
    "frozen": {
        "losses": [
            "0x1.8796c60000000p+0",
            "0x1.9ca8f40000000p+0",
            "0x1.91571a0000000p+0",
            "0x1.5ff4380000000p+0",
            "0x1.7341740000000p+0",
            "0x1.6611f20000000p+0",
            "0x1.3d034e0000000p+0",
            "0x1.4840580000000p+0",
            "0x1.1b5f540000000p+0",
            "0x1.0c149e0000000p+0",
            "0x1.0d60e20000000p+0",
            "0x1.2932440000000p+0",
            "0x1.fdf1840000000p-1",
            "0x1.1be7740000000p+0",
            "0x1.fd0da40000000p-1",
            "0x1.deaf6c0000000p-1",
            "0x1.1cb77a0000000p+0",
            "0x1.ee47d20000000p-1",
            "0x1.d95d540000000p-1",
            "0x1.0206a40000000p+0",
        ],
        "params": "53a8e08970e5cafd5837a6e44c7a19f675a9ca04a9c583855abf5d91833b73f4",
    },
    "churn": {
        "losses": [
            "0x1.9a90000000000p+0",
            "0x1.6f697c0000000p+0",
            "0x1.7e6b8c0000000p+0",
            "0x1.7711c00000000p+0",
            "0x1.71cc900000000p+0",
            "0x1.58612c0000000p+0",
            "0x1.4cb1ca0000000p+0",
            "0x1.4a8c8e0000000p+0",
            "0x1.3a5fe40000000p+0",
            "0x1.38bd000000000p+0",
            "0x1.2f2e0c0000000p+0",
            "0x1.3167a20000000p+0",
            "0x1.1f36e40000000p+0",
            "0x1.f014bc0000000p-1",
            "0x1.ac69c80000000p-1",
            "0x1.c772320000000p-1",
            "0x1.ca5ae00000000p-1",
            "0x1.bda3500000000p-1",
            "0x1.ea018e0000000p-1",
            "0x1.b63bd80000000p-1",
        ],
        "params": "a09784cd55ab15b5ca09b4b92ce9bb0cbd52fe88a493bef4f501e572846d8508",
    },
}


def test_frozen_training_is_pinned():
    assert train_run(churn=False) == PINNED["frozen"]


def test_churned_training_is_pinned():
    assert train_run(churn=True) == PINNED["churn"]


if __name__ == "__main__":
    print("PINNED = {")
    for mode, churn in (("frozen", False), ("churn", True)):
        got = train_run(churn)
        print(f'    "{mode}": {{')
        print('        "losses": [')
        for loss in got["losses"]:
            print(f'            "{loss}",')
        print("        ],")
        print(f'        "params": "{got["params"]}",')
        print("    },")
    print("}")
