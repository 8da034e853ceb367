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
            "0x1.8798120000000p+0",
            "0x1.8e2b860000000p+0",
            "0x1.87bc600000000p+0",
            "0x1.5a00540000000p+0",
            "0x1.709e380000000p+0",
            "0x1.6d45d80000000p+0",
            "0x1.4832940000000p+0",
            "0x1.51b2a60000000p+0",
            "0x1.1febd40000000p+0",
            "0x1.0f7e580000000p+0",
            "0x1.136f540000000p+0",
            "0x1.33242c0000000p+0",
            "0x1.fc76a20000000p-1",
            "0x1.13f1180000000p+0",
            "0x1.0991700000000p+0",
            "0x1.e678ba0000000p-1",
            "0x1.1cb5500000000p+0",
            "0x1.eb8d020000000p-1",
            "0x1.d9740c0000000p-1",
            "0x1.0118780000000p+0",
        ],
        "params": "ada26e43d8a10f34655c77dc9fb81bf653a9aad217e6f1113b770044172fe779",
    },
    "churn": {
        "losses": [
            "0x1.8f13b40000000p+0",
            "0x1.6c036e0000000p+0",
            "0x1.7be4780000000p+0",
            "0x1.7ea4180000000p+0",
            "0x1.7b30b40000000p+0",
            "0x1.5c26880000000p+0",
            "0x1.55d5d20000000p+0",
            "0x1.4e9ff60000000p+0",
            "0x1.3883e40000000p+0",
            "0x1.3c786e0000000p+0",
            "0x1.2c3eac0000000p+0",
            "0x1.394b300000000p+0",
            "0x1.25ca7a0000000p+0",
            "0x1.e8cba80000000p-1",
            "0x1.b257c80000000p-1",
            "0x1.c374060000000p-1",
            "0x1.dabe3c0000000p-1",
            "0x1.c4cc300000000p-1",
            "0x1.ecc0c00000000p-1",
            "0x1.c6807a0000000p-1",
        ],
        "params": "50e721f521525ceb5823196652f4e73e24f3de31cfbba512ff3b376ed8104bc1",
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
