"""Mini-batch training loop: Adam + sampled GraphSAGE over a live store.

This is the paper's Figure 1 end to end: seeds are sampled, their K-hop
neighborhoods are drawn *from the dynamic store at its current state*
(so a concurrently updated graph immediately influences the next batch),
features are gathered from the attribute store, and the model steps.

Per-phase timing (DESIGN.md §11) is the span tree: with a
:class:`~repro.obs.trace.Tracer` every batch is a ``train.step`` root
over ``train.sample`` (neighborhood draw), ``train.gather`` (feature
lookup) and ``train.compute`` (forward, or forward+backward+step on the
training path) spans, which :mod:`repro.obs.critical` tabulates.
Without one the spans are no-ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError, ShapeError
from repro.gnn.models import GraphSAGE
from repro.gnn.ops import accuracy, softmax_cross_entropy
from repro.gnn.samplers import sample_blocks
from repro.obs.telemetry import Telemetry
from repro.storage.attributes import AttributeStore

__all__ = ["Adam", "TrainResult", "Trainer"]


class Adam:
    """Adam optimiser over a :class:`GraphSAGE`'s parameters.

    The moments are one flat pair over every parameter: a step
    concatenates the gradients once, updates ``m`` / ``v`` and computes
    the update over the flat arrays, and subtracts each parameter's
    slice.  Elementwise this is the per-parameter arithmetic, so the
    parameters are bit for bit those of a loop over them, in a fixed
    handful of array calls instead of a handful per parameter.
    """

    def __init__(
        self,
        model: GraphSAGE,
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be > 0, got {lr}")
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._t = 0

    def step(self) -> None:
        """Apply one update from the model's accumulated gradients."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        triples = list(self.model.parameters())
        grad = np.concatenate([grad.ravel() for _, _, grad in triples])
        if self._m is None:
            self._m, self._v = np.zeros_like(grad), np.zeros_like(grad)
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad * grad
        update = self.lr * ((m / bias1) / (np.sqrt(v / bias2) + self.eps))
        start = 0
        for _, param, _ in triples:
            param -= update[start : start + param.size].reshape(param.shape)
            start += param.size


@dataclass
class TrainResult:
    """Per-epoch training metrics."""

    epoch: int
    loss: float
    train_accuracy: float
    num_batches: int


class Trainer:
    """Drives mini-batch GNN training against any topology store.

    Parameters
    ----------
    store:
        Topology source (local store, baseline, or distributed client).
    features:
        Attribute store carrying the ``feat_name`` field.
    model:
        A :class:`GraphSAGE`.
    fanouts:
        Per-hop sample counts, length = model depth.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every train step
        becomes a ``train.step`` span with sample/gather/compute
        children.
    """

    def __init__(
        self,
        store: GraphStoreAPI,
        features: AttributeStore,
        model: GraphSAGE,
        fanouts: Sequence[int],
        feat_name: str = "feat",
        lr: float = 1e-2,
        etype: int = DEFAULT_ETYPE,
        rng: Optional[random.Random] = None,
        tracer=None,
    ) -> None:
        if len(fanouts) != model.num_layers:
            raise ConfigurationError(
                f"fanouts length {len(fanouts)} != model depth "
                f"{model.num_layers}"
            )
        self.store = store
        self.features = features
        self.model = model
        self.fanouts = list(fanouts)
        self.feat_name = feat_name
        self.etype = etype
        self.rng = rng or random.Random(0)
        self.optimizer = Adam(model, lr=lr)
        #: The store's telemetry hub (a cluster client shares its
        #: cluster's) or a detached one; ``tracer`` fills it.
        self.telemetry = Telemetry.of(store, tracer)

    # ------------------------------------------------------------------
    def _sample_phase(self, seeds: Sequence[int]):
        with self.telemetry.span("train.sample", seeds=len(seeds)):
            return sample_blocks(
                self.store,
                seeds,
                self.fanouts,
                self.rng,
                self.etype,
                tracer=self.telemetry.tracer,
            )

    def _gather_phase(self, blocks) -> List[np.ndarray]:
        """Rows of levels ``0 .. L - 1`` and the bottom level's fan-out
        mean, all the bottom layer reads of it: the bottom level's rows
        (ten times its parents', larger than L2 at the benchmark's
        shapes) are never built."""
        *upper, bottom = blocks.levels
        with self.telemetry.span(
            "train.gather", vertices=sum(len(l) for l in blocks.levels)
        ):
            feats = self.features.gather_levels(self.feat_name, upper)
            feats.append(
                self.features.gather_mean(
                    self.feat_name, bottom, blocks.fanouts[-1]
                )
            )
            return feats

    def forward_batch(self, seeds: Sequence[int]) -> np.ndarray:
        """Sample + gather + forward; returns seed logits."""
        blocks = self._sample_phase(seeds)
        feats = self._gather_phase(blocks)
        with self.telemetry.span("train.compute"):
            return self.model.forward(feats, blocks.fanouts)

    def train_step(
        self, seeds: Sequence[int], labels: Sequence[int]
    ) -> Tuple[float, float]:
        """One optimisation step; returns ``(loss, batch_accuracy)``.

        The ``train.compute`` span of a training step covers forward
        **and** backward + optimiser.
        """
        labels_arr = np.asarray(labels, dtype=np.int64)
        if len(seeds) != len(labels_arr):
            raise ShapeError(
                f"{len(seeds)} seeds but {len(labels_arr)} labels"
            )
        with self.telemetry.span("train.step", seeds=len(seeds)):
            blocks = self._sample_phase(seeds)
            feats = self._gather_phase(blocks)
            with self.telemetry.span("train.compute"):
                logits = self.model.forward(feats, blocks.fanouts)
                loss, grad = softmax_cross_entropy(logits, labels_arr)
                self.model.zero_grads()
                self.model.backward(grad)
                self.optimizer.step()
        return loss, accuracy(logits, labels_arr)

    def train_epoch(
        self,
        seeds: Sequence[int],
        labels: Sequence[int],
        batch_size: int,
        epoch: int = 0,
    ) -> TrainResult:
        """Shuffle and run one pass over the seed set."""
        order = list(range(len(seeds)))
        self.rng.shuffle(order)
        order = np.asarray(order, dtype=np.intp)
        seeds = np.asarray(seeds, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        losses: List[float] = []
        accs: List[float] = []
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            loss, acc = self.train_step(seeds[idx], labels[idx])
            losses.append(loss)
            accs.append(acc)
        return TrainResult(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else 0.0,
            train_accuracy=float(np.mean(accs)) if accs else 0.0,
            num_batches=len(losses),
        )

    def evaluate(
        self,
        seeds: Sequence[int],
        labels: Sequence[int],
        batch_size: int = 512,
    ) -> float:
        """Accuracy over a held-out seed set (no parameter updates)."""
        labels = np.asarray(labels, dtype=np.int64)
        seeds = np.asarray(seeds, dtype=np.int64)
        correct = 0
        for start in range(0, len(seeds), batch_size):
            logits = self.forward_batch(seeds[start : start + batch_size])
            chunk_labels = labels[start : start + batch_size]
            correct += int((logits.argmax(axis=1) == chunk_labels).sum())
        return correct / len(seeds) if len(seeds) else 0.0
