"""Link prediction: the recommendation objective the paper's system serves.

The WeChat deployment trains "various GNN models" for recommendation —
which at its core is *link prediction*: score how likely a user is to
interact with a live room.  This module supplies that training path on
top of the dynamic store:

* **positive pairs** come from the live edges (weighted by interaction
  strength, drawn through the store's FTS/ITS sampling — fresher, heavier
  edges dominate, which is exactly the dynamic-store payoff);
* **negative pairs** are corrupted destinations (uniform over the
  destination vocabulary, re-drawn if they collide with a true edge);
* the **encoder** is any :class:`~repro.gnn.models.SampledGNN` producing
  embeddings for both endpoints from their sampled neighborhoods;
* the **objective** is BPR (pairwise ranking, Rendle et al.) or binary
  cross-entropy over dot-product scores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError, ShapeError
from repro.gnn.models import SampledGNN
from repro.gnn.samplers import sample_blocks
from repro.gnn.training import Adam
from repro.storage.attributes import AttributeStore

__all__ = [
    "sample_positive_edges",
    "sample_negative_destinations",
    "bpr_loss",
    "binary_cross_entropy_scores",
    "LinkPredictionTrainer",
]


def sample_positive_edges(
    store: GraphStoreAPI,
    batch_size: int,
    rng: Optional[random.Random] = None,
    etype: int = DEFAULT_ETYPE,
) -> Tuple[List[int], List[int]]:
    """Draw ``batch_size`` (src, dst) pairs from the live edges.

    Sources are drawn degree-weighted (heavier-degree users appear more,
    matching the interaction stream); each source's destination is one
    weighted neighbor draw.
    """
    sampler = getattr(store, "sample_vertices", None)
    if sampler is not None:
        srcs = sampler(batch_size, rng, etype)
    else:
        pool = list(store.sources(etype))
        rng_local = rng or random
        srcs = [pool[rng_local.randrange(len(pool))] for _ in range(batch_size)] if pool else []
    dsts: List[int] = []
    kept: List[int] = []
    for src in srcs:
        draws = store.sample_neighbors(src, 1, rng, etype)
        if draws:
            kept.append(int(src))
            dsts.append(int(draws[0]))
    return kept, dsts


def sample_negative_destinations(
    store: GraphStoreAPI,
    srcs: Sequence[int],
    vocabulary: Sequence[int],
    rng: Optional[random.Random] = None,
    etype: int = DEFAULT_ETYPE,
    max_retries: int = 10,
) -> List[int]:
    """One corrupted destination per source (uniform over ``vocabulary``,
    avoiding true edges for up to ``max_retries`` redraws)."""
    if not vocabulary:
        raise ConfigurationError("negative-sampling vocabulary is empty")
    rng = rng or random
    negatives: List[int] = []
    for src in srcs:
        dst = vocabulary[rng.randrange(len(vocabulary))]
        for _ in range(max_retries):
            if not store.has_edge(src, dst, etype):
                break
            dst = vocabulary[rng.randrange(len(vocabulary))]
        negatives.append(int(dst))
    return negatives


def bpr_loss(
    pos_scores: np.ndarray, neg_scores: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Bayesian Personalised Ranking: ``-log σ(pos - neg)``.

    Returns ``(loss, grad_pos, grad_neg)``.
    """
    if pos_scores.shape != neg_scores.shape:
        raise ShapeError(
            f"score shapes differ: {pos_scores.shape} vs {neg_scores.shape}"
        )
    diff = pos_scores - neg_scores
    # σ(-diff) is the gradient magnitude; stable via logaddexp.
    loss = float(np.logaddexp(0.0, -diff).mean())
    sig = 1.0 / (1.0 + np.exp(np.clip(diff, -60, 60)))
    n = max(1, len(diff))
    grad_pos = -sig / n
    grad_neg = sig / n
    return loss, grad_pos, grad_neg


def binary_cross_entropy_scores(
    scores: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """BCE over raw dot-product scores; returns ``(loss, grad_scores)``."""
    if scores.shape != labels.shape:
        raise ShapeError(
            f"scores {scores.shape} vs labels {labels.shape}"
        )
    z = np.clip(scores, -60, 60)
    loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    grad = (1.0 / (1.0 + np.exp(-z)) - labels) / max(1, len(z))
    return loss, grad


@dataclass
class LinkBatchResult:
    """Metrics of one link-prediction step."""

    loss: float
    auc_proxy: float  # fraction of pairs with pos_score > neg_score


class LinkPredictionTrainer:
    """Dot-product link prediction over a shared GNN encoder.

    The encoder embeds sources and destinations from their sampled
    neighborhoods; an edge's score is the dot product of the two
    embeddings, trained with BPR against corrupted destinations.
    """

    def __init__(
        self,
        store: GraphStoreAPI,
        features: AttributeStore,
        encoder: SampledGNN,
        fanouts: Sequence[int],
        feat_name: str = "feat",
        lr: float = 1e-2,
        etype: int = DEFAULT_ETYPE,
        rng: Optional[random.Random] = None,
    ) -> None:
        if len(fanouts) != encoder.num_layers:
            raise ConfigurationError(
                f"fanouts length {len(fanouts)} != encoder depth "
                f"{encoder.num_layers}"
            )
        self.store = store
        self.features = features
        self.encoder = encoder
        self.fanouts = list(fanouts)
        self.feat_name = feat_name
        self.etype = etype
        self.rng = rng or random.Random(0)
        self.optimizer = Adam(encoder, lr=lr)
        self._vocabulary: List[int] = []

    # ------------------------------------------------------------------
    def set_vocabulary(self, destinations: Sequence[int]) -> None:
        """Candidate destinations for negative sampling."""
        self._vocabulary = [int(v) for v in destinations]

    def _encode(self, vertices: Sequence[int]) -> np.ndarray:
        blocks = sample_blocks(
            self.store, vertices, self.fanouts, self.rng, self.etype
        )
        feats = self.features.gather_levels(self.feat_name, blocks.levels)
        return self.encoder.forward(feats, blocks.fanouts)

    def score_pairs(
        self, srcs: Sequence[int], dsts: Sequence[int]
    ) -> np.ndarray:
        """Dot-product scores for (src, dst) pairs (inference path)."""
        if len(srcs) != len(dsts):
            raise ShapeError(f"{len(srcs)} sources vs {len(dsts)} destinations")
        emb = self._encode(list(srcs) + list(dsts))
        n = len(srcs)
        return (emb[:n] * emb[n:]).sum(axis=1)

    # ------------------------------------------------------------------
    def train_step(self, batch_size: int) -> LinkBatchResult:
        """One BPR step on freshly sampled positive/negative pairs."""
        if not self._vocabulary:
            raise ConfigurationError(
                "call set_vocabulary() before training"
            )
        srcs, pos = sample_positive_edges(
            self.store, batch_size, self.rng, self.etype
        )
        if not srcs:
            return LinkBatchResult(loss=0.0, auc_proxy=0.0)
        neg = sample_negative_destinations(
            self.store, srcs, self._vocabulary, self.rng, self.etype
        )
        n = len(srcs)
        # One encoder pass over [srcs | pos | neg].
        emb = self._encode(list(srcs) + pos + neg)
        e_src, e_pos, e_neg = emb[:n], emb[n : 2 * n], emb[2 * n :]
        pos_scores = (e_src * e_pos).sum(axis=1)
        neg_scores = (e_src * e_neg).sum(axis=1)
        loss, g_pos, g_neg = bpr_loss(pos_scores, neg_scores)

        grad_emb = np.zeros_like(emb)
        grad_emb[:n] = g_pos[:, None] * e_pos + g_neg[:, None] * e_neg
        grad_emb[n : 2 * n] = g_pos[:, None] * e_src
        grad_emb[2 * n :] = g_neg[:, None] * e_src
        self.encoder.zero_grads()
        self.encoder.backward(grad_emb.astype(np.float32))
        self.optimizer.step()
        return LinkBatchResult(
            loss=loss,
            auc_proxy=float((pos_scores > neg_scores).mean()),
        )

    def evaluate_auc(
        self, num_pairs: int = 256
    ) -> float:
        """AUC proxy: P(score(true edge) > score(corrupted edge))."""
        srcs, pos = sample_positive_edges(
            self.store, num_pairs, self.rng, self.etype
        )
        if not srcs:
            return 0.0
        neg = sample_negative_destinations(
            self.store, srcs, self._vocabulary, self.rng, self.etype
        )
        pos_scores = self.score_pairs(srcs, pos)
        neg_scores = self.score_pairs(srcs, neg)
        return float((pos_scores > neg_scores).mean())
