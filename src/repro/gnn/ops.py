"""NumPy tensor kernels for the GNN operator layer.

The paper's top layer is "TF-based operators" (§III) — TensorFlow ops for
aggregation and sampling.  This reproduction substitutes NumPy kernels
with hand-written gradients (see DESIGN.md): the storage/sampling layer
below is the contribution under test and is exercised identically.

Everything here is a pure function over ``numpy`` arrays; layers in
:mod:`repro.gnn.layers` compose them and carry the caches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "xavier_init",
    "relu",
    "relu_grad",
    "sum_aggregate",
    "mean_aggregate",
    "mean_aggregate_grad",
    "occurrence_rows",
    "log_softmax",
    "softmax_cross_entropy",
    "accuracy",
    "l2_normalize",
]


def xavier_init(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a (fan_in, fan_out) matrix."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of ReLU at pre-activation ``x``."""
    return grad_out * (x > 0.0)


def sum_aggregate(neigh: np.ndarray) -> np.ndarray:
    """Sum over the neighbor axis: ``(B, F, D) -> (B, D)``, dtype kept.

    ``einsum`` walks the tensor once in memory order; ``sum(axis=1)``
    reduces the strided middle axis and is several times slower at
    mini-batch shapes.
    """
    if neigh.ndim != 3:
        raise ShapeError(
            f"aggregation expects (batch, fanout, dim), got {neigh.shape}"
        )
    return np.einsum("bfd->bd", neigh)


def mean_aggregate(neigh: np.ndarray) -> np.ndarray:
    """Mean over the neighbor axis: ``(B, F, D) -> (B, D)``.

    This is the paper's ``⊕`` aggregator for the GraphSAGE-mean model
    (Equation 1): neighbor messages are averaged.
    """
    return sum_aggregate(neigh) / neigh.shape[1]


def mean_aggregate_grad(
    grad_out: np.ndarray, fanout: int
) -> np.ndarray:
    """Gradient of :func:`mean_aggregate`: broadcast ``grad/F`` back."""
    if grad_out.ndim != 2:
        raise ShapeError(
            f"mean_aggregate_grad expects (batch, dim), got {grad_out.shape}"
        )
    return np.repeat(grad_out[:, None, :] / fanout, fanout, axis=1)


def occurrence_rows(
    inverse: Sequence[Optional[np.ndarray]], fanouts: Sequence[int]
) -> List[Optional[np.ndarray]]:
    """The row of each occurrence at levels ``0 .. len(fanouts)`` of a
    block (``None``: the identity).  Occurrence ``r`` of level ``d``
    drew occurrences ``r * fanouts[d] + j`` of level ``d + 1``, and
    ``inverse[d + 1]`` maps the draws of level ``d``'s rows onto rows."""
    rows: List[Optional[np.ndarray]] = [None]
    for d, fanout in enumerate(fanouts):
        inv, above = inverse[d + 1], rows[-1]
        if above is not None:
            above = (above[:, None] * fanout + np.arange(fanout)).reshape(-1)
            inv = above if inv is None else inv.take(above)
        rows.append(inv)
    return rows


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise log-softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. ``logits``.

    ``labels`` are integer class indices of shape ``(batch,)``.
    """
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"incompatible shapes: logits {logits.shape}, labels {labels.shape}"
        )
    n = logits.shape[0]
    logp = log_softmax(logits)
    loss = -float(logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax equals the label."""
    if len(labels) == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())


def l2_normalize(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Row-wise L2 normalisation (GraphSAGE's final embedding step)."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, eps)
