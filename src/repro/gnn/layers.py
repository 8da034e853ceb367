"""GNN layers with hand-written forward/backward passes.

Each layer owns its parameters (a dict of named ``float32`` arrays) and
accumulates gradients into a parallel dict so one layer instance can be
applied at several depths of a sampled mini-batch (GraphSAGE reuses the
level-1 layer for both the seeds and the sampled frontier; the gradient
contributions sum).

``forward`` pushes what ``backward`` needs onto the layer's tape
(``_cache``) and ``backward`` pops it, last in first out; the model
driving the layers empties the tape before each pass.  A convolution's
``backward(grad_out, input_grad=False)`` stops after the parameter
gradients: the products that give the gradients of the layer's *inputs*
are the larger half of a backward, and below the bottom layer nothing
consumes them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.gnn.ops import (
    mean_aggregate,
    mean_aggregate_grad,
    relu,
    relu_grad,
    sum_aggregate,
    xavier_init,
)

__all__ = ["Layer", "SAGEMeanLayer", "GCNLayer", "GATLayer"]


class Layer:
    """Base class: parameter/gradient bookkeeping and the forward tape."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        #: The forward tape: one entry per forward not yet differentiated.
        self._cache: List[tuple] = []

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero."""
        for name, p in self.params.items():
            self.grads[name] = np.zeros_like(p)

    def _add_param(self, name: str, value: np.ndarray) -> None:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)


class SAGEMeanLayer(Layer):
    """GraphSAGE-mean convolution (Hamilton et al. [13]).

    ``h' = ReLU( h_self W_self  +  mean(h_neigh) W_neigh + b )``

    This instantiates the paper's Equation 1 with ``f`` = identity
    message, ``⊕`` = mean, and ``g`` = affine + ReLU combine.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        activation: bool = True,
    ) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self._add_param("W_self", xavier_init(in_dim, out_dim, rng))
        self._add_param("W_neigh", xavier_init(in_dim, out_dim, rng))
        self._add_param("b", np.zeros(out_dim, dtype=np.float32))

    def forward(self, h_self: np.ndarray, h_neigh: np.ndarray) -> np.ndarray:
        """``h_self``: (B, D); ``h_neigh``: (B, F, D) → (B, out_dim)."""
        if h_self.ndim != 2 or h_neigh.ndim != 3:
            raise ShapeError(
                f"SAGEMeanLayer expects (B, D) and (B, F, D); got "
                f"{h_self.shape} and {h_neigh.shape}"
            )
        if h_self.shape[0] != h_neigh.shape[0]:
            raise ShapeError(
                f"batch mismatch: {h_self.shape[0]} vs {h_neigh.shape[0]}"
            )
        if h_self.shape[1] != self.in_dim or h_neigh.shape[2] != self.in_dim:
            raise ShapeError(
                f"SAGEMeanLayer expects feature dim {self.in_dim}; got "
                f"{h_self.shape} and {h_neigh.shape}"
            )
        agg = mean_aggregate(h_neigh)
        z = (
            h_self @ self.params["W_self"]
            + agg @ self.params["W_neigh"]
            + self.params["b"]
        )
        self._cache.append((h_self, h_neigh, agg, z))
        return relu(z) if self.activation else z

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Returns ``(grad_h_self, grad_h_neigh)`` for the latest forward."""
        h_self, h_neigh, agg, z = self._cache.pop()
        gz = relu_grad(z, grad_out) if self.activation else grad_out
        self.grads["W_self"] += h_self.T @ gz
        self.grads["W_neigh"] += agg.T @ gz
        self.grads["b"] += gz.sum(axis=0)
        if not input_grad:
            return None
        grad_self = gz @ self.params["W_self"].T
        grad_agg = gz @ self.params["W_neigh"].T
        grad_neigh = mean_aggregate_grad(grad_agg, h_neigh.shape[1])
        return grad_self, grad_neigh


class GCNLayer(Layer):
    """A GCN-style convolution on sampled neighborhoods.

    ``h' = ReLU( mean([h_self ; h_neigh]) W + b )`` — self and sampled
    neighbors share one transform, the symmetric-normalised adjacency
    being approximated by the sampled mean with a self-loop.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        activation: bool = True,
    ) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self._add_param("W", xavier_init(in_dim, out_dim, rng))
        self._add_param("b", np.zeros(out_dim, dtype=np.float32))

    def forward(self, h_self: np.ndarray, h_neigh: np.ndarray) -> np.ndarray:
        """Same shapes as :class:`SAGEMeanLayer`."""
        if h_self.ndim != 2 or h_neigh.ndim != 3:
            raise ShapeError(
                f"GCNLayer expects (B, D) and (B, F, D); got "
                f"{h_self.shape} and {h_neigh.shape}"
            )
        if h_self.shape[0] != h_neigh.shape[0]:
            raise ShapeError(
                f"batch mismatch: {h_self.shape[0]} vs {h_neigh.shape[0]}"
            )
        if h_self.shape[1] != self.in_dim or h_neigh.shape[2] != self.in_dim:
            raise ShapeError(
                f"GCNLayer expects feature dim {self.in_dim}; got "
                f"{h_self.shape} and {h_neigh.shape}"
            )
        fanout = h_neigh.shape[1]
        pooled = (h_self + sum_aggregate(h_neigh)) / (fanout + 1)
        z = pooled @ self.params["W"] + self.params["b"]
        self._cache.append((pooled, z, fanout))
        return relu(z) if self.activation else z

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Returns ``(grad_h_self, grad_h_neigh)``."""
        pooled, z, fanout = self._cache.pop()
        gz = relu_grad(z, grad_out) if self.activation else grad_out
        self.grads["W"] += pooled.T @ gz
        self.grads["b"] += gz.sum(axis=0)
        if not input_grad:
            return None
        grad_pooled = gz @ self.params["W"].T / (fanout + 1)
        grad_self = grad_pooled
        grad_neigh = np.repeat(grad_pooled[:, None, :], fanout, axis=1)
        return grad_self, grad_neigh


class GATLayer(Layer):
    """Graph attention convolution (Veličković et al. [30]) over sampled
    neighborhoods.

    Scores every sampled neighbor (and the node itself, a self-loop)
    with the standard additive attention

        u_j = LeakyReLU( a_l · (W h_self) + a_r · (W h_j) )

    softmaxes the scores, and outputs the attention-weighted sum of the
    transformed vectors.  Single-head; heads are a width-axis concern
    the model layer can stack.
    """

    #: Negative slope of the attention LeakyReLU (paper value).
    LEAKY_SLOPE = 0.2

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        activation: bool = True,
    ) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self._add_param("W", xavier_init(in_dim, out_dim, rng))
        self._add_param(
            "a_l", xavier_init(out_dim, 1, rng).reshape(out_dim)
        )
        self._add_param(
            "a_r", xavier_init(out_dim, 1, rng).reshape(out_dim)
        )

    def forward(self, h_self: np.ndarray, h_neigh: np.ndarray) -> np.ndarray:
        """``h_self``: (B, D); ``h_neigh``: (B, F, D) → (B, out_dim)."""
        if h_self.ndim != 2 or h_neigh.ndim != 3:
            raise ShapeError(
                f"GATLayer expects (B, D) and (B, F, D); got "
                f"{h_self.shape} and {h_neigh.shape}"
            )
        if h_self.shape[0] != h_neigh.shape[0]:
            raise ShapeError(
                f"batch mismatch: {h_self.shape[0]} vs {h_neigh.shape[0]}"
            )
        if h_self.shape[1] != self.in_dim or h_neigh.shape[2] != self.in_dim:
            raise ShapeError(
                f"GATLayer expects feature dim {self.in_dim}; got "
                f"{h_self.shape} and {h_neigh.shape}"
            )
        W = self.params["W"]
        a_l, a_r = self.params["a_l"], self.params["a_r"]
        z_self = h_self @ W                       # (B, O)
        z_neigh = h_neigh @ W                     # (B, F, O)
        # Augment with the self-loop at slot 0.
        z_all = np.concatenate([z_self[:, None, :], z_neigh], axis=1)
        left = z_self @ a_l                       # (B,)
        right = z_all @ a_r                       # (B, F+1)
        u = left[:, None] + right                 # (B, F+1)
        l = np.where(u > 0, u, self.LEAKY_SLOPE * u)
        l = l - l.max(axis=1, keepdims=True)
        exp = np.exp(l)
        alpha = exp / exp.sum(axis=1, keepdims=True)   # (B, F+1)
        out_pre = np.einsum("bf,bfo->bo", alpha, z_all)
        self._cache.append((h_self, h_neigh, z_self, z_all, u, alpha, out_pre))
        return relu(out_pre) if self.activation else out_pre

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Returns ``(grad_h_self, grad_h_neigh)`` for the latest forward."""
        h_self, h_neigh, z_self, z_all, u, alpha, out_pre = self._cache.pop()
        W = self.params["W"]
        a_l, a_r = self.params["a_l"], self.params["a_r"]
        g = relu_grad(out_pre, grad_out) if self.activation else grad_out

        # out_pre = Σ_j α_j z_j
        grad_alpha = np.einsum("bo,bfo->bf", g, z_all)       # (B, F+1)
        grad_z_all = alpha[:, :, None] * g[:, None, :]       # (B, F+1, O)
        # softmax backward
        dot = (grad_alpha * alpha).sum(axis=1, keepdims=True)
        grad_l = alpha * (grad_alpha - dot)
        # leaky backward
        grad_u = grad_l * np.where(u > 0, 1.0, self.LEAKY_SLOPE)
        # u_j = a_l·z_self + a_r·z_j
        self.grads["a_l"] += np.einsum(
            "bf,bo->o", grad_u, z_self
        )
        self.grads["a_r"] += np.einsum("bf,bfo->o", grad_u, z_all)
        grad_z_all += grad_u[:, :, None] * a_r[None, None, :]
        grad_z_self = grad_u.sum(axis=1)[:, None] * a_l[None, :]
        # split the augmented axis back into self (slot 0) and neighbors
        grad_z_self = grad_z_self + grad_z_all[:, 0, :]
        grad_z_neigh = grad_z_all[:, 1:, :]
        # z = h W
        self.grads["W"] += h_self.T @ grad_z_self
        self.grads["W"] += np.einsum("bfd,bfo->do", h_neigh, grad_z_neigh)
        if not input_grad:
            return None
        grad_h_self = grad_z_self @ W.T
        grad_h_neigh = grad_z_neigh @ W.T
        return grad_h_self, grad_h_neigh
