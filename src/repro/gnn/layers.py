"""The GraphSAGE-mean layer, with a hand-written forward/backward pass.

The layer owns its parameters (a dict of named ``float32`` arrays) and
accumulates gradients into a parallel dict so one layer instance can be
applied at several depths of a sampled mini-batch (GraphSAGE reuses the
level-1 layer for both the seeds and the sampled frontier; the gradient
contributions sum).

The layer takes the mean of each row's sampled neighbors, not the
neighbor rows: :class:`~repro.gnn.models.GraphSAGE` averages them, or
receives the bottom level already averaged by the feature gather.

``forward`` pushes what ``backward`` needs onto the layer's tape
(``_cache``) and ``backward`` pops it, last in first out; the model
driving the layers empties the tape before each pass.  A deduplicated
level's tape keeps its occurrence rows, and ``backward`` reads the tape
through them: no gradient is scattered onto distinct rows.
``backward(grad_out, input_grad=False)`` stops after the parameter
gradients: the products that give the gradients of the layer's *inputs*
are the larger half of a backward, and below the bottom layer nothing
consumes them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.gnn.ops import mean_aggregate_grad, relu, relu_grad, xavier_init

__all__ = ["SAGEMeanLayer"]


class SAGEMeanLayer:
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
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.params: Dict[str, np.ndarray] = {
            "W_self": xavier_init(in_dim, out_dim, rng),
            "W_neigh": xavier_init(in_dim, out_dim, rng),
            "b": np.zeros(out_dim, dtype=np.float32),
        }
        self.grads: Dict[str, np.ndarray] = {}
        self.zero_grads()
        #: The forward tape: one entry per forward not yet differentiated.
        self._cache: List[tuple] = []

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero."""
        for name, p in self.params.items():
            self.grads[name] = np.zeros_like(p)

    def forward(
        self, h_self: np.ndarray, agg: np.ndarray, fanout: int, rows=None
    ) -> np.ndarray:
        """``h_self``: (B, D); ``agg``: (B, D), each row the mean of its
        ``fanout`` sampled neighbors → (B, out_dim).

        The tape keeps ``fanout``, not the neighbor rows: the input
        gradient spreads ``grad / fanout`` over them, and nothing else
        of them is needed.  ``rows`` (kept too) maps occurrences onto
        distinct ``B`` rows: the backward takes one row per occurrence.
        """
        if h_self.ndim != 2 or agg.ndim != 2:
            raise ShapeError(
                f"SAGEMeanLayer expects (B, D) and (B, D); got "
                f"{h_self.shape} and {agg.shape}"
            )
        if h_self.shape[0] != agg.shape[0]:
            raise ShapeError(
                f"batch mismatch: {h_self.shape[0]} vs {agg.shape[0]}"
            )
        if h_self.shape[1] != self.in_dim or agg.shape[1] != self.in_dim:
            raise ShapeError(
                f"SAGEMeanLayer expects feature dim {self.in_dim}; got "
                f"{h_self.shape} and {agg.shape}"
            )
        z = (
            h_self @ self.params["W_self"]
            + agg @ self.params["W_neigh"]
            + self.params["b"]
        )
        self._cache.append((h_self, fanout, agg, z, rows))
        return relu(z) if self.activation else z

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Returns ``(grad_h_self, grad_h_neigh)`` for the latest forward,
        ``grad_h_neigh`` of shape (B, fanout, D), with ``B`` the
        occurrences when that forward had ``rows``."""
        h_self, fanout, agg, z, rows = self._cache.pop()
        if rows is not None:
            h_self, agg, z = (a.take(rows, axis=0) for a in (h_self, agg, z))
        gz = relu_grad(z, grad_out) if self.activation else grad_out
        self.grads["W_self"] += h_self.T @ gz
        self.grads["W_neigh"] += agg.T @ gz
        self.grads["b"] += gz.sum(axis=0)
        if not input_grad:
            return None
        grad_self = gz @ self.params["W_self"].T
        grad_agg = gz @ self.params["W_neigh"].T
        return grad_self, mean_aggregate_grad(grad_agg, fanout)
