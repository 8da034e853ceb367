"""Mini-batch GNN models over sampled blocks.

A model consumes the per-level feature matrices of a
:class:`~repro.gnn.samplers.MiniBatchBlocks` expansion and produces seed
logits.  The computation is the standard sampled message-passing pyramid:
layer ``l`` maps the embeddings of every level ``d`` from the embeddings
of levels ``d`` and ``d + 1``, so after ``L`` layers only the seeds
remain — exactly the paper's Figure 1 with ``K``-hop sampling.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.gnn.layers import SAGEMeanLayer
from repro.gnn.ops import mean_aggregate

__all__ = ["GraphSAGE"]


class GraphSAGE:
    """An ``L``-layer GraphSAGE-mean model over ``L``-hop sampled blocks
    (the model family of the paper's Figure 1).

    Parameters
    ----------
    in_dim / hidden_dim / num_classes:
        Feature, hidden, and output widths.
    num_layers:
        Depth ``L``; the blocks must carry ``L`` fan-outs.
    rng:
        Generator of the initial weights (``default_rng(0)`` when
        omitted).
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if num_layers < 1:
            raise ConfigurationError(
                f"num_layers must be >= 1, got {num_layers}"
            )
        if rng is None:
            rng = np.random.default_rng(0)
        self.num_layers = num_layers
        self.layers: List[SAGEMeanLayer] = []
        for l in range(num_layers):
            dim_in = in_dim if l == 0 else hidden_dim
            dim_out = num_classes if l == num_layers - 1 else hidden_dim
            activation = l != num_layers - 1
            self.layers.append(SAGEMeanLayer(dim_in, dim_out, rng, activation))

    # ------------------------------------------------------------------
    def forward(
        self, feats: Sequence[np.ndarray], fanouts: Sequence[int]
    ) -> np.ndarray:
        """Seed logits from per-level features.

        ``feats[d]`` holds the features of block level ``d``; level sizes
        must telescope by the fan-outs.  The bottom level ``feats[L]``
        may instead hold the mean of each parent's ``fanouts[L - 1]``
        rows, one row per row of ``feats[L - 1]`` (what
        :meth:`~repro.storage.attributes.AttributeStore.gather_mean`
        returns): the row count tells the two apart, and for a fan-out
        of 1 they are the same array.  Each forward starts a fresh
        tape: :meth:`backward` differentiates the latest forward only,
        and a forward that is never differentiated (evaluation,
        inference) leaves nothing behind for the next one to pile on.
        """
        if len(feats) != self.num_layers + 1:
            raise ShapeError(
                f"{self.num_layers}-layer model needs {self.num_layers + 1} "
                f"feature levels, got {len(feats)}"
            )
        if len(fanouts) != self.num_layers:
            raise ShapeError(
                f"{self.num_layers}-layer model needs {self.num_layers} "
                f"fanouts, got {len(fanouts)}"
            )
        h = [np.asarray(f, dtype=np.float32) for f in feats]
        bottom = self.num_layers - 1
        for d in range(self.num_layers):
            rows, parents = h[d + 1].shape[0], h[d].shape[0]
            as_mean = d == bottom and rows == parents
            if rows != parents * fanouts[d] and not as_mean:
                raise ShapeError(
                    f"level {d + 1} has {rows} rows, expected "
                    f"{parents} * {fanouts[d]}"
                    + (f" (or {parents}, their mean)" if d == bottom else "")
                )
        for layer in self.layers:
            layer._cache.clear()
            new_h = []
            for d in range(len(h) - 1):
                n_d = h[d].shape[0]
                agg = h[d + 1]
                if len(agg) == n_d * fanouts[d]:
                    agg = mean_aggregate(agg.reshape(n_d, fanouts[d], -1))
                new_h.append(layer.forward(h[d], agg, fanouts[d]))
            h = new_h
        return h[0]

    def backward(self, grad_logits: np.ndarray) -> None:
        """Accumulate parameter gradients from seed-logit gradients."""
        grads: List[np.ndarray] = [grad_logits]
        for layer in reversed(self.layers[1:]):
            depths = len(grads)
            new_grads: List[np.ndarray] = [None] * (depths + 1)  # type: ignore[list-item]
            # The layer's tape is LIFO over d = 0..depths-1.
            for d in reversed(range(depths)):
                grad_self, grad_neigh = layer.backward(grads[d])
                if new_grads[d] is None:
                    new_grads[d] = grad_self
                else:
                    new_grads[d] = new_grads[d] + grad_self
                flat = grad_neigh.reshape(-1, grad_neigh.shape[-1])
                if new_grads[d + 1] is None:
                    new_grads[d + 1] = flat
                else:
                    new_grads[d + 1] = new_grads[d + 1] + flat
            grads = new_grads
        # Nothing differentiates raw features: the bottom layer takes its
        # parameter gradients and skips the input half.
        for grad in reversed(grads):
            self.layers[0].backward(grad, input_grad=False)

    # ------------------------------------------------------------------
    def zero_grads(self) -> None:
        """Reset every layer's gradient accumulators."""
        for layer in self.layers:
            layer.zero_grads()

    def parameters(self) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
        """Yield ``(qualified_name, param, grad)`` triples."""
        for i, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                yield f"layer{i}.{name}", param, layer.grads[name]

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for _, p, _ in self.parameters())
