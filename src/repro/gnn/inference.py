"""Inference: embedding generation over the live store.

Production recommendation serves from embeddings refreshed against the
*current* graph (paper §II-A: the model works on ``G^(t)`` during both
training and inference).  This module batches that path:

* :func:`embed_vertices` — sampled-neighborhood embeddings for any
  vertex list, mini-batched so a full-catalog refresh streams through
  bounded memory.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.snapshot import RNGLike, coerce_scalar_rng
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError
from repro.gnn.models import GraphSAGE
from repro.gnn.ops import l2_normalize
from repro.gnn.samplers import sample_blocks, sample_blocks_partial
from repro.storage.attributes import AttributeStore

__all__ = ["embed_vertices"]


def embed_vertices(
    store: GraphStoreAPI,
    features: AttributeStore,
    encoder: GraphSAGE,
    vertices: Sequence[int],
    fanouts: Sequence[int],
    feat_name: str = "feat",
    batch_size: int = 512,
    normalize: bool = True,
    rng: RNGLike = None,
    etype: int = DEFAULT_ETYPE,
    skip_unavailable: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, List[int]]]:
    """Embeddings for ``vertices`` from their sampled neighborhoods.

    Returns a ``(len(vertices), out_dim)`` float32 matrix in input
    order.  ``normalize`` L2-normalises rows (GraphSAGE's convention),
    making dot products cosine similarities.

    ``rng`` accepts the codebase-wide seed convention (``None`` / int /
    ``random.Random`` / ``numpy.random.Generator``); an int seed is
    coerced **once** so successive mini-batches draw from one stream
    rather than re-seeding identically per chunk.

    With ``skip_unavailable=True`` (cluster clients running degraded
    reads), seeds whose shard has no live replica are zero-filled
    instead of crashing mid-batch, and the return value becomes
    ``(matrix, skipped)`` where ``skipped`` lists the affected positions
    into ``vertices`` — the serving tier answers those from its
    degraded cache.
    """
    if len(fanouts) != encoder.num_layers:
        raise ConfigurationError(
            f"fanouts length {len(fanouts)} != encoder depth "
            f"{encoder.num_layers}"
        )
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    vertices = [int(v) for v in vertices]
    # Coerce once: an int seed re-coerced per chunk would replay the
    # identical stream for every mini-batch.
    rng = coerce_scalar_rng(rng)
    out_dim = encoder.layers[-1].out_dim
    skipped: List[int] = []
    chunks: List[np.ndarray] = []
    for start in range(0, len(vertices), batch_size):
        chunk = vertices[start : start + batch_size]
        if skip_unavailable:
            blocks, served_idx, unavailable_idx = sample_blocks_partial(
                store, chunk, fanouts, rng, etype
            )
            skipped.extend(start + i for i in unavailable_idx)
            out = np.zeros((len(chunk), out_dim), dtype=np.float32)
            if blocks is None:
                chunks.append(out)
                continue
        else:
            blocks = sample_blocks(store, chunk, fanouts, rng, etype)
            served_idx = list(range(len(chunk)))
        feats = features.gather_levels(feat_name, blocks.nodes)
        served = encoder.forward(feats, blocks.fanouts, blocks.inverse)
        if skip_unavailable:
            out[np.asarray(served_idx, dtype=np.int64)] = served
            chunks.append(out)
        else:
            chunks.append(served)
    if not chunks:
        matrix = np.zeros((0, out_dim), dtype=np.float32)
    else:
        matrix = np.concatenate(chunks, axis=0).astype(np.float32)
        if normalize:
            matrix = l2_normalize(matrix)
    if skip_unavailable:
        # Skipped rows stay exactly zero (l2_normalize leaves zero rows
        # untouched) so callers can overwrite them from a cache.
        return matrix, skipped
    return matrix
