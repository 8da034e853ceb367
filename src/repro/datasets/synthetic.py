"""Synthetic graph generation with power-law degree structure.

Real interaction graphs — OGBN products, Reddit, and especially the
WeChat user-live graph — have heavy-tailed degree distributions; samtree
shape, block counts, and update costs all depend on that skew.  The
generator draws edge endpoints from Zipf-ranked vertex popularity so the
scaled datasets stress the same structural regime the paper's do.

Vertex IDs are offset per node type (the high bytes encode the type),
which both keeps heterogeneous ID spaces disjoint and mirrors the
production layout where CP-IDs prefix compression earns its keep.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "TYPE_ID_STRIDE",
    "type_offset",
    "zipf_probabilities",
    "power_law_edges",
]

#: ID-space stride between node types: type ``t`` owns
#: ``[t * STRIDE, (t + 1) * STRIDE)``.  2^40 leaves the top 3 bytes of a
#: 64-bit ID shared within a type — the prefix CP-IDs compresses.
TYPE_ID_STRIDE = 1 << 40


def type_offset(node_type: int) -> int:
    """Base vertex ID of a node type's ID range."""
    if node_type < 0:
        raise ConfigurationError(f"node_type must be >= 0, got {node_type}")
    return node_type * TYPE_ID_STRIDE


def zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    """Zipf-ranked probability vector ``p_i ∝ (i + 1)^-exponent``."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if exponent < 0:
        raise ConfigurationError(f"exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks ** -exponent
    return p / p.sum()


def power_law_edges(
    num_src: int,
    num_dst: int,
    num_edges: int,
    rng: np.random.Generator,
    src_exponent: float = 0.8,
    dst_exponent: float = 0.8,
    src_type: int = 0,
    dst_type: int = 0,
    min_weight: float = 0.1,
    max_weight: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``num_edges`` weighted edges with Zipf-skewed endpoints.

    Returns ``(src, dst, weight)`` arrays.  Endpoints repeat (a repeated
    pair is an in-place weight update when replayed into a store, exactly
    the dynamic-update mix the paper's workloads contain).  Popularity is
    shuffled so vertex rank is independent of vertex ID — otherwise low
    IDs would be systematically hot and share samtree leaves.
    """
    if num_src < 1 or num_dst < 1:
        raise ConfigurationError(
            f"need at least one src and dst vertex, got {num_src}/{num_dst}"
        )
    if num_edges < 0:
        raise ConfigurationError(f"num_edges must be >= 0, got {num_edges}")
    src_perm = rng.permutation(num_src)
    dst_perm = rng.permutation(num_dst)
    src_ranks = rng.choice(
        num_src, size=num_edges, p=zipf_probabilities(num_src, src_exponent)
    )
    dst_ranks = rng.choice(
        num_dst, size=num_edges, p=zipf_probabilities(num_dst, dst_exponent)
    )
    src = src_perm[src_ranks].astype(np.int64) + type_offset(src_type)
    dst = dst_perm[dst_ranks].astype(np.int64) + type_offset(dst_type)
    weights = rng.uniform(min_weight, max_weight, size=num_edges).astype(
        np.float64
    )
    return src, dst, weights
