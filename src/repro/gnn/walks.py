"""Weighted random walks over the dynamic store.

The paper's sampling machinery descends from the random-walk engines of
graph-embedding systems (its ITS method is KnightKing's [34]); walk-based
objectives — DeepWalk/node2vec-style skip-gram pairs, PinSage-style
importance pooling — are standard companions to GNN training in
production recommenders.  This module runs them directly against any
:class:`GraphStoreAPI`, so every step is one weighted neighbor draw
through the store's ITS/FTS path and always reflects the current graph.

* :func:`random_walks` — plain weighted walks (restart-capable);
* :func:`walk_cooccurrence` — skip-gram (center, context) pair counts,
  the training signal for unsupervised embeddings.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError

__all__ = [
    "random_walks",
    "walk_cooccurrence",
]


def random_walks(
    store: GraphStoreAPI,
    seeds: Sequence[int],
    length: int,
    rng: Optional[random.Random] = None,
    etype: int = DEFAULT_ETYPE,
    restart_prob: float = 0.0,
) -> List[List[int]]:
    """One weighted walk of ``length`` steps per seed.

    A walk stops early at a sink (vertex without out-edges).  With
    ``restart_prob`` > 0 each step teleports back to the seed with that
    probability (personalised-PageRank-style walks).
    """
    if length < 0:
        raise ConfigurationError(f"length must be >= 0, got {length}")
    if not 0.0 <= restart_prob < 1.0:
        raise ConfigurationError(
            f"restart_prob must be in [0, 1), got {restart_prob}"
        )
    rng = rng or random
    walks = []
    for seed in seeds:
        walk = [int(seed)]
        current = int(seed)
        for _ in range(length):
            if restart_prob and rng.random() < restart_prob:
                current = int(seed)
                walk.append(current)
                continue
            step = store.sample_neighbors(current, 1, rng, etype)
            if not step:
                break
            current = int(step[0])
            walk.append(current)
        walks.append(walk)
    return walks


def walk_cooccurrence(
    walks: Sequence[Sequence[int]], window: int
) -> Dict[Tuple[int, int], int]:
    """Skip-gram (center, context) pair counts within ``window`` hops.

    The training-pair generator for unsupervised walk embeddings; pairs
    are directed (center, context) with contexts on both sides.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    pairs: Counter = Counter()
    for walk in walks:
        for i, center in enumerate(walk):
            lo = max(0, i - window)
            hi = min(len(walk), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs[(int(center), int(walk[j]))] += 1
    return dict(pairs)
