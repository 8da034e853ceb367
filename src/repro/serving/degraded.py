"""Last-good embedding cache for degraded serving.

When a request's seed lives on a shard with no live replica (the
degraded-read :data:`~repro.core.types.UNAVAILABLE` marker, or a shed
decision that still deserves *an* answer), the service returns the last
fresh embedding it computed for that vertex — time-stamped on the
simulated clock and bounded by a staleness budget, mirroring the frozen
read path's epoch/staleness contract.  Callers always see the answer
flagged ``degraded=True``; an entry past its budget is as good as a
miss.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DegradedAnswerCache"]


class DegradedAnswerCache:
    """Bounded LRU of ``vertex -> (embedding, stamped_at)``.

    ``staleness_budget_seconds`` bounds how old a served stale answer
    may be (simulated seconds since the embedding was computed);
    ``capacity`` bounds memory.  All times come from the caller so the
    cache lives on the cluster's simulated clock.
    """

    __slots__ = (
        "staleness_budget_seconds",
        "capacity",
        "_entries",
        "hits",
        "misses",
        "stale_rejects",
        "evictions",
    )

    def __init__(
        self,
        staleness_budget_seconds: float = 60.0,
        capacity: int = 65536,
    ) -> None:
        if staleness_budget_seconds <= 0:
            raise ConfigurationError(
                f"staleness_budget_seconds must be > 0, got "
                f"{staleness_budget_seconds}"
            )
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.staleness_budget_seconds = float(staleness_budget_seconds)
        self.capacity = capacity
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Lookups that found an entry but past the staleness budget.
        self.stale_rejects = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, vertex: int, embedding: np.ndarray, now: float) -> None:
        """Refresh the last-good embedding of ``vertex`` at time ``now``."""
        key = int(vertex)
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = (np.asarray(embedding, dtype=np.float32), now)

    def get(self, vertex: int, now: float) -> Optional[np.ndarray]:
        """Last-good embedding of ``vertex``, or ``None`` if absent/stale."""
        entry = self._entries.get(int(vertex))
        if entry is None:
            self.misses += 1
            return None
        embedding, stamped_at = entry
        if now - stamped_at > self.staleness_budget_seconds:
            self.stale_rejects += 1
            return None
        self.hits += 1
        self._entries.move_to_end(int(vertex))
        return embedding

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale_rejects = 0
        self.evictions = 0
