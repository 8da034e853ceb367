"""Sliding-window temporal graph: the paper's ``{G^(t) | t ∈ [1, T]}``.

Paper §II-A models the production workload as a *series* of graphs — at
timestamp ``t`` the model trains against ``G^(t)``, which "receives
updates" as user interest drifts.  In the WeChat deployment, stale
interactions age out: an edge older than the retention window must stop
influencing sampling, otherwise the model keeps recommending last
month's live rooms (§I's concept-drift argument [9]).

:class:`TemporalGraphStore` wraps any :class:`GraphStoreAPI` with
ingestion timestamps and a retention window:

* ``observe(t, src, dst, weight)`` ingests an interaction at time ``t``
  (re-observing an edge refreshes its timestamp and, by default,
  *accumulates* its weight — interaction counting);
* ``advance(t)`` moves the clock and evicts every edge whose last
  observation fell out of ``[t - window, t]`` — a stream of the
  deletions the FSTable makes cheap (Table II's point);
* all :class:`GraphStoreAPI` reads/sampling delegate to the live window.

Eviction uses a time-bucketed calendar queue, so ``advance`` costs
O(expired edges), not O(live edges).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.ingest import OP_INSERT, check_row
from repro.core.memory import ID_BYTES
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError

__all__ = ["TemporalGraphStore"]

_EdgeKey = Tuple[int, int, int]  # (etype, src, dst)


class TemporalGraphStore(GraphStoreAPI):
    """A retention-windowed view over a dynamic topology store.

    Parameters
    ----------
    window:
        Retention span: an edge last observed at time ``t0`` is evicted
        once the clock passes ``t0 + window``.
    store:
        Underlying topology store (defaults to a fresh PlatoD2GL store).
    accumulate:
        When True (default), re-observing an edge adds to its weight
        (interaction counting); when False the new weight replaces the
        old one.
    """

    def __init__(
        self,
        window: int,
        store: Optional[GraphStoreAPI] = None,
        config: Optional[SamtreeConfig] = None,
        accumulate: bool = True,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.store: GraphStoreAPI = (
            store if store is not None else DynamicGraphStore(config)
        )
        self.accumulate = accumulate
        self._now = 0
        #: edge -> last observation time.
        self._last_seen: Dict[_EdgeKey, int] = {}
        #: time bucket -> {edge} scheduled for expiry check at that time.
        self._calendar: "OrderedDict[int, set]" = OrderedDict()
        self._evicted = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current timestamp ``t``."""
        return self._now

    @property
    def num_evicted(self) -> int:
        """Edges aged out since construction."""
        return self._evicted

    def observe(
        self,
        t: int,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        """Ingest an interaction at time ``t`` (monotone non-decreasing).

        Returns True when the edge is new to the current window.
        Advances the clock to ``t`` first, so expired edges never absorb
        the new observation.  A refused observation (a past ``t``, a bad
        key or weight) raises before the clock moves or anything is
        evicted.
        """
        if t < self._now:
            raise ConfigurationError(
                f"timestamps must be non-decreasing: {t} < now {self._now}"
            )
        check_row(src, dst, weight, OP_INSERT, etype)
        self.advance(t)
        key = (etype, src, dst)
        is_new = key not in self._last_seen
        if is_new or not self.accumulate:
            self.store.add_edge(src, dst, weight, etype)
        else:
            accumulate = getattr(self.store, "accumulate_edge", None)
            if accumulate is not None:
                accumulate(src, dst, weight, etype)
            else:
                old = self.store.edge_weight(src, dst, etype) or 0.0
                self.store.add_edge(src, dst, old + weight, etype)
        self._last_seen[key] = t
        self._calendar.setdefault(t + self.window, set()).add(key)
        return is_new

    def advance(self, t: int) -> int:
        """Move the clock to ``t``; returns the number of evicted edges.

        Scans only calendar buckets whose deadline has passed.  An edge
        re-observed since a bucket was scheduled is skipped there (its
        live deadline is later).
        """
        if t < self._now:
            raise ConfigurationError(
                f"cannot move the clock backwards: {t} < {self._now}"
            )
        self._now = t
        evicted = 0
        while self._calendar:
            deadline = next(iter(self._calendar))
            if deadline > t:
                break
            for key in self._calendar.popitem(last=False)[1]:
                last = self._last_seen.get(key)
                if last is None or last + self.window > t:
                    continue  # refreshed or already gone
                etype, src, dst = key
                if self.store.remove_edge(src, dst, etype):
                    evicted += 1
                del self._last_seen[key]
        self._evicted += evicted
        return evicted

    # ------------------------------------------------------------------
    # GraphStoreAPI delegation (reads see the live window)
    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        """Ingest at the current clock (convenience for store-shaped use)."""
        return self.observe(self._now, src, dst, weight, etype)

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        if (etype, src, dst) not in self._last_seen:
            return False
        self.store.update_edge(src, dst, weight, etype)
        self._last_seen[(etype, src, dst)] = self._now
        self._calendar.setdefault(self._now + self.window, set()).add(
            (etype, src, dst)
        )
        return True

    def remove_edge(self, src: int, dst: int, etype: int = DEFAULT_ETYPE) -> bool:
        key = (etype, src, dst)
        if key not in self._last_seen:
            return False
        del self._last_seen[key]
        return self.store.remove_edge(src, dst, etype)

    def degree(self, src: int, etype: int = DEFAULT_ETYPE) -> int:
        return self.store.degree(src, etype)

    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> Optional[float]:
        return self.store.edge_weight(src, dst, etype)

    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        return self.store.neighbors(src, etype)

    @property
    def num_edges(self) -> int:
        return self.store.num_edges

    @property
    def num_sources(self) -> int:
        return self.store.num_sources

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        return self.store.sources(etype)

    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: Optional[random.Random] = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        return self.store.sample_neighbors(src, k, rng, etype)

    def sample_neighbors_uniform(self, src, k, rng=None, etype=DEFAULT_ETYPE):
        return self.store.sample_neighbors_uniform(src, k, rng, etype)

    def sample_neighbors_many(
        self, srcs, k, rng=None, etype=DEFAULT_ETYPE, **kwargs
    ):
        """Forward the batched read path to the wrapped store (snapshot
        coherence is by tree version, so window evictions invalidate)."""
        return self.store.sample_neighbors_many(srcs, k, rng, etype, **kwargs)

    def nbytes(self) -> int:
        """Underlying store + timestamp map + calendar entries."""
        meta = len(self._last_seen) * (3 * ID_BYTES + 8)
        calendar = sum(len(b) for b in self._calendar.values()) * 3 * ID_BYTES
        return self.store.nbytes() + meta + calendar

    def check_invariants(self) -> None:
        """Window metadata and the underlying store must agree."""
        check = getattr(self.store, "check_invariants", None)
        if check is not None:
            check()
        from repro.errors import InvariantViolationError

        if len(self._last_seen) != self.store.num_edges:
            raise InvariantViolationError(
                f"window tracks {len(self._last_seen)} edges but store "
                f"holds {self.store.num_edges}"
            )
        for (etype, src, dst), t in self._last_seen.items():
            if t + self.window <= self._now:
                raise InvariantViolationError(
                    f"edge ({src}->{dst}, etype {etype}) expired at "
                    f"{t + self.window} but clock is {self._now}"
                )
