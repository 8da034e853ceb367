"""Hot-set tracking for power-law serving traffic (ROADMAP item 3).

Production GNN serving traffic is extremely read-skewed: a tiny set of
source vertices (celebrity accounts, viral items) absorbs most sampling
requests, so aggregate throughput is gated by how the system treats hot
keys, not by average-case kernel speed (GLISP makes the same
observation for placement).  This module provides the measurement half
of the skew-aware serving layer:

* :class:`HotSetTracker` — a space-bounded frequency tracker over
  source-vertex read traffic.  It is the classic **SpaceSaving** top-k
  sketch (Metwally et al.): at most ``capacity`` counters; an untracked
  key arriving at a full table *replaces* the minimum-count entry and
  inherits its count (recorded as that entry's overestimation error),
  which guarantees any key with true frequency above ``N/capacity`` is
  tracked.  On top of SpaceSaving sits an **exponential decay**: every
  ``decay_interval`` observations all counts are halved, so the sketch
  tracks *recent* popularity and a cooled-off hub ages out instead of
  squatting in the top-k forever.

* :class:`HotReplicaDirectory` — the control-plane output: which hot
  sources currently have extra read replicas and on which shards.  The
  :class:`~repro.distributed.client.GraphClient` consults it to spread
  reads round-robin across a hot source's replica set and to fan writes
  out to every copy (copies stay coherent, so sampling from any of them
  is distribution-identical).

Both are plain-Python and O(1) per observation — they sit on the client
hot path, so there is no numpy round-trip for single-batch updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.telemetry import Stats

__all__ = [
    "HotSetEntry",
    "HotSetStats",
    "HotSetTracker",
    "HotReplicaDirectory",
]

#: Default counter budget: enough for the head of any realistic zipf
#: (guarantee threshold N/1024 of recent traffic).
DEFAULT_CAPACITY = 1024

#: Halve all counts every this many observations (recency horizon).
DEFAULT_DECAY_INTERVAL = 1 << 17


@dataclass
class HotSetStats(Stats):
    """Counters describing tracker behaviour (exported as
    ``repro_hotset_*`` by the cluster's registry)."""

    observations: int = 0
    replacements: int = 0
    decays: int = 0


class HotSetEntry:
    """One tracked source: decayed count + SpaceSaving error bound."""

    __slots__ = ("src", "count", "error")

    def __init__(self, src: int, count: int, error: int) -> None:
        self.src = src
        self.count = count
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HotSetEntry(src={self.src}, count={self.count}, error={self.error})"


class HotSetTracker:
    """SpaceSaving top-k over read traffic, with exponential decay.

    Parameters
    ----------
    capacity:
        Maximum number of tracked sources.  SpaceSaving guarantees every
        source whose (decayed) frequency exceeds ``observations/capacity``
        is present in the table.
    decay_interval:
        All counts are halved after this many observations; entries
        decayed to zero are dropped, so the table self-cleans when the
        hot set shifts.
    """

    __slots__ = ("capacity", "decay_interval", "stats", "_entries",
                 "_buckets", "_min_count", "_since_decay")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        decay_interval: int = DEFAULT_DECAY_INTERVAL,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}"
            )
        if decay_interval < 1:
            raise ConfigurationError(
                f"decay_interval must be >= 1, got {decay_interval}"
            )
        self.capacity = capacity
        self.decay_interval = decay_interval
        self.stats = HotSetStats()
        self._entries: Dict[int, HotSetEntry] = {}
        # Stream-summary index: count -> set of srcs at that count, plus
        # the current minimum count.  Victim selection is O(1) instead
        # of an O(capacity) scan — the tracker sits on the client's
        # per-batch hot path, where tail churn replaces constantly.
        self._buckets: Dict[int, set] = {}
        self._min_count = 0
        self._since_decay = 0

    # -- bucket maintenance ------------------------------------------------
    def _bucket_add(self, src: int, count: int) -> None:
        bucket = self._buckets.get(count)
        if bucket is None:
            self._buckets[count] = {src}
        else:
            bucket.add(src)

    def _bucket_remove(self, src: int, count: int, fallback: int) -> None:
        bucket = self._buckets[count]
        bucket.discard(src)
        if not bucket:
            del self._buckets[count]
            if count == self._min_count:
                # Rare: the min bucket emptied.  The next min is the
                # smallest remaining count (O(#distinct counts), itself
                # bounded by capacity and tiny under zipf traffic).
                self._min_count = (
                    min(self._buckets) if self._buckets else fallback
                )

    # -- observation path --------------------------------------------------
    def observe(self, src: int, count: int = 1) -> None:
        """Record ``count`` reads of one source."""
        if count <= 0:
            return
        self.stats.observations += count
        self._since_decay += count
        entries = self._entries
        entry = entries.get(src)
        if entry is not None:
            old = entry.count
            entry.count += count
            self._bucket_remove(src, old, entry.count)
            self._bucket_add(src, entry.count)
        elif len(entries) < self.capacity:
            entries[src] = HotSetEntry(src, count, 0)
            self._bucket_add(src, count)
            if len(entries) == 1 or count < self._min_count:
                self._min_count = count
        else:
            # SpaceSaving replacement: the new key inherits the minimum
            # count (its possible overestimation, recorded as error).
            victim_count = self._min_count
            victim_src = next(iter(self._buckets[victim_count]))
            new_count = victim_count + count
            del entries[victim_src]
            entries[src] = HotSetEntry(src, new_count, victim_count)
            self._bucket_remove(victim_src, victim_count, new_count)
            self._bucket_add(src, new_count)
            if new_count < self._min_count:
                self._min_count = new_count
            self.stats.replacements += 1
        if self._since_decay >= self.decay_interval:
            self._decay()

    def observe_counts(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Record pre-aggregated ``(src, multiplicity)`` pairs — the shape
        the coalescing client produces per batch."""
        for src, count in pairs:
            self.observe(int(src), int(count))

    def _decay(self) -> None:
        self._since_decay = 0
        self.stats.decays += 1
        dead: List[int] = []
        for entry in self._entries.values():
            entry.count >>= 1
            entry.error >>= 1
            if entry.count == 0:
                dead.append(entry.src)
        for src in dead:
            del self._entries[src]
        # Rebuild the stream-summary index in one pass (decays are rare
        # — every ``decay_interval`` observations).
        self._buckets.clear()
        self._min_count = 0
        for entry in self._entries.values():
            self._bucket_add(entry.src, entry.count)
            if self._min_count == 0 or entry.count < self._min_count:
                self._min_count = entry.count

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, src: int) -> bool:
        return src in self._entries

    def count(self, src: int) -> int:
        """Decayed (possibly overestimated) read count of one source."""
        entry = self._entries.get(src)
        return entry.count if entry is not None else 0

    def top(self, n: int) -> List[HotSetEntry]:
        """The ``n`` hottest tracked sources, hottest first."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        ranked = sorted(
            self._entries.values(), key=lambda e: (-e.count, e.src)
        )
        return ranked[:n]

    def clear(self) -> None:
        """Drop all tracked entries (stats are kept; use ``stats.reset``)."""
        self._entries.clear()
        self._buckets.clear()
        self._min_count = 0
        self._since_decay = 0


class HotReplicaDirectory:
    """Which hot sources have extra read replicas, and where.

    Maps ``src -> [shard, ...]`` — the **full** read set including the
    primary, in a stable order.  The client rotates through the list per
    read (round-robin spreading) and fans writes out to every member, so
    all copies stay coherent and sampling from any copy is
    distribution-identical to sampling the primary.
    """

    __slots__ = ("_replicas", "_rotation")

    def __init__(self) -> None:
        self._replicas: Dict[int, List[int]] = {}
        self._rotation: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._replicas)

    def __bool__(self) -> bool:
        return bool(self._replicas)

    def __contains__(self, src: int) -> bool:
        return src in self._replicas

    def items(self):
        return self._replicas.items()

    def shards(self, src: int) -> Optional[List[int]]:
        """Full read set of a source (``None`` when not replicated)."""
        return self._replicas.get(src)

    def extras(self, src: int, primary: int) -> List[int]:
        """Extra copies beyond the primary (write fan-out targets)."""
        group = self._replicas.get(src)
        if not group:
            return []
        return [s for s in group if s != primary]

    def set_replicas(self, src: int, shards: Sequence[int]) -> None:
        """Install/replace the read set of one source.

        ``shards`` must be non-empty and duplicate-free; the first
        element is conventionally the primary.
        """
        shard_list = [int(s) for s in shards]
        if not shard_list:
            raise ConfigurationError(
                f"replica set of source {src} must be non-empty"
            )
        if len(set(shard_list)) != len(shard_list):
            raise ConfigurationError(
                f"replica set of source {src} has duplicates: {shard_list}"
            )
        self._replicas[int(src)] = shard_list
        self._rotation.setdefault(int(src), 0)

    def drop(self, src: int) -> bool:
        """Remove a source from the directory (returns whether present)."""
        self._rotation.pop(src, None)
        return self._replicas.pop(src, None) is not None

    def drop_shard(self, src: int, shard: int) -> None:
        """Remove one shard from a source's read set (e.g. after a
        failed coherence write); dropping the last shard removes the
        source entirely."""
        group = self._replicas.get(src)
        if group is None:
            return
        remaining = [s for s in group if s != shard]
        if remaining:
            self._replicas[src] = remaining
            self._rotation[src] = 0
        else:
            self.drop(src)

    def route(self, src: int) -> Optional[int]:
        """Next shard to read this source from (round-robin), or ``None``
        when the source is not replicated."""
        group = self._replicas.get(src)
        if not group:
            return None
        slot = self._rotation.get(src, 0)
        self._rotation[src] = (slot + 1) % len(group)
        return group[slot % len(group)]

    def clear(self) -> None:
        self._replicas.clear()
        self._rotation.clear()
