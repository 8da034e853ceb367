"""Read path: flat per-tree snapshots + a bounded snapshot cache.

The paper's hot path is *complete neighbor sampling* (§V-C): every GNN
mini-batch issues thousands of weighted draws, each of which the samtree
answers with a root→leaf descent (ITS at internal nodes, FTS at the
leaf).  The descent is the right structure for a *mutating* tree — every
maintenance operation stays ``O(log n)`` — but a training frontier reads
the same hot vertices over and over between mutations, and in a Python
substrate the per-draw descent is dominated by interpreter dispatch, not
by algorithmic cost.

This module adds the read-optimized half of the store, the same lever
block-level caching systems (GNNFlow) and holistic sampling/IO
optimizers (FAST) pull over a dynamic store:

* :class:`TreeSnapshot` — a *flat* image of one samtree: a contiguous
  ``neighbor_ids`` int64 array plus the inclusive cumulative-weight
  array over the same leaf order.  A batched draw is one vectorized
  ``Generator.random(size=...)`` + one ``np.searchsorted`` — inverse
  transform sampling over exactly the weights the tree holds, so the
  sampled distribution is *identical* to the exact ITS/FTS descent
  (property- and chi-square-tested).

* :class:`SnapshotCache` — a bounded LRU over snapshots, keyed by
  ``(etype, src)`` and sized in *modeled bytes* via the shared
  :class:`~repro.core.memory.MemoryModel` (one ID + one cumulative
  weight per edge).  Coherence is by *version*: every samtree carries a
  monotonically increasing epoch counter bumped by every mutation path
  (single-edge upsert/delete and the PALM tree-batch), and a cached
  snapshot is served only while its build version still matches the
  live tree.

* a **write-hot fallback** policy: a tree whose snapshot was just
  invalidated is *not* eagerly rebuilt — the read falls back to the
  exact per-draw descent until the tree's version is observed unchanged
  across two reads.  Trees in a mutate/sample/mutate/sample interleave
  therefore never thrash ``O(n)`` rebuilds, while read-hot trees
  re-enter the cache after one quiet read.

RNG plumbing: the batched read APIs accept an explicit seed — an
``int``, a ``random.Random``, or a ``numpy.random.Generator``.
:func:`coerce_generator` turns it into the vector generator the
batched draws use (a ``Generator`` passes through untouched, so one
generator derived per expansion is shared by every hop and shard), and
:func:`coerce_scalar_rng` derives the scalar rng of the exact-descent
fallback from the same input — built only when a row actually falls
back.  Both are deterministic functions of the seed.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.errors import ConfigurationError, EmptyStructureError
from repro.obs.telemetry import Stats

__all__ = [
    "AdmissionFilter",
    "TreeSnapshot",
    "SnapshotCache",
    "SnapshotCacheStats",
    "RNGLike",
    "coerce_scalar_rng",
    "coerce_generator",
    "flatten_tree",
]

#: Anything the sampling APIs accept as a randomness source.
RNGLike = Union[None, int, random.Random, np.random.Generator]

#: Default cache budget: 64 MiB of modeled snapshot bytes.
DEFAULT_CAPACITY_BYTES = 64 << 20

#: Trees below this degree are cheaper to sample exactly than to
#: snapshot + vectorize; they always take the exact descent path.
DEFAULT_MIN_DEGREE = 2

#: Bound on the write-hot probation side table.
_PROBATION_CAP = 1 << 16

#: Admission filter: halve all frequency counts every this many
#: recorded accesses (TinyLFU's "reset" — keeps the estimate recent).
_ADMISSION_SAMPLE_PERIOD = 1 << 17

#: Bound on the admission frequency table (ages early if exceeded).
_ADMISSION_TABLE_CAP = 1 << 16


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------
def coerce_scalar_rng(rng: RNGLike) -> Optional[random.Random]:
    """Normalise a seed-like input to a ``random.Random`` (or ``None``).

    Integers seed a fresh ``Random``; a NumPy generator is reduced to a
    ``Random`` seeded from one 63-bit draw (deterministic given the
    generator's state).
    """
    if rng is None or isinstance(rng, random.Random):
        return rng
    if isinstance(rng, (int, np.integer)):
        return random.Random(int(rng))
    if isinstance(rng, np.random.Generator):
        return random.Random(int(rng.integers(0, 2**63)))
    raise ConfigurationError(
        f"rng must be None, an int seed, random.Random, or "
        f"numpy.random.Generator; got {type(rng).__name__}"
    )


def coerce_generator(rng: RNGLike) -> np.random.Generator:
    """Normalise a seed-like input to a ``numpy.random.Generator``."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    raise ConfigurationError(
        f"rng must be None, an int seed, random.Random, or "
        f"numpy.random.Generator; got {type(rng).__name__}"
    )


# ---------------------------------------------------------------------------
# flat snapshots
# ---------------------------------------------------------------------------
def flatten_tree(tree) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten one samtree's leaves into ``(ids, weights)`` arrays.

    Preallocates both ``tree.degree``-sized arrays and fills them one
    leaf slice at a time (``CompressedIDList.to_array`` decodes the IDs,
    ``FSTable.to_weight_array`` copies the stored weight column), so
    the only Python-level loop is over *leaves*, not edges, and the
    weights are the tree's, bit for bit.  Shared by
    :meth:`TreeSnapshot.from_tree` and the frozen-shard compiler
    (:mod:`repro.core.frozen`).
    """
    n = tree.degree
    ids = np.empty(n, dtype=np.int64)
    weights = np.empty(n, dtype=np.float64)
    pos = 0
    for leaf in tree._leaves():
        m = len(leaf.ids)
        ids[pos : pos + m] = leaf.ids.to_array()
        weights[pos : pos + m] = leaf.fstable.to_weight_array()
        pos += m
    return ids, weights


class TreeSnapshot:
    """A contiguous read-only image of one samtree's adjacency.

    ``neighbor_ids[i]`` is a neighbor and ``cum_weights[i]`` the
    inclusive prefix sum of the weights in the same (leaf) order, so a
    weighted draw of mass ``r ∈ [0, total)`` maps to the smallest ``i``
    with ``cum_weights[i] > r`` — ``np.searchsorted(..., side="right")``
    — which is inverse transform sampling over exactly the tree's
    weights.  Zero-weight edges are never selected (their cumulative
    entry never strictly exceeds any mass), matching the descent path.
    """

    __slots__ = (
        "neighbor_ids", "cum_weights", "version", "total_weight", "tree",
    )

    def __init__(
        self,
        neighbor_ids: np.ndarray,
        cum_weights: np.ndarray,
        version: int,
        tree=None,
    ) -> None:
        self.neighbor_ids = neighbor_ids
        self.cum_weights = cum_weights
        self.version = version
        self.total_weight = float(cum_weights[-1]) if cum_weights.size else 0.0
        #: The samtree this snapshot images (enables the cache's lock-free
        #: coherence check without a directory lookup); ``None`` when
        #: built from raw arrays.
        self.tree = tree

    @classmethod
    def from_tree(cls, tree, version: Optional[int] = None) -> "TreeSnapshot":
        """Flatten a samtree into parallel ``(ids, cumulative weights)``
        arrays (one preallocated numpy fill per leaf, no per-edge
        Python list building)."""
        neighbor_ids, weights = flatten_tree(tree)
        cum = np.cumsum(weights)
        if version is None:
            version = tree.version
        return cls(neighbor_ids, cum, version, tree=tree)

    @classmethod
    def from_arrays(
        cls, ids, weights, version: int = 0
    ) -> "TreeSnapshot":
        """Build directly from parallel id/weight arrays (tests, baselines)."""
        neighbor_ids = np.asarray(ids, dtype=np.int64)
        cum = np.cumsum(np.asarray(weights, dtype=np.float64))
        return cls(neighbor_ids, cum, version)

    # -- introspection ----------------------------------------------------
    @property
    def degree(self) -> int:
        return int(self.neighbor_ids.size)

    def __len__(self) -> int:
        return self.degree

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TreeSnapshot(n={self.degree}, total={self.total_weight:.6g}, "
            f"version={self.version})"
        )

    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Modeled bytes: one ID + one cumulative-weight entry per edge."""
        return self.degree * (model.id_bytes + model.weight_bytes)

    # -- vectorized draws -------------------------------------------------
    def sample(self, k: int, gen: np.random.Generator) -> np.ndarray:
        """``k`` weighted draws with replacement (shape ``(k,)``)."""
        return self.sample_matrix(1, k, gen).reshape(-1)

    def sample_matrix(
        self, rows: int, k: int, gen: np.random.Generator
    ) -> np.ndarray:
        """``rows × k`` weighted draws with replacement.

        One vectorized uniform block + one ``searchsorted`` for the whole
        matrix — the batched equivalent of ``rows * k`` root→leaf
        descents.
        """
        if k < 0 or rows < 0:
            raise ConfigurationError(
                f"sample shape must be non-negative, got ({rows}, {k})"
            )
        return self.sample_from_uniforms(gen.random((rows, k)))

    def sample_from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        """Weighted draws from pre-generated uniforms in ``[0, 1)``.

        The batched store read path generates *one* uniform block for a
        whole frontier and hands each snapshot its slice — hundreds of
        per-source ``Generator.random`` calls collapse into one.  Inverse
        transform sampling: each uniform scales to a mass in
        ``[0, total)`` and maps to the smallest index whose cumulative
        weight strictly exceeds it.
        """
        ids = self.neighbor_ids
        n = ids.size
        if n == 0:
            raise EmptyStructureError("cannot sample from an empty snapshot")
        total = self.total_weight
        if total <= 0.0:
            # Degenerate all-zero weights: fall back to uniform.
            idx = (uniforms * n).astype(np.int64)
        else:
            idx = self.cum_weights.searchsorted(uniforms * total, side="right")
            # Guard against float round-up at the top of the mass range.
            np.minimum(idx, n - 1, out=idx)
        return ids[idx]

    def sample_uniform_matrix(
        self, rows: int, k: int, gen: np.random.Generator
    ) -> np.ndarray:
        """``rows × k`` *uniform* draws with replacement."""
        if k < 0 or rows < 0:
            raise ConfigurationError(
                f"sample shape must be non-negative, got ({rows}, {k})"
            )
        n = self.degree
        if n == 0:
            raise EmptyStructureError("cannot sample from an empty snapshot")
        return self.neighbor_ids[gen.integers(0, n, size=(rows, k))]

    def sample_uniform_from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        """Uniform draws from pre-generated uniforms in ``[0, 1)``."""
        ids = self.neighbor_ids
        n = ids.size
        if n == 0:
            raise EmptyStructureError("cannot sample from an empty snapshot")
        return ids[(uniforms * n).astype(np.int64)]


# ---------------------------------------------------------------------------
# the bounded cache
# ---------------------------------------------------------------------------
@dataclass
class SnapshotCacheStats(Stats):
    """Counters describing cache effectiveness (exported by benchmarks)."""

    DERIVED = ("hit_rate",)

    hits: int = 0
    misses: int = 0
    builds: int = 0
    invalidations: int = 0
    evictions: int = 0
    exact_fallbacks: int = 0
    admission_rejects: int = 0
    admission_ages: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AdmissionFilter:
    """TinyLFU-style frequency filter guarding cache admission.

    Keeps an exact, exponentially-aged access-frequency table (the
    bounded-memory variant of TinyLFU's count-min sketch — exact counts
    in a dict, halved every ``sample_period`` accesses with zero entries
    pruned, so the table tracks *recent* popularity in bounded space).

    The cache records every access — hit or miss — and consults the
    filter at eviction time: a candidate may only displace the LRU
    victim when its recent frequency is **at least** the victim's.
    One-hit-wonder scans (frequency 1) therefore recycle each other's
    slots but can never displace a warmer entry, while equal-frequency
    keys preserve plain LRU order, which keeps the policy a strict
    refinement of the PR-1 cache.
    """

    __slots__ = ("sample_period", "table_cap", "on_age", "_counts",
                 "_accesses")

    def __init__(
        self,
        sample_period: int = _ADMISSION_SAMPLE_PERIOD,
        table_cap: int = _ADMISSION_TABLE_CAP,
        on_age=None,
    ) -> None:
        if sample_period < 1:
            raise ConfigurationError(
                f"sample_period must be >= 1, got {sample_period}"
            )
        if table_cap < 1:
            raise ConfigurationError(
                f"table_cap must be >= 1, got {table_cap}"
            )
        self.sample_period = sample_period
        self.table_cap = table_cap
        #: Optional zero-arg callback fired on every aging pass (the
        #: cache counts them in its stats).
        self.on_age = on_age
        self._counts: Dict[Hashable, int] = {}
        self._accesses = 0

    def __len__(self) -> int:
        return len(self._counts)

    def record(self, key: Hashable) -> None:
        """Count one access of ``key``; ages the table periodically.

        Returns nothing — the hot path wants one dict upsert, not a
        conditional on the caller side.
        """
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        self._accesses += 1
        if (
            self._accesses >= self.sample_period
            or len(counts) > self.table_cap
        ):
            self.age()

    def estimate(self, key: Hashable) -> int:
        """Recent access frequency of ``key`` (0 when never seen)."""
        return self._counts.get(key, 0)

    def admits(self, candidate: Hashable, victim: Hashable) -> bool:
        """Whether ``candidate`` may evict ``victim``."""
        return self._counts.get(candidate, 0) >= self._counts.get(victim, 0)

    def age(self) -> None:
        """Halve every count and prune zeros (the TinyLFU reset)."""
        self._accesses = 0
        self._counts = {
            key: half
            for key, count in self._counts.items()
            if (half := count >> 1) > 0
        }
        if self.on_age is not None:
            self.on_age()

    def clear(self) -> None:
        self._counts.clear()
        self._accesses = 0


class SnapshotCache:
    """LRU cache of :class:`TreeSnapshot` images, bounded in modeled bytes.

    Parameters
    ----------
    capacity_bytes:
        Budget for all cached entries, accounted with ``model`` (one ID
        + one cumulative weight per edge).  Least-recently-used entries
        are evicted when a build would exceed it.
    model:
        The shared :class:`MemoryModel` used for entry accounting.
    min_degree:
        Trees below this degree never enter the cache — a handful of
        scalar descents beats an array build for them.
    admission:
        Frequency-aware admission (default on): every access is counted
        in a TinyLFU-style :class:`AdmissionFilter`, and at eviction
        time a newly built snapshot may only displace the LRU victim
        when its recent access frequency is at least the victim's.
        One-hit-wonder scans therefore stop evicting hot entries while
        equal-frequency keys keep exact LRU behaviour.  Pass ``False``
        for the PR-1 pure-LRU policy, or an :class:`AdmissionFilter`
        instance to control the aging parameters.

    Coherence policy (see module docstring): a cached entry is valid
    while ``entry.version == tree.version``.  On a version mismatch the
    entry is dropped and the tree is put on *probation*: reads take the
    exact path until the version is seen unchanged twice, which stops
    ``O(n)`` rebuild thrash on write-hot trees.
    """

    __slots__ = (
        "capacity_bytes",
        "model",
        "min_degree",
        "stats",
        "admission",
        "_entries",
        "_probation",
        "_bytes",
    )

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        model: MemoryModel = DEFAULT_MEMORY_MODEL,
        min_degree: int = DEFAULT_MIN_DEGREE,
        admission: Union[bool, "AdmissionFilter"] = True,
    ) -> None:
        if capacity_bytes < 0:
            raise ConfigurationError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        if min_degree < 0:
            raise ConfigurationError(
                f"min_degree must be >= 0, got {min_degree}"
            )
        self.capacity_bytes = capacity_bytes
        self.model = model
        self.min_degree = min_degree
        self.stats = SnapshotCacheStats()
        if admission is True:
            admission = AdmissionFilter()
        elif admission is False:
            admission = None
        self.admission: Optional[AdmissionFilter] = admission
        if self.admission is not None:
            self.admission.on_age = self._note_age
        self._entries: "OrderedDict[Hashable, TreeSnapshot]" = OrderedDict()
        self._probation: Dict[Hashable, int] = {}
        self._bytes = 0

    def _note_age(self) -> None:
        self.stats.admission_ages += 1

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def nbytes(self) -> int:
        """Modeled bytes currently cached."""
        return self._bytes

    def keys(self):
        """Cached keys, least- to most-recently used."""
        return list(self._entries.keys())

    # -- core protocol ----------------------------------------------------
    def peek(self, key: Hashable) -> Optional[TreeSnapshot]:
        """Fast-path hit check *without* a directory lookup.

        A cached entry remembers the samtree it imaged, so a fresh hit
        can verify coherence against ``entry.tree.version`` directly —
        the hot frontier loop skips the store's cuckoo lookup entirely.
        Misses and stale entries return ``None`` and must go through
        :meth:`get` with the live tree (the store invalidates entries
        whose tree leaves its directory, so a recreated source can never
        be served a predecessor's snapshot).
        """
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry.tree is not None
            and entry.tree.version == entry.version
        ):
            self.stats.hits += 1
            if self.admission is not None:
                self.admission.record(key)
            self._entries.move_to_end(key)
            return entry
        return None

    def get(self, key: Hashable, tree) -> Optional[TreeSnapshot]:
        """Return a snapshot for ``tree`` or ``None`` (use the exact path).

        ``tree`` must expose ``version``, ``degree``, and ``_leaves()``
        (a :class:`~repro.core.samtree.Samtree` does).
        """
        version = tree.version
        if self.admission is not None:
            self.admission.record(key)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.version == version:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
            # Stale: drop it and put the tree on probation.
            self.stats.invalidations += 1
            self._drop(key)
        self.stats.misses += 1
        if tree.degree < self.min_degree:
            self.stats.exact_fallbacks += 1
            return None
        last_seen = self._probation.get(key)
        if last_seen is not None and last_seen != version:
            # Write-hot: mutated again since the last read.  Stay on the
            # exact path; remember the new version for the next read.
            if len(self._probation) > _PROBATION_CAP:
                self._probation.clear()  # worst case: one early rebuild
            self._probation[key] = version
            self.stats.exact_fallbacks += 1
            return None
        return self._build(key, tree, version)

    def invalidate(self, key: Hashable) -> bool:
        """Explicitly drop one entry (returns whether it existed)."""
        if key in self._entries:
            self.stats.invalidations += 1
            self._drop(key)
            return True
        self._probation.pop(key, None)
        return False

    def clear(self) -> None:
        """Drop every entry (counters are kept; use ``stats.reset()``)."""
        self._entries.clear()
        self._probation.clear()
        if self.admission is not None:
            self.admission.clear()
        self._bytes = 0

    # -- internals --------------------------------------------------------
    def _drop(self, key: Hashable) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes(self.model)
        self._probation[key] = entry.version  # stale marker, any value

    def _build(self, key: Hashable, tree, version: int) -> Optional[TreeSnapshot]:
        snapshot = TreeSnapshot.from_tree(tree, version)
        self.stats.builds += 1
        self._probation.pop(key, None)
        cost = snapshot.nbytes(self.model)
        if cost > self.capacity_bytes:
            # Larger than the whole budget: serve it, never cache it.
            return snapshot
        while self._bytes + cost > self.capacity_bytes and self._entries:
            victim_key = next(iter(self._entries))
            if self.admission is not None and not self.admission.admits(
                key, victim_key
            ):
                # The LRU victim is recently hotter than the candidate:
                # serve the snapshot but keep the cache contents (the
                # TinyLFU admission decision).
                self.stats.admission_rejects += 1
                return snapshot
            evicted = self._entries.pop(victim_key)
            self._bytes -= evicted.nbytes(self.model)
            self.stats.evictions += 1
        self._entries[key] = snapshot
        self._bytes += cost
        return snapshot
