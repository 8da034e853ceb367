"""Concurrent cuckoo hashmap (paper §IV-B).

PlatoD2GL keeps one directory entry per source vertex — the value is the
tuple ``<|N_u|, T_u>`` (out-degree and samtree) — in a *concurrent cuckoo
hashmap* following MemC3 [7] and the algorithmic improvements of [23]:

* two hash functions, bucketised slots (4 ways per bucket, as MemC3);
* inserts displace residents along a bounded eviction path;
* a full table (or an eviction path that exceeds the bound) doubles the
  bucket count and rehashes;
* readers are lock-free: each slot holds one ``(key, value)`` pair, so a
  slot read is a single GIL-atomic list access and can never observe a
  torn key/value combination even while an eviction is relocating pairs.
  One write lock serialises mutators — a coarse but correct stand-in for
  MemC3's optimistic versioned reads, which CPython cannot express
  usefully; the PALM executor additionally partitions update batches so
  that no two threads ever write the same tree.

The map accepts any hashable key so heterogeneous stores can key the
directory by ``(edge_type, src)``.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Iterator, List, Optional, Tuple

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.errors import ConfigurationError, HashMapFullError

__all__ = ["CuckooHashMap"]

#: Slots per bucket (MemC3 uses 4-way buckets).
_BUCKET_WAYS = 4

#: Maximum displacement-path length before we give up and resize.
_MAX_EVICTIONS = 500

#: Odd multiplier deriving the second bucket choice from the first hash.
_SEED = 0x9E3779B97F4A7C15

_MASK64 = 0xFFFFFFFFFFFFFFFF


class CuckooHashMap:
    """4-way bucketised cuckoo hash map with lock-free reads.

    Parameters
    ----------
    initial_buckets:
        Starting number of buckets (rounded up to a power of two).
    """

    def __init__(self, initial_buckets: int = 16) -> None:
        if initial_buckets < 1:
            raise ConfigurationError(
                f"initial_buckets must be >= 1, got {initial_buckets}"
            )
        n = 1
        while n < initial_buckets:
            n <<= 1
        self._num_buckets = n
        # One (key, value) tuple or None per slot: single-read atomicity.
        self._slots: List[Optional[Tuple[Hashable, Any]]] = [None] * (
            n * _BUCKET_WAYS
        )
        self._size = 0
        self._resize_lock = threading.Lock()

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def _buckets_for(self, key: Hashable) -> Tuple[int, int]:
        h = hash(key)
        mask = self._num_buckets - 1
        h2 = ((h * _SEED) & _MASK64) >> 17
        return h & mask, h2 & mask

    # ------------------------------------------------------------------
    # core slot operations (mutators hold the write lock)
    # ------------------------------------------------------------------
    def _find_slot(self, key: Hashable) -> int:
        """Index of the slot holding ``key`` or -1 (lock-free)."""
        slots = self._slots
        b1, b2 = self._buckets_for(key)
        base = b1 * _BUCKET_WAYS
        for s in range(base, base + _BUCKET_WAYS):
            pair = slots[s]
            if pair is not None and pair[0] == key:
                return s
        if b2 != b1:
            base = b2 * _BUCKET_WAYS
            for s in range(base, base + _BUCKET_WAYS):
                pair = slots[s]
                if pair is not None and pair[0] == key:
                    return s
        return -1

    def _free_slot(self, bucket: int) -> int:
        base = bucket * _BUCKET_WAYS
        for s in range(base, base + _BUCKET_WAYS):
            if self._slots[s] is None:
                return s
        return -1

    def _insert_with_evictions(self, key: Hashable, value: Any) -> bool:
        """Try to place ``key`` via cuckoo displacement; False = full."""
        pair = (key, value)
        bucket = self._buckets_for(key)[0]
        for attempt in range(_MAX_EVICTIONS):
            slot = self._free_slot(bucket)
            if slot < 0:
                # Try the alternate bucket before evicting.
                alt = self._alternate(pair[0], bucket)
                slot = self._free_slot(alt)
                if slot >= 0:
                    bucket = alt
            if slot >= 0:
                self._slots[slot] = pair
                return True
            # Evict a rotating resident of this bucket and re-home it in
            # its alternate bucket next round.
            victim = bucket * _BUCKET_WAYS + (attempt % _BUCKET_WAYS)
            pair, self._slots[victim] = self._slots[victim], pair
            bucket = self._alternate(pair[0], bucket)
        # Path too long: grow, then place the displaced pair.
        self._rehash_locked(self._num_buckets * 2)
        return self._insert_with_evictions(pair[0], pair[1])

    def _alternate(self, key: Hashable, bucket: int) -> int:
        b1, b2 = self._buckets_for(key)
        return b2 if bucket == b1 else b1

    def _rehash_locked(self, num_buckets: int) -> None:
        """Move every pair into a table of ``num_buckets`` buckets (write
        lock already held)."""
        old = self._slots
        self._num_buckets = num_buckets
        if self._num_buckets > 1 << 34:  # pragma: no cover - safety net
            raise HashMapFullError("cuckoo hashmap grew past 2^34 buckets")
        self._slots = [None] * (self._num_buckets * _BUCKET_WAYS)
        for pair in old:
            if pair is not None:
                if not self._insert_with_evictions(pair[0], pair[1]):
                    raise HashMapFullError(
                        "rehash failed to place an existing key"
                    )

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def put(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite ``key``."""
        with self._resize_lock:
            slot = self._find_slot(key)
            if slot >= 0:
                self._slots[slot] = (key, value)
                return
            if not self._insert_with_evictions(key, value):
                raise HashMapFullError(f"could not place key {key!r}")
            self._size += 1

    def reserve(self, n: int) -> None:
        """Make room for ``n`` keys in all with one rehash.

        Grows straight to the smallest table with a slot per key — the
        size below which one-by-one :meth:`put` could not stop either,
        so a reserved build never ends with more buckets than a grown
        one — instead of doubling through every size on the way, each
        step a full rehash behind a table packed to its last slots."""
        with self._resize_lock:
            buckets = self._num_buckets
            while buckets * _BUCKET_WAYS < n:
                buckets <<= 1
            if buckets > self._num_buckets:
                self._rehash_locked(buckets)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default`` (lock-free).

        The store's hottest call: :meth:`_buckets_for` inlined (the second
        hash only on a first-bucket miss), each bucket read as one slice."""
        slots = self._slots
        h = hash(key)
        mask = self._num_buckets - 1
        base = (h & mask) * _BUCKET_WAYS
        for pair in slots[base : base + _BUCKET_WAYS]:
            if pair is not None and pair[0] == key:
                return pair[1]
        base = ((((h * _SEED) & _MASK64) >> 17) & mask) * _BUCKET_WAYS
        for pair in slots[base : base + _BUCKET_WAYS]:
            if pair is not None and pair[0] == key:
                return pair[1]
        return default

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; returns whether it was present."""
        with self._resize_lock:
            slot = self._find_slot(key)
            if slot < 0:
                return False
            self._slots[slot] = None
            self._size -= 1
            return True

    def __contains__(self, key: Hashable) -> bool:
        return self._find_slot(key) >= 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Hashable]:
        return self.keys()

    def keys(self) -> Iterator[Hashable]:
        """Iterate over keys (snapshot-free; callers should not mutate)."""
        for pair in self._slots:
            if pair is not None:
                yield pair[0]

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate over ``(key, value)`` pairs."""
        for pair in self._slots:
            if pair is not None:
                yield pair

    def values(self) -> Iterator[Any]:
        """Iterate over values."""
        for pair in self._slots:
            if pair is not None:
                yield pair[1]

    @property
    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return self._size / (self._num_buckets * _BUCKET_WAYS)

    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Modeled bytes: every slot pays a directory entry whether used
        or not (the table is pre-allocated), matching the paper's
        directory accounting."""
        return self._num_buckets * _BUCKET_WAYS * model.directory_entry_bytes
