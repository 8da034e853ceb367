"""Concurrent cuckoo hashmap (paper §IV-B).

PlatoD2GL keeps one directory entry per source vertex — the value is the
tuple ``<|N_u|, T_u>`` (out-degree and samtree) — in a *concurrent cuckoo
hashmap* following MemC3 [7] and the algorithmic improvements of [23]:

* two hash functions, bucketised slots (4 ways per bucket, as MemC3);
* inserts displace residents along a bounded eviction path;
* a full table (or an eviction path that exceeds the bound) doubles the
  bucket count and rehashes;
* a hit takes no lock: each slot holds one ``(key, value)`` pair, so a
  slot read is a single GIL-atomic list access and never observes a
  torn key/value combination.  A *miss* can be wrong, though: while an
  insert displaces residents one pair is held outside the table, and a
  rehash refills a fresh table pair by pair, so a present key may sit in
  no slot for a moment.  As MemC3's version counter does, ``_moves`` is
  odd while pairs are in flight; a probe that misses while it is odd,
  or after it changed during the probe, looks again under the write
  lock.  One write lock serialises mutators; the PALM executor
  additionally partitions update batches so that no two threads ever
  write the same tree;
* a per-slot hash column (MemC3's tag array, at full width) answers a
  whole batch of keys in a few numpy passes
  (:meth:`CuckooHashMap.get_many`), every match confirmed by its key.

The map accepts any hashable key so heterogeneous stores can key the
directory by ``(edge_type, src)``.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Hashable, Iterator, List, Optional, Tuple

import numpy as np

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

#: :meth:`CuckooHashMap.get_many` of fewer keys is the scalar loop: the
#: numpy probe costs ~20–30 µs however few keys it serves (DESIGN.md §9).
PROBE_LOOP_BELOW = 32

#: The ``default`` that tells a miss from a stored ``None``.
_ABSENT = object()


def _second_bucket(h: np.ndarray, mask: int) -> np.ndarray:
    """The second bucket of every hash of ``h``: ``(h·SEED mod 2⁶⁴) >> 17
    & mask`` in ``uint64`` arithmetic, as :meth:`CuckooHashMap._buckets_for`."""
    second = (h.view(np.uint64) * np.uint64(_SEED)) >> np.uint64(17)
    return second.view(np.int64) & mask


def _probe_bucket(
    table: np.ndarray, bucket: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Read bucket ``bucket[i]`` of the ``(buckets, 4)`` hash column
    ``table`` as one row and compare it with ``h[i]``: the first
    matching slot of every key (meaningless where none does) and
    whether one did."""
    hit = table.take(bucket, axis=0) == h[:, None]
    # A row's four one-byte flags read as one uint32: non-zero = a match.
    found = hit.view(np.uint32).ravel() != 0
    return bucket * _BUCKET_WAYS + hit.argmax(axis=1), found


class CuckooHashMap:
    """4-way bucketised cuckoo hash map whose hits take no lock.

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
        #: ``hash(key)`` of every slot's key, -1 (no ``hash``) where empty.
        self._hashes = np.full(n * _BUCKET_WAYS, -1, dtype=np.int64)
        #: Odd while pairs move (an eviction path, a rehash); see :meth:`get`.
        self._moves = 0
        self._size = 0
        self._resize_lock = threading.Lock()

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def _buckets_for(self, h: int) -> Tuple[int, int]:
        """The two buckets of a key whose ``hash`` is ``h``."""
        mask = self._num_buckets - 1
        h2 = ((h * _SEED) & _MASK64) >> 17
        return h & mask, h2 & mask

    # ------------------------------------------------------------------
    # core slot operations (mutators hold the write lock)
    # ------------------------------------------------------------------
    def _find_slot(self, key: Hashable) -> int:
        """Index of the slot holding ``key`` or -1."""
        slots = self._slots
        b1, b2 = self._buckets_for(hash(key))
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

    def _insert_with_evictions(self, key: Hashable, value: Any) -> None:
        """Place the absent ``key`` via cuckoo displacement, growing the
        table when the path gets too long.  From the first eviction on,
        ``_moves`` is odd; the public mutator makes it even again."""
        pair, h = (key, value), hash(key)
        slots, hashes = self._slots, self._hashes
        bucket = h & (self._num_buckets - 1)
        for attempt in range(_MAX_EVICTIONS):
            slot = self._free_slot(bucket)
            if slot < 0:
                # Try the alternate bucket before evicting.
                alt = self._alternate(h, bucket)
                slot = self._free_slot(alt)
                if slot >= 0:
                    bucket = alt
            if slot >= 0:
                slots[slot] = pair
                hashes[slot] = h
                return
            # Evict a rotating resident of this bucket and re-home it in
            # its alternate bucket next round.
            self._moves |= 1
            victim = bucket * _BUCKET_WAYS + (attempt % _BUCKET_WAYS)
            pair, slots[victim] = slots[victim], pair
            h, hashes[victim] = hashes.item(victim), h
            bucket = self._alternate(h, bucket)
        # Path too long: grow, then place the displaced pair.
        self._rehash_locked(self._num_buckets * 2)
        self._insert_with_evictions(*pair)

    def _alternate(self, h: int, bucket: int) -> int:
        b1, b2 = self._buckets_for(h)
        return b2 if bucket == b1 else b1

    def _rehash_locked(self, num_buckets: int) -> None:
        """Move every pair into a table of ``num_buckets`` buckets (write
        lock already held; ``_moves`` left odd)."""
        self._moves |= 1
        old = self._slots
        self._num_buckets = num_buckets
        if self._num_buckets > 1 << 34:  # pragma: no cover - safety net
            raise HashMapFullError("cuckoo hashmap grew past 2^34 buckets")
        self._slots = [None] * (self._num_buckets * _BUCKET_WAYS)
        self._hashes = np.full(len(self._slots), -1, dtype=np.int64)
        for pair in old:
            if pair is not None:
                self._insert_with_evictions(*pair)

    def _reprobe(self, key: Hashable, default: Any) -> Any:
        """A lock-free probe missed ``key`` while pairs were moving: look
        again with the mutators held off."""
        with self._resize_lock:
            slot = self._find_slot(key)
            return self._slots[slot][1] if slot >= 0 else default

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
            self._insert_with_evictions(key, value)
            self._moves += self._moves & 1  # every pair is home again
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
                self._moves += 1

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default`` (lock-free on a hit).

        The store's hottest call: :meth:`_buckets_for` inlined (the second
        hash only on a first-bucket miss), each bucket read as one slice.
        A miss while pairs move is re-probed under the lock."""
        moves = self._moves
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
        if moves & 1 or moves != self._moves:
            return self._reprobe(key, default)
        return default

    def get_many(self, keys: List[Hashable]) -> List[Any]:
        """``[self.get(key) for key in keys]`` (misses: ``None``) in one
        vectorised probe of the hash column (DESIGN.md §9).

        Every key's first bucket is read as one row of ``_hashes`` and
        compared; the keys it misses read their second.  Every match is
        confirmed by its key: a shared hash, or a slot emptied or moved
        under the read, answers the whole call by scalar :meth:`get`\\ s,
        and a miss while pairs move is re-probed under the lock.  Fewer
        than :data:`PROBE_LOOP_BELOW` keys take the scalar loop."""
        n = len(keys)
        if n < PROBE_LOOP_BELOW:
            return list(map(self.get, keys))
        moves = self._moves
        slots = self._slots
        table = self._hashes.reshape(-1, _BUCKET_WAYS)
        mask = len(table) - 1
        h = np.fromiter(map(hash, keys), np.int64, n)
        slot, found = _probe_bucket(table, h & mask, h)
        missed = np.flatnonzero(~found)
        if missed.size:  # the second bucket, for what the first missed
            h = h[missed]
            slot[missed], again = _probe_bucket(table, _second_bucket(h, mask), h)
            found[missed] = again
            missed = missed[~again]
        probed, at = keys, None
        if missed.size:
            slot = slot[found]
            at = np.flatnonzero(found).tolist()
            probed = list(map(keys.__getitem__, at))
        try:
            pairs = list(map(slots.__getitem__, slot.tolist()))
            confirmed = list(map(itemgetter(0), pairs)) == probed
        except (IndexError, TypeError):  # a table swapped, a slot emptied
            confirmed = False
        if not confirmed:
            return list(map(self.get, keys))
        values = list(map(itemgetter(1), pairs))
        if at is None:
            return values
        out = [None] * n
        for i, value in zip(at, values):
            out[i] = value
        if moves & 1 or moves != self._moves:
            for i in missed.tolist():
                out[i] = self._reprobe(keys[i], None)
        return out

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; returns whether it was present."""
        with self._resize_lock:
            slot = self._find_slot(key)
            if slot < 0:
                return False
            self._slots[slot] = None
            self._hashes[slot] = -1
            self._size -= 1
            return True

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, _ABSENT) is not _ABSENT

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
