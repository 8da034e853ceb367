"""Concurrent cuckoo hashmap (paper §IV-B), held in numpy columns.

PlatoD2GL keeps one directory entry per source vertex — the tuple
``<|N_u|, T_u>`` — in a concurrent cuckoo hashmap after MemC3 [7] and
[23] (DESIGN.md §9): 4-way buckets; ``(etype, src)`` keys in an
``int16`` and an ``int64`` column beside an ``int64`` value column,
whose positive entries are slab rows and whose negative ones ``~i``
name samtree ``trees[i]``; an empty slot is ``src == -1`` with value 0,
so a probe of a negative id (never a key) reads a miss; two independent
multiply-shift hashes, range-reduced to any bucket count, that numpy
and the scalar path compute alike.  A table is sized to its keys by
one rule, ⌈n / 3.6⌉ buckets for ``n`` keys (at most 90 % full), and
grows by ≤ 1.25× past that.  An insert into two full buckets shifts a
breadth-first cuckoo path back from its free end, so no key is ever
in no slot; a slot takes its value first and its key last, a delete
clears the key first, and ``_moves`` is a seqlock — odd while a
mutator runs — under which reads take no lock.  Batches are array work: :meth:`CuckooHashMap.get_many` and
:meth:`CuckooHashMap.put_many` (rank rounds, then eviction rounds).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.memory import DIRECTORY_ENTRY_BYTES
from repro.core.types import lexsort_rows
from repro.errors import ConfigurationError, HashMapFullError

__all__ = ["CuckooHashMap"]

#: Slots per bucket (MemC3 uses 4-way buckets).
_BUCKET_WAYS = 4

#: Slots a cuckoo-path search visits before we give up and resize: every
#: path of up to four moves (MemC3 bounds its search the same way).
_MAX_SEARCH = 2048

#: The two hashes' odd multipliers of ``src`` and of ``etype``.
_HASHES = (
    (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F),
    (0xD6E8FEB86659FD93, 0x94D049BB133111EB),
)

#: :meth:`CuckooHashMap.get_many` of fewer keys is the scalar loop: the
#: array probe's fixed cost is paid back from here on a warm table
#: (≈ 64 keys on a cold one; DESIGN.md §9).
PROBE_LOOP_BELOW = 48

#: :meth:`CuckooHashMap.put_many` of fewer keys places them one by one:
#: the vectorised rounds' fixed cost is paid back from here (DESIGN.md §9).
PLACE_LOOP_BELOW = 64

#: Vectorised eviction rounds leave fewer keys than this to the path
#: search (a round costs ≈ 3 searches at 90 %; DESIGN.md §9).
_PATHS_BELOW = 8

#: ``_NTH_FREE[f, r]``: the ``r``-th of the free ways whose bits ``f``
#: sets, −1 past the last.
_NTH_FREE = np.array(
    [([w for w in range(4) if f >> w & 1] + [-1] * 5)[:5] for f in range(16)]
)


def _free_way(rows: np.ndarray, bucket: np.ndarray, rank=0) -> np.ndarray:
    """The way each bucket gives its ``rank``-th (≤ 4) new key, −1 for none: the
    multiply lifts the low bit of each byte of the bucket's 4 empty-flags,
    read as one little-endian ``uint32``, into the 4 bits of its free ways."""
    flags = (rows.take(bucket, axis=0) < 0).view("<u4").ravel()
    free = (flags * np.uint32(0x10204080)) >> np.uint32(28)
    return _NTH_FREE[free, rank]


def _buckets_for(n: int) -> int:
    """The rule's bucket count for ``n`` keys, never decreasing in ``n``:
    ⌈n / (4 · 0.9)⌉, so a table the rule sized is at most 90 % full."""
    return -(-5 * max(n, 1) // 18)


def _bucket(etype: int, src: int, which: int, buckets: int) -> int:
    """Bucket ``which`` (0 or 1) of one key: the high half ``h₃₂`` of
    ``(src·A + etype·B) mod 2⁶⁴``, range-reduced: ``(h₃₂ · buckets) >>
    32``, here ``(h₃₂·2³² · buckets) >> 64`` (the mask keeps it in place)."""
    a, b = _HASHES[which]
    return ((src * a + etype * b) & 0xFFFFFFFF00000000) * buckets >> 64


def _pair(etype: int, src: int, buckets: int) -> Tuple[int, int]:
    """The two buckets of one key."""
    return _bucket(etype, src, 0, buckets), _bucket(etype, src, 1, buckets)


def _bucket_column(etype, src: np.ndarray, which: int, buckets: int):
    """Bucket ``which`` (0 or 1) of every key (``etype`` a column or one
    relation), in ``uint64`` arithmetic: what the scalar :func:`_bucket` gives."""
    a, b = _HASHES[which]
    x = src.view(np.uint64) * np.uint64(a)
    x += np.asarray(etype).astype(np.int64).view(np.uint64) * np.uint64(b)
    x >>= np.uint64(32)
    x *= np.uint64(buckets)
    x >>= np.uint64(32)
    return x.view(np.int64)


class CuckooHashMap:
    """4-way bucketised cuckoo map of ``(etype, src)`` keys whose reads
    take no lock; it starts with ``initial_buckets`` buckets."""

    def __init__(self, initial_buckets: int = 16) -> None:
        if initial_buckets < 1:
            raise ConfigurationError(
                f"initial_buckets must be >= 1, got {initial_buckets}"
            )
        #: The samtrees of negative values: ``~i`` is ``trees[i]``.
        self.trees: Dict[int, Any] = {}
        self._next_tree = 0
        #: Odd while a mutator runs (a seqlock); see :meth:`get`.
        self._moves = 0
        self._size = 0
        self._lock = threading.Lock()
        self._alloc(initial_buckets)
        self._publish()

    def _alloc(self, num_buckets: int) -> None:
        """Fresh empty columns of ``num_buckets`` buckets for the writer;
        readers keep the published table until :meth:`_publish`."""
        if num_buckets >= 1 << 32:  # pragma: no cover - safety net
            raise HashMapFullError("cuckoo hashmap grew past 2^32 buckets")
        self._num_buckets = num_buckets
        slots = num_buckets * _BUCKET_WAYS
        self._src = np.full(slots, -1, dtype=np.int64)
        self._etype = np.zeros(slots, dtype=np.int16)
        self._value = np.zeros(slots, dtype=np.int64)
        self._cols = tuple(map(memoryview, (self._src, self._etype, self._value)))

    def _publish(self) -> None:
        """Hand the writer's table to lock-free readers, one store per
        form: memoryviews beside the bucket and slot counts (scalar
        path), bucket rows (array path)."""
        self._table = (self._num_buckets, self._src.size) + self._cols
        rows = (c.reshape(-1, _BUCKET_WAYS) for c in (self._src, self._etype))
        self._rows = (self._num_buckets, *rows, self._value)

    def _find_slot(self, etype: int, src: int, table) -> int:
        """Index of the slot of ``table`` holding the key, or -1."""
        buckets, _, keys, etypes, _ = table
        for bucket in _pair(etype, src, buckets):
            base = bucket * _BUCKET_WAYS
            for s in range(base, base + _BUCKET_WAYS):
                if keys[s] == src and etypes[s] == etype:
                    return s
        return -1

    def _cuckoo_path(self, etype: int, src: int) -> Optional[List[int]]:
        """Slots ``[s₀, …, f]``: ``s₀`` in a bucket of the key (the first
        bucket's first), each next slot in the other bucket of the
        previous one's resident, ``f`` free — a breadth-first search
        over at most :data:`_MAX_SEARCH` slots that moves nothing."""
        keys, etypes, _ = self._cols
        parent = {}
        queue = deque([-1])  # -1: the new key, whose buckets come first
        while queue and len(parent) < _MAX_SEARCH:
            s = queue.popleft()
            if s < 0:
                buckets = _pair(etype, src, self._num_buckets)
            else:  # the resident's other bucket: its second unless it is there
                other = _bucket(etypes[s], keys[s], 1, self._num_buckets)
                if other == s // _BUCKET_WAYS:
                    other = _bucket(etypes[s], keys[s], 0, self._num_buckets)
                buckets = (other,)
            for bucket in buckets:
                for t in range(bucket * _BUCKET_WAYS, (bucket + 1) * _BUCKET_WAYS):
                    if t in parent:
                        continue
                    parent[t] = s
                    if keys[t] < 0:
                        path = [t]
                        while parent[path[-1]] >= 0:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(t)
        return None

    def _free_slot(self, etype: int, src: int) -> int:
        """The first free slot of the key's buckets in search order, or -1."""
        keys = self._cols[0]
        for bucket in _pair(etype, src, self._num_buckets):
            for t in range(bucket * _BUCKET_WAYS, (bucket + 1) * _BUCKET_WAYS):
                if keys[t] < 0:
                    return t
        return -1

    def _place(self, etype: int, src: int, value: int) -> bool:
        """Put an absent key into the writer's table along a cuckoo path
        (MemC3: the last resident moves to the free slot first, so no
        key is ever in no slot); ``False`` when no path was found."""
        slot = self._free_slot(etype, src)  # a free bucket slot: no search
        path = [slot] if slot >= 0 else self._cuckoo_path(etype, src)
        if path is None:
            return False
        keys, etypes, values = self._cols
        new = (etype, src, value)
        for to, s in zip(path[::-1], path[-2::-1] + [-1]):
            self._write_slot(to, *((etypes[s], keys[s], values[s]) if s >= 0 else new))
        return True

    def _write_slot(self, slot: int, etype: int, src: int, value: int) -> None:
        keys, etypes, values = self._cols
        values[slot] = value  # value first, key last: a reader that
        etypes[slot] = etype  # matches the key reads its value
        keys[slot] = src

    def _fill(self, etype: np.ndarray, src: np.ndarray, value: np.ndarray):
        """Place distinct absent keys in two vectorised rounds — the
        ``r``-th key of a bucket takes its ``r``-th free slot, if any;
        first buckets (ranked in key order or, for > 2 keys a bucket,
        by the room their second buckets will have), then second — then by
        :meth:`_evict` (the rule keeps every table at most 90 % full), and
        the rest (and all of a batch too small to pay for a round) by
        :meth:`_place`.  Returns the keys no path was found for."""
        slots, buckets = self._src.reshape(-1, _BUCKET_WAYS), self._num_buckets
        for which in (0, 1):
            if src.size < PLACE_LOOP_BELOW:
                break
            bucket = _bucket_column(etype, src, which, buckets)
            order = np.arange(src.size)
            if not which and src.size > 2 * buckets:
                # > 2 keys a bucket overflow often: a bucket turns away
                # those whose second bucket will have the most room
                spare = np.maximum(4 - np.bincount(bucket, minlength=buckets), 0)
                spare = spare[_bucket_column(etype, src, 1, buckets)].astype(np.uint8)
                order = np.argsort(spare, kind="stable")
            small = bucket[order].astype(np.min_scalar_type(buckets))  # radix
            order = order[np.argsort(small, kind="stable")]  # rank in its bucket:
            head = np.flatnonzero(np.diff(bucket[order], prepend=-1))
            rank = np.empty_like(order)
            run = np.diff(head, append=order.size)
            rank[order] = np.arange(order.size) - np.repeat(head, run)
            way = _free_way(slots, bucket, np.minimum(rank, 4))
            placed = way >= 0
            at = bucket[placed] * _BUCKET_WAYS + way[placed]
            self._set(at, etype[placed], src[placed], value[placed])
            left = ~placed
            etype, src, value = etype[left], src[left], value[left]
        if src.size >= PLACE_LOOP_BELOW:
            etype, src, value = self._evict(etype, src, value)
        for i, key in enumerate(zip(etype.tolist(), src.tolist(), value.tolist())):
            if not self._place(*key):
                return etype[i:], src[i:], value[i:]
        return None

    def _evict(self, etype: np.ndarray, src: np.ndarray, value: np.ndarray):
        """Eviction rounds until fewer than :data:`_PATHS_BELOW` keys are
        left (returned): the key a scatter into ``owner`` keeps for a
        bucket wins it and takes a free slot or, in a full bucket, the
        slot of a resident (one with room in its other bucket if any),
        who moves there (one per bucket, by a second scatter) or tries
        it next round; a key that lost tries its other bucket."""
        buckets, rows = self._num_buckets, self._src.reshape(-1, _BUCKET_WAYS)
        pair = (_bucket_column(etype, src, w, buckets) for w in (0, 1))
        keys = np.stack([etype, src, value, *pair])  # + bucket to try, other one
        owner, rng = np.empty(buckets, np.int64), np.random.default_rng(src.size)
        for _ in range(64):  # a safety net: ≈ 10 rounds place 10 000 keys at 90 %
            if keys.shape[1] < _PATHS_BELOW:
                break
            here = keys[3]
            key = np.arange(here.size)
            owner[here] = key
            won = owner[here] == key
            way = _free_way(rows, here)
            fits = won & (way >= 0)
            self._set(here[fits] * 4 + way[fits], *keys[:3, fits])
            full = np.flatnonzero(won & ~fits)
            at = here[full, None]
            seat = at * 4 + np.arange(4)
            e, s, v = self._etype[seat], self._src[seat], self._value[seat]
            # each resident's other bucket, and whether it has a free slot
            alt = sum(_bucket_column(e, s, w, buckets) for w in (0, 1)) - at
            room = _free_way(rows, alt.ravel()).reshape(alt.shape) >= 0
            way = np.where(room.any(1), room.argmax(1), rng.integers(0, 4, full.size))
            pick = np.arange(full.size), way  # the resident turned out
            alt, room = alt[pick], room[pick]
            gone = np.stack([e[pick], s[pick], v[pick], alt, at[:, 0]])
            owner[alt] = pick[0]
            moved = room & (owner[alt] == pick[0])
            self._set(alt[moved] * 4 + _free_way(rows, alt[moved]), *gone[:3, moved])
            self._set(seat[pick], *keys[:3, full])
            lost = keys[[0, 1, 2, 4, 3]][:, ~won]  # to try their other bucket
            keys = np.concatenate([lost, gone[:, ~moved]], axis=1)
        return keys[:3]

    def _set(self, slot, etype, src, value) -> None:
        """:meth:`_write_slot` of columns: values first, keys last."""
        self._value[slot], self._etype[slot], self._src[slot] = value, etype, src

    def _rebuild(self, num_buckets: int, extra=None) -> None:
        """Move every key (and the ``extra`` key columns) into a fresh
        table of ``num_buckets`` buckets or, should a path fail there,
        of :meth:`_grown`'s; readers see the old table until it is done."""
        live = self._src >= 0
        keys = (self._etype[live], self._src[live], self._value[live])
        if extra is not None:
            keys = [
                np.concatenate([a, np.asarray(b, a.dtype)]) for a, b in zip(keys, extra)
            ]
        self._alloc(num_buckets)
        while self._fill(*keys) is not None:
            self._alloc(self._grown(keys[1].size))
        self._publish()

    def _grown(self, n: int) -> int:
        """The rule's count for ``n`` keys or, amortised as doubling was,
        for 1.25 × those held — and at least one bucket more."""
        held = self._size + self._size // 4
        return max(_buckets_for(max(n, held)), self._num_buckets + 1)

    def _code(self, value) -> int:
        """The value column's entry for ``value``: a slab row as is, a
        samtree as ``~i`` of a new ``trees`` entry (``i`` never reused)."""
        if type(value) is int:
            return value
        self._next_tree += 1
        self.trees[self._next_tree] = value
        return ~self._next_tree

    def _drop(self, code: int) -> None:
        if code < 0:
            del self.trees[~code]

    def _trees_of(self, codes: np.ndarray) -> List[Any]:
        """The samtrees of ``codes``' negative entries, in order (read in
        the caller's lock or seqlock: ``None`` for one dropped since)."""
        return list(map(self.trees.get, (~codes[codes < 0]).tolist()))

    def _probe(self, etype: int, src: int) -> int:
        """One key's value-column entry, 0 for a miss (no lock, no
        seqlock: the caller's).  A bucket is read by one chain of slot
        compares on ``src``; a match of another relation scans."""
        _, slots, keys, etypes, values = table = self._table
        for a, b in _HASHES:  # 4 · _pair's bucket, as ⌊… · 4·buckets / 2⁶⁴⌋ & ~3
            s = ((src * a + etype * b) & 0xFFFFFFFF00000000) * slots >> 64 & -4
            if (
                keys[s] == src or keys[s := s + 1] == src
                or keys[s := s + 1] == src or keys[s := s + 1] == src
            ):
                if etypes[s] != etype:
                    s = self._find_slot(etype, src, table)
                    return values[s] if s >= 0 else 0
                return values[s]
        return 0

    def get(self, etype: int, src: int, default: Any = None) -> Any:
        """The value of ``(etype, src)`` — a slab row or a samtree — or
        ``default``; lock-free (the store's hottest call)."""
        moves = self._moves
        code = self._probe(etype, src)
        value = default if not code else code if code > 0 else self.trees.get(~code)
        if moves & 1 or moves != self._moves:  # raced a writer: read again
            with self._lock:
                return self.get(etype, src, default)
        return value

    def get_many(self, etype, src: np.ndarray) -> Tuple[np.ndarray, List[Any]]:
        """The value column of keys ``(etype, src)`` (``etype`` a column
        or one relation for all) — a slab row, ``~i`` for a samtree, 0
        for a miss — and, read in the same pass, its samtrees in order; by
        :meth:`_probe_rows`, or the scalar loop below :data:`PROBE_LOOP_BELOW`."""
        src = np.asarray(src, dtype=np.int64)
        etype = np.asarray(etype)
        moves = self._moves
        if src.size < PROBE_LOOP_BELOW:
            etypes = etype.tolist() if etype.ndim else [etype.item()] * src.size
            out = np.fromiter(map(self._probe, etypes, src.tolist()), np.int64)
        else:
            out = self._probe_rows(etype, src)
        trees = self._trees_of(out)
        if moves & 1 or moves != self._moves:  # raced a writer: read again
            with self._lock:
                return self.get_many(etype, src)
        return out, trees

    def _probe_rows(self, etype: np.ndarray, src: np.ndarray) -> np.ndarray:
        """The array probe (no lock, no seqlock): every key's first
        bucket read as one row of each key column, then the second
        bucket of the keys it missed."""
        buckets, keys, etypes, values = self._rows
        out = np.zeros(src.size, dtype=np.int64)
        todo = np.arange(src.size)
        for which in (0, 1):
            e, s = etype if etype.ndim == 0 else etype[todo], src[todo]
            bucket = _bucket_column(e, s, which, buckets)
            hit = keys.take(bucket, axis=0) == s[:, None]
            hit &= etypes.take(bucket, axis=0) == e[..., None]
            found = hit.view(np.uint32).ravel() != 0  # a row's 4 flags, 1 word
            at = bucket[found] * _BUCKET_WAYS + hit[found].argmax(axis=1)
            out[todo[found]] = values.take(at)
            todo = todo[~found]
            if not todo.size:
                break
        return out

    def put(self, etype: int, src: int, value: Any) -> None:
        """Insert or overwrite ``(etype, src)``: ``value`` is a slab row
        (an ``int > 0``) or a samtree; ``src`` is an id (``>= 0``)."""
        if src < 0 or type(value) is int and value <= 0:
            raise ConfigurationError(f"ids are >= 0, rows > 0: got {src}, {value}")
        with self._lock:
            self._moves += 1
            code = self._code(value)
            slot = self._find_slot(etype, src, self._table)
            if slot >= 0:
                self._drop(self._cols[2][slot])
                self._cols[2][slot] = code
            else:  # grow past the rule's count, or for a failed path
                self._size += 1
                grow = _buckets_for(self._size) > self._num_buckets
                if grow or not self._place(etype, src, code):
                    self._rebuild(self._grown(self._size), ([etype], [src], [code]))
            self._moves += 1

    def put_many(self, etype, src: np.ndarray, values) -> None:
        """Insert keys that are distinct and not stored: ``etype`` a
        column or one relation for all, ``values`` an ``int64`` column of
        slab rows or a list of samtrees.  Grows up front to
        :meth:`_grown`'s count when the rule's for all keys exceeds the
        table, then :meth:`_fill`s: rank rounds, then eviction rounds."""
        src = np.asarray(src, dtype=np.int64)
        if src.size and src.min() < 0:
            raise ConfigurationError(f"source ids are >= 0, got {src.min()}")
        etype = np.broadcast_to(np.asarray(etype, dtype=np.int16), src.shape)
        with self._lock:
            self._moves += 1
            if isinstance(values, list):
                values = np.fromiter(map(self._code, values), np.int64, src.size)
            keys = (etype, src, np.asarray(values, dtype=np.int64))
            n = self._size + src.size
            left = keys if _buckets_for(n) > self._num_buckets else self._fill(*keys)
            if left is not None:  # grow: past the rule's count, or a failed path
                self._rebuild(self._grown(n), left)
            self._size += src.size
            self._moves += 1

    def reserve(self, n: int) -> None:
        """Make room for ``n`` keys in all with one rebuild, to
        :meth:`_grown`'s count when the rule's for ``n`` exceeds the table
        (one-by-one :meth:`put` could not stop below it either)."""
        with self._lock:
            if _buckets_for(n) > self._num_buckets:
                self._moves += 1
                self._rebuild(self._grown(n))
                self._moves += 1

    def delete(self, etype: int, src: int) -> bool:
        """Remove ``(etype, src)``; returns whether it was present."""
        with self._lock:
            slot = self._find_slot(etype, src, self._table)
            if slot < 0 or src < 0:  # -1 matches an empty slot: no key
                return False
            self._moves += 1
            keys, _, values = self._cols
            keys[slot] = -1  # the key first: no reader matches it any more
            self._drop(values[slot])
            values[slot] = 0  # empty: a probe of -1 that matches it misses
            self._size -= 1
            self._moves += 1
            return True

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Any]]:
        """``(etype, src, value, trees)`` of every key, ascending by
        ``(etype, src)`` (copies; ``value``, ``trees`` as in :meth:`get_many`)."""
        with self._lock:
            live = np.flatnonzero(self._src >= 0)
            etype, src = self._etype[live], self._src[live]
            order = lexsort_rows(etype, src)
            value = self._value[live[order]]
            return etype[order], src[order], value, self._trees_of(value)

    def items(self) -> Iterator[Tuple[Tuple[int, int], Any]]:
        """``((etype, src), value)`` pairs in :meth:`columns` order."""
        etype, src, value, trees = self.columns()
        trees, keys = iter(trees), zip(etype.tolist(), src.tolist())
        return ((k, v if v > 0 else next(trees)) for k, v in zip(keys, value.tolist()))

    def __len__(self) -> int:
        return self._size

    @property
    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return self._size / (self._num_buckets * _BUCKET_WAYS)

    def nbytes(self) -> int:
        """Modeled bytes: every slot pays a directory entry whether used
        or not (the table is pre-allocated), matching the paper's
        directory accounting."""
        return self._num_buckets * _BUCKET_WAYS * DIRECTORY_ENTRY_BYTES
