"""Vectorised ``int64 -> slot`` directory (the key-value index of
:mod:`repro.storage.attributes`).

An open-addressing hash table held in three numpy columns — ``keys``,
``slots`` and ``state`` — so a whole sampled frontier resolves with
array operations: :meth:`IdDirectory.lookup` is one ``take``/compare
round over every id, then one further round per probe step over the
positions still unresolved.  Point operations (:meth:`~IdDirectory.get`,
:meth:`~IdDirectory.pop`, ``in``) walk the same probe sequence in plain
Python.

The capacity is a power of two.  A key's home cell is the top bits of
its Fibonacci hash (the ``uint64`` view of the key times 2^64 / phi),
which spreads sequential ids and ids that differ only in their high
bits alike; collisions probe linearly.  A deleted key leaves a
tombstone so the probe chains running through its cell stay whole;
full cells plus tombstones never exceed half the capacity, and the
rehash that restores that bound — whether it grows the table or not —
drops every tombstone.

Slot values are positive: ``0`` is what a missing key resolves to, which
in the attribute slab is the permanent zero row.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["IdDirectory"]

#: Cells of a fresh directory (a power of two).
_INITIAL_CAPACITY = 64
#: Cells per occupied cell (full or tombstone) the table keeps at least.
_CELLS_PER_ENTRY = 2

#: 2^64 / golden ratio, odd: the Fibonacci hashing multiplier.
_FIB = 0x9E3779B97F4A7C15
_FIB_U64 = np.uint64(_FIB)
_MASK64 = (1 << 64) - 1

_EMPTY, _FULL, _TOMBSTONE = 0, 1, 2


class IdDirectory:
    """``{int64 key: positive slot}`` with array-at-a-time lookup."""

    __slots__ = ("keys", "slots", "state", "_shift", "_live", "_occupied")

    def __init__(self) -> None:
        self._reset(_INITIAL_CAPACITY)

    def _reset(self, capacity: int) -> None:
        self.keys = np.zeros(capacity, dtype=np.int64)
        self.slots = np.zeros(capacity, dtype=np.intp)
        self.state = np.zeros(capacity, dtype=np.int8)
        self._shift = 64 - (capacity.bit_length() - 1)
        self._live = 0        # full cells
        self._occupied = 0    # full cells + tombstones

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # array access
    # ------------------------------------------------------------------
    def _home(self, keys: np.ndarray) -> np.ndarray:
        hashed = keys.view(np.uint64) * _FIB_U64
        return (hashed >> np.uint64(self._shift)).view(np.int64)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Slot of every key of an ``int64`` array, 0 where missing."""
        # The first round runs full width, with no index indirection: at
        # load <= 1/2 it settles most keys, and it is the whole cost of a
        # small frontier.
        pos = self._home(keys)
        state = self.state.take(pos)
        hit = (self.keys.take(pos) == keys) & (state == _FULL)
        # Non-full cells hold slot 0, so a miss needs no second pass.
        out = self.slots.take(pos) * hit
        pending = ((state != _EMPTY) & ~hit).nonzero()[0]
        if not pending.size:
            return out
        mask = len(self.keys) - 1
        pos = pos[pending]
        keys = keys[pending]
        while pending.size:
            pos = (pos + 1) & mask
            state = self.state.take(pos)
            hit = (self.keys.take(pos) == keys) & (state == _FULL)
            out[pending[hit]] = self.slots.take(pos[hit])
            go_on = (state != _EMPTY) & ~hit
            pending = pending[go_on]
            pos = pos[go_on]
            keys = keys[go_on]
        return out

    def insert(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Store ``keys[i] -> slots[i]``; the keys are distinct ``int64``
        and none is stored yet, the slots positive."""
        needed = _CELLS_PER_ENTRY * (self._occupied + len(keys))
        if needed > len(self.keys):
            self._rehash(len(keys))
        mask = len(self.keys) - 1
        pos = self._home(keys)
        while len(keys):
            free = self.state.take(pos) != _FULL
            at = pos[free]
            # Several keys may want one free cell: all write, the cell
            # keeps one, and reading it back names the winner.
            self.keys[at] = keys[free]
            free[free] = self.keys.take(at) == keys[free]
            at = pos[free]
            self._occupied += int((self.state.take(at) == _EMPTY).sum())
            self.slots[at] = slots[free]
            self.state[at] = _FULL
            self._live += len(at)
            lost = ~free
            pos = (pos[lost] + 1) & mask
            keys = keys[lost]
            slots = slots[lost]

    def _rehash(self, incoming: int) -> None:
        """Rebuild, tombstones dropped, with room for ``incoming`` more."""
        keys, slots = self.items()
        capacity = _INITIAL_CAPACITY
        while capacity < _CELLS_PER_ENTRY * (len(keys) + incoming):
            capacity *= 2
        self._reset(capacity)
        self.insert(keys, slots)

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every stored pair as ``(keys, slots)`` columns, in no order."""
        full = np.flatnonzero(self.state == _FULL)
        return self.keys.take(full), self.slots.take(full)

    # ------------------------------------------------------------------
    # point access
    # ------------------------------------------------------------------
    def _find(self, key: int) -> int:
        """Cell holding ``key``, or -1 (a plain Python probe: a handful
        of ``item`` reads beat any array round for one key)."""
        mask = len(self.keys) - 1
        pos = ((key & _MASK64) * _FIB & _MASK64) >> self._shift
        state, keys = self.state, self.keys
        while True:
            cell = state.item(pos)
            if cell == _EMPTY:
                return -1
            if cell == _FULL and keys.item(pos) == key:
                return pos
            pos = (pos + 1) & mask

    def __contains__(self, key: int) -> bool:
        return self._find(key) >= 0

    def get(self, key: int, default: Optional[int] = None) -> Optional[int]:
        """Slot of one key, ``default`` when missing."""
        pos = self._find(key)
        return default if pos < 0 else self.slots.item(pos)

    def pop(self, key: int) -> Optional[int]:
        """Remove one key; its slot, or ``None`` when it was missing."""
        pos = self._find(key)
        if pos < 0:
            return None
        slot = self.slots.item(pos)
        self.state[pos] = _TOMBSTONE
        self.slots[pos] = 0
        self._live -= 1
        return slot
