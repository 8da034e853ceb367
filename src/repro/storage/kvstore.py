"""Block-based key-value store: PlatoGL's storage substrate (paper §I, §IV).

PlatoGL stores a graph as ``<key, value>`` tuples where the key is a
source vertex *plus* "various information ... for uniquely mapping to a
specific block" and the value is a block of neighbors.  The cost the
paper attacks is structural: every key-value pair pays

* the composite key itself (source ID, block sequence, edge type, block
  metadata — :data:`~repro.core.memory.KV_KEY_BYTES`), and
* a hash-index entry mapping the key to its value
  (:data:`~repro.core.memory.KV_INDEX_ENTRY_BYTES`).

This module provides that substrate: a dict-backed store that *accounts*
its footprint under the shared byte layout.  The PlatoGL baseline keeps
all of its blocks in one of these so its Table IV numbers emerge from
the same accounting rules as PlatoD2GL's samtrees.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterator, Tuple

from repro.core.memory import KV_INDEX_ENTRY_BYTES, KV_KEY_BYTES

__all__ = ["BlockKVStore"]


class BlockKVStore:
    """A key-value store whose pairs pay key + index overhead.

    ``value_nbytes`` — a callable sizing each stored value's payload —
    is supplied by the owner, the PlatoGL baseline, which sizes its
    neighbor blocks.
    """

    def __init__(self, value_nbytes: Callable[[Any], int]) -> None:
        self._data: Dict[Hashable, Any] = {}
        self._value_nbytes = value_nbytes

    # ------------------------------------------------------------------
    # mapping interface
    # ------------------------------------------------------------------
    def put(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite a pair."""
        self._data[key] = value

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Fetch a value or ``default``."""
        return self._data.get(key, default)

    def delete(self, key: Hashable) -> bool:
        """Remove a pair; returns whether it existed."""
        return self._data.pop(key, _MISSING) is not _MISSING

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate over pairs."""
        return iter(self._data.items())

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Keys + index entries + value payloads under the byte layout."""
        total = (KV_KEY_BYTES + KV_INDEX_ENTRY_BYTES) * len(self._data)
        for value in self._data.values():
            total += self._value_nbytes(value)
        return total


_MISSING = object()
