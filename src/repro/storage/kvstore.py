"""Block-based key-value store: PlatoGL's storage substrate (paper §I, §IV).

PlatoGL stores a graph as ``<key, value>`` tuples where the key is a
source vertex *plus* "various information ... for uniquely mapping to a
specific block" and the value is a block of neighbors.  The cost the
paper attacks is structural: every key-value pair pays

* the composite key itself (source ID, block sequence, edge type, block
  metadata — :attr:`MemoryModel.kv_key_bytes`), and
* a hash-index entry mapping the key to its value
  (:attr:`MemoryModel.kv_index_entry_bytes`).

This module provides that substrate: a dict-backed store that *accounts*
its footprint under the shared memory model.  The PlatoGL baseline keeps
all of its blocks in one of these so its Table IV numbers emerge from
the same accounting rules as PlatoD2GL's samtrees.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterator, Tuple

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel

__all__ = ["BlockKVStore"]


class BlockKVStore:
    """A key-value store whose pairs pay key + index overhead.

    ``value_nbytes`` — a callable sizing each stored value's payload —
    is supplied by the owner (PlatoGL sizes its neighbor blocks; the
    attribute store sizes feature vectors).
    """

    def __init__(
        self,
        value_nbytes: Callable[[Any], int],
        model: MemoryModel = DEFAULT_MEMORY_MODEL,
    ) -> None:
        self._data: Dict[Hashable, Any] = {}
        self._value_nbytes = value_nbytes
        self._model = model

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
        """Keys + index entries + value payloads under the memory model."""
        model = self._model
        per_pair = model.kv_key_bytes + model.kv_index_entry_bytes
        total = per_pair * len(self._data)
        for value in self._data.values():
            total += self._value_nbytes(value)
        return total


_MISSING = object()
