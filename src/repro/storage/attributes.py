"""Attribute (feature) storage (paper §III: "As for the attribute
storage, the key-value store is used").

GNN training needs, besides topology, a feature vector per vertex (and
optionally labels).  PlatoD2GL keeps these in a plain key-value store —
attributes are point-updated, never range-sampled, so the KV indexing
overhead the samtree avoids for topology is the right tool here.

The store is schema'd: each named field has a fixed dimensionality and
dtype, so batch gathers return dense ``numpy`` matrices ready for the
operator layer.  The values of a field live in one contiguous
``(capacity, dim)`` slab; the key-value index — one
:class:`~repro.storage.directory.IdDirectory` per field — maps a vertex
id to its row (*slot*) in the slab, so a batch gather is one vectorised
id -> slot lookup and a single ``ndarray.take``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.errors import ConfigurationError, ShapeError, VertexNotFoundError
from repro.storage.directory import IdDirectory

__all__ = ["AttributeSchema", "AttributeStore"]


@dataclass(frozen=True)
class AttributeSchema:
    """A named, fixed-width vertex attribute field."""

    name: str
    dim: int
    dtype: np.dtype = np.dtype(np.float32)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(
                f"attribute dim must be >= 1, got {self.dim}"
            )


#: Rows a fresh slab holds (slot 0 included) before its first doubling.
_INITIAL_CAPACITY = 64


def _as_ids(vertices: Iterable[int]) -> np.ndarray:
    """An ``int64`` id array from an array or any iterable of ids."""
    if isinstance(vertices, np.ndarray):
        return np.asarray(vertices, dtype=np.int64)
    return np.fromiter(vertices, dtype=np.int64)


class _Slab:
    """The rows of one field.

    ``rows[index.get(v)]`` is the value of vertex ``v``.  Slot 0 is a
    permanent zero row that no vertex owns: a missing id maps to it, so
    a gather needs no per-row branch.  Slots ``1 .. top - 1`` have been
    handed out; a deleted vertex's slot goes on ``free`` and is reused
    before ``top`` advances.  A slot is always written in full when it
    is (re)assigned, so a reused slot never shows its previous row.
    """

    __slots__ = ("schema", "rows", "index", "free", "top")

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self.rows = np.zeros(
            (_INITIAL_CAPACITY, schema.dim), dtype=schema.dtype
        )
        self.index = IdDirectory()
        self.free: List[int] = []
        self.top = 1

    def allocate(self, vertices: np.ndarray) -> np.ndarray:
        """Give each of ``vertices`` (distinct ``int64``, none stored
        yet) a slot; returns the slots."""
        reused = min(len(self.free), len(vertices))
        fresh = len(vertices) - reused
        if self.top + fresh > len(self.rows):
            capacity = max(2 * len(self.rows), self.top + fresh)
            grown = np.zeros(
                (capacity, self.schema.dim), dtype=self.schema.dtype
            )
            grown[: self.top] = self.rows[: self.top]
            self.rows = grown
        slots = np.empty(len(vertices), dtype=np.intp)
        if reused:
            slots[:reused] = self.free[-reused:]
            del self.free[-reused:]
        slots[reused:] = np.arange(self.top, self.top + fresh)
        self.top += fresh
        self.index.insert(vertices, slots)
        return slots


class AttributeStore:
    """Per-vertex feature vectors behind a key-value interface.

    Examples
    --------
    >>> store = AttributeStore()
    >>> store.register("feat", dim=4)
    >>> store.put("feat", 7, [1.0, 2.0, 3.0, 4.0])
    >>> store.gather("feat", [7, 8]).shape
    (2, 4)
    """

    def __init__(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> None:
        self._slabs: Dict[str, _Slab] = {}
        self._model = model

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def register(
        self, name: str, dim: int, dtype: np.dtype = np.dtype(np.float32)
    ) -> None:
        """Declare a field; idempotent if the declaration is identical."""
        schema = AttributeSchema(name, dim, np.dtype(dtype))
        existing = self._slabs.get(name)
        if existing is not None:
            if existing.schema != schema:
                raise ConfigurationError(
                    f"attribute {name!r} already registered with a "
                    f"different schema ({existing.schema} vs {schema})"
                )
            return
        self._slabs[name] = _Slab(schema)

    def schema(self, name: str) -> AttributeSchema:
        """Return the schema of a field."""
        return self._slab(name).schema

    def fields(self) -> Iterator[str]:
        """Iterate over registered field names."""
        return iter(self._slabs)

    def _slab(self, name: str) -> _Slab:
        try:
            return self._slabs[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown attribute field {name!r}"
            ) from None

    # ------------------------------------------------------------------
    # point access
    # ------------------------------------------------------------------
    def put(self, name: str, vertex: int, value: Sequence[float]) -> None:
        """Set the feature vector of one vertex."""
        slab = self._slab(name)
        schema = slab.schema
        arr = np.asarray(value, dtype=schema.dtype)
        if arr.shape != (schema.dim,):
            raise ShapeError(
                f"attribute {name!r} expects shape ({schema.dim},), "
                f"got {arr.shape}"
            )
        vertex = int(vertex)
        slot = slab.index.get(vertex)
        if slot is None:
            slot = slab.allocate(np.array([vertex], dtype=np.int64))[0]
        slab.rows[slot] = arr

    def put_many(
        self, name: str, vertices: Sequence[int], values: np.ndarray
    ) -> None:
        """Set feature vectors for many vertices from a dense matrix.

        An id listed more than once keeps its last row.
        """
        slab = self._slab(name)
        schema = slab.schema
        matrix = np.asarray(values, dtype=schema.dtype)
        if matrix.shape != (len(vertices), schema.dim):
            raise ShapeError(
                f"attribute {name!r} expects shape "
                f"({len(vertices)}, {schema.dim}), got {matrix.shape}"
            )
        ids = np.asarray(vertices, dtype=np.int64)
        # numpy leaves the winner of a repeated index in a fancy
        # assignment unspecified, so repeats are dropped here, last kept
        # (the first occurrence in the reversed column).
        distinct, first = np.unique(ids[::-1], return_index=True)
        if len(distinct) < len(ids):
            ids = distinct
            matrix = matrix[len(matrix) - 1 - first]
        slots = slab.index.lookup(ids)
        new = slots == 0
        if new.any():
            slots[new] = slab.allocate(ids[new])
        slab.rows[slots] = matrix

    def get(self, name: str, vertex: int) -> np.ndarray:
        """Feature vector of one vertex (a copy); raises if missing."""
        slab = self._slab(name)
        slot = slab.index.get(int(vertex))
        if slot is None:
            raise VertexNotFoundError(
                f"vertex {vertex} has no {name!r} attribute"
            )
        return slab.rows[slot].copy()

    def delete(self, name: str, vertex: int) -> bool:
        """Drop one vertex's value; returns whether it existed."""
        slab = self._slab(name)
        slot = slab.index.pop(int(vertex))
        if slot is None:
            return False
        slab.free.append(slot)
        return True

    # ------------------------------------------------------------------
    # batch access (the GNN gather path)
    # ------------------------------------------------------------------
    def gather(self, name: str, vertices: Iterable[int]) -> np.ndarray:
        """Dense ``(len(vertices), dim)`` matrix; missing rows are zero.

        ``vertices`` may be an integer array (a sampled frontier goes in
        as it is) or any iterable of ids.  The ids become one ``int64``
        array, the field's directory resolves them all to slots with
        array operations (a missing id to slot 0, the zero row), and one
        ``take`` copies the rows out.
        """
        slab = self._slab(name)
        return slab.rows.take(slab.index.lookup(_as_ids(vertices)), axis=0)

    def gather_levels(
        self, name: str, levels: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """:meth:`gather` for every level of a sampled block at once.

        The levels go through one directory lookup and one ``take`` as a
        single frontier; the result is one ``(len(level), dim)`` view
        per level of that matrix.
        """
        matrix = self.gather(name, np.concatenate(levels))
        views, start = [], 0
        for level in levels:
            views.append(matrix[start : start + len(level)])
            start += len(level)
        return views

    def export(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Every stored row of a field: ``(ids, matrix)`` with ``ids``
        ascending ``int64`` and ``matrix[i]`` the value of ``ids[i]``."""
        slab = self._slab(name)
        ids, slots = slab.index.items()
        order = np.argsort(ids)
        return ids[order], slab.rows.take(slots[order], axis=0)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Keys + index entries + payload bytes under the memory model.

        This is the paper's accounting of a C key-value layout (Table
        IV), a function of the stored pairs only; the slab's spare
        capacity and the directory's are not part of it.
        """
        model = self._model
        per_pair = model.id_bytes + model.kv_index_entry_bytes
        total = 0
        for slab in self._slabs.values():
            schema = slab.schema
            total += len(slab.index) * (
                per_pair + schema.dtype.itemsize * schema.dim
            )
        return total
