"""Edge-list I/O: load real graphs into the store.

Downstream users have their own graphs; the exchange format is the
universal tab/space-separated edge list::

    # src  dst  [weight]  [etype]
    17     42   0.75      0
    17     43   1.0

* :func:`read_edge_list` streams parsed edges from a file;
* :func:`load_edge_list` pours a file straight into any store.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, TextIO, Tuple, Union

from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError

__all__ = ["read_edge_list", "load_edge_list"]

_PathOrFile = Union[str, Path, TextIO]

#: Rows per columnar chunk :func:`load_edge_list` flushes.
CHUNK_SIZE = 262_144


def _open_read(source: _PathOrFile):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def read_edge_list(
    source: _PathOrFile,
    default_weight: float = 1.0,
    default_etype: int = DEFAULT_ETYPE,
) -> Iterator[Tuple[int, int, float, int]]:
    """Yield ``(src, dst, weight, etype)`` from an edge-list file.

    Lines starting with ``#`` (or blank) are skipped; fields split on
    any whitespace; the third and fourth columns are optional.
    Malformed lines raise :class:`ConfigurationError` with the line
    number — silent data loss is worse than a hard stop.
    """
    handle, own = _open_read(source)
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) < 2 or len(fields) > 4:
                raise ConfigurationError(
                    f"line {lineno}: expected 2-4 fields, got {len(fields)}"
                )
            try:
                src = int(fields[0])
                dst = int(fields[1])
                weight = float(fields[2]) if len(fields) > 2 else default_weight
                etype = int(fields[3]) if len(fields) > 3 else default_etype
            except ValueError as exc:
                raise ConfigurationError(
                    f"line {lineno}: {exc}"
                ) from None
            yield src, dst, weight, etype
    finally:
        if own:
            handle.close()


def load_edge_list(
    store: GraphStoreAPI,
    source: _PathOrFile,
    default_weight: float = 1.0,
    bidirected: bool = False,
    reverse_etype_offset: int = 8,
) -> int:
    """Insert every edge of a file into ``store``; returns ops applied.

    ``bidirected=True`` also inserts each edge reversed under
    ``etype + reverse_etype_offset``, matching the preset datasets'
    storage convention.

    Parsed rows accumulate into columnar chunks of :data:`CHUNK_SIZE`
    and flush through :meth:`store.bulk_load
    <repro.core.types.GraphStoreAPI.bulk_load>` — the samtree store
    builds each touched tree bottom-up in O(n).  Upserts resolve
    last-wins, as an ``add_edge`` loop would; a malformed line stops the
    load with the chunk it falls in unapplied.
    """
    from repro.core.ingest import EdgeBatch

    ops = 0
    srcs: list = []
    dsts: list = []
    weights: list = []
    etypes: list = []

    def _flush() -> None:
        nonlocal ops
        if not srcs:
            return
        store.bulk_load(EdgeBatch.inserts(srcs, dsts, weights, etypes))
        ops += len(srcs)
        srcs.clear(); dsts.clear(); weights.clear(); etypes.clear()

    for src, dst, weight, etype in read_edge_list(source, default_weight):
        srcs.append(src); dsts.append(dst)
        weights.append(weight); etypes.append(etype)
        if bidirected:
            srcs.append(dst); dsts.append(src)
            weights.append(weight)
            etypes.append(etype + reverse_etype_offset)
        if len(srcs) >= CHUNK_SIZE:
            _flush()
    _flush()
    return ops
