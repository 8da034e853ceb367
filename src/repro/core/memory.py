"""Analytic memory model (substitution for C-level ``sizeof`` accounting).

The paper's memory numbers (Table IV) are structural: bytes per edge of a
samtree versus PlatoGL's key-value blocks versus AliGraph's duplicated
topology.  A pure-Python reimplementation cannot measure those layouts —
``sys.getsizeof`` would report CPython object headers, not the C structs
the paper deploys — so every store in this package *accounts* its bytes
under one shared layout model:

* vertex IDs are 8 bytes (64-bit, as the CP-IDs compressor assumes);
* edge weights / prefix sums are 4-byte floats;
* pointers are 8 bytes;
* hash-table directories pay per-slot overhead at their real load factor;
* PlatoGL keys carry the extra block metadata the paper describes (the
  source ID *plus* "various information ... for uniquely mapping to a
  specific block") and each key-value pair pays a hash-index entry.

The constants live in a :class:`MemoryModel` so tests and benchmarks can
vary them; defaults are chosen from the published layouts and calibrated
against the ratios in Table IV (PlatoD2GL ≈ 20–34 % of PlatoGL).

Model assumptions (what the accounting does and does not cover)
---------------------------------------------------------------

* **Structural bytes only.**  The model counts the bytes the paper's C
  layout would allocate — node headers, ID lists, Fenwick/CSTable
  arrays, directory slots — *not* CPython object overhead, allocator
  slack, or interpreter state.  Two stores holding the same adjacency
  under the same layout report the same bytes regardless of Python
  version.
* **Pre-allocated tables pay for empty slots.**  The cuckoo directory
  charges every allocated slot (:meth:`CuckooHashMap.nbytes
  <repro.storage.cuckoo.CuckooHashMap.nbytes>`), matching a deployment
  where the table is sized ahead of the keys.
* **Snapshot-cache entries are part of the store's footprint.**  The
  read path (:mod:`repro.core.snapshot`) keeps flat per-tree images —
  one ``id_bytes`` ID plus one ``weight_bytes`` cumulative-weight entry
  per cached edge.  ``DynamicGraphStore.nbytes`` includes them (they
  are resident memory the read path pays for); each entry is accounted
  under the **cache's own** model at build time, so passing a different
  model to ``nbytes`` rescales the tree/directory components but not
  already-cached entries.
* **No feature bytes.**  Vertex attributes are accounted separately by
  :class:`~repro.storage.attributes.AttributeStore`; topology/attribute
  totals are only combined at the server level
  (``GraphServer.nbytes``).
* **Per-tree breakdowns are exact partitions.**  ``Samtree.nbytes`` and
  ``DynamicGraphStore.nbytes`` are defined as the sum of their
  ``nbytes_breakdown`` components, so the samtree doctor's
  Σ(components) == ``nbytes()`` invariant holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryModel", "DEFAULT_MEMORY_MODEL", "humanize_bytes"]


@dataclass(frozen=True)
class MemoryModel:
    """Byte-size constants shared by every store's accounting."""

    #: Width of a vertex ID.
    id_bytes: int = 8
    #: Width of an edge weight / prefix-sum entry.
    weight_bytes: int = 4
    #: Width of a pointer (child links, value pointers).
    pointer_bytes: int = 8
    #: Per-node fixed header of a samtree node (size, capacity, flags).
    tree_node_header_bytes: int = 16
    #: Per-vertex record in the cuckoo directory: key + degree + tree ptr.
    directory_entry_bytes: int = 8 + 8 + 8
    #: PlatoGL composite key: source ID + block sequence + edge type +
    #: block metadata ("various information except the unique identifier").
    kv_key_bytes: int = 8 + 8 + 4 + 12
    #: Per key-value pair index overhead in a general KV store
    #: (hash bucket entry, key pointer, value pointer, allocator header).
    kv_index_entry_bytes: int = 48
    #: Fixed header of a PlatoGL neighbor block (count, capacity, sums).
    kv_block_header_bytes: int = 24
    #: AliGraph stores in- and out-topology ("duplicate the graph
    #: topology for supporting fast sampling").
    aligraph_duplication_factor: int = 2
    #: Alias-method sampling table: one float prob + one int alias per edge.
    alias_entry_bytes: int = 4 + 8
    #: Per-vertex runtime overhead in AliGraph: in/out index pointers,
    #: several hash-index entries (vertex lookup, type routing, partition
    #: map), and the per-vertex sampler header.  Dominates at low density.
    aligraph_vertex_header_bytes: int = 256
    #: AliGraph's loading pipeline (GraphFlat-style) materialises raw edge
    #: lists alongside the CSR + alias structures it builds, so its build
    #: peak exceeds the steady-state footprint — the mechanism behind the
    #: paper's "o.o.m" entries at WeChat scale.
    aligraph_build_peak_factor: float = 2.5


#: The model every store uses unless told otherwise.
DEFAULT_MEMORY_MODEL = MemoryModel()

_UNITS = ["B", "KB", "MB", "GB", "TB", "PB"]


def humanize_bytes(num_bytes: float) -> str:
    """Render a byte count the way the paper's tables do (e.g. ``0.81GB``)."""
    size = float(num_bytes)
    for unit in _UNITS:
        if size < 1024.0 or unit == _UNITS[-1]:
            if unit == "B":
                return f"{int(size)}B"
            return f"{size:.2f}{unit}"
        size /= 1024.0
    raise AssertionError("unreachable")
