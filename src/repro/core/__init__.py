"""Core of the PlatoD2GL reproduction: samtree, FSTable, CSTable, α-Split,
CP-IDs compression, the dynamic topology store, and the byte layout.
"""

from repro.core.alpha_split import alpha_split, hoare_partition, split_arrays
from repro.core.compression import (
    CompressedIDList,
    PlainIDList,
    make_id_list,
)
from repro.core.cstable import CSTable
from repro.core.fenwick import FSTable
from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    IngestStats,
    fold_run,
)
from repro.core.memory import humanize_bytes
from repro.core.samtree import OpStats, Samtree, SamtreeConfig
from repro.core.snapshot import (
    ReadImage,
    SnapshotCacheStats,
    coerce_generator,
    coerce_scalar_rng,
)
from repro.core.topology import DynamicGraphStore
from repro.core.types import (
    DEFAULT_ETYPE,
    GraphStoreAPI,
    SampleBlock,
)

__all__ = [
    "alpha_split",
    "hoare_partition",
    "split_arrays",
    "CompressedIDList",
    "PlainIDList",
    "make_id_list",
    "CSTable",
    "FSTable",
    "EdgeBatch",
    "IngestStats",
    "fold_run",
    "OP_INSERT",
    "OP_UPDATE",
    "OP_DELETE",
    "humanize_bytes",
    "OpStats",
    "Samtree",
    "SamtreeConfig",
    "ReadImage",
    "SnapshotCacheStats",
    "coerce_generator",
    "coerce_scalar_rng",
    "DynamicGraphStore",
    "DEFAULT_ETYPE",
    "GraphStoreAPI",
    "SampleBlock",
]
