"""PlatoD2GL reproduction: an efficient dynamic deep graph learning system
for GNN training on billion-scale graphs (ICDE 2024).

The package re-implements, in pure Python, every system the paper
describes:

* :mod:`repro.core` — the samtree topology store, FSTable/FTS sampling,
  CSTable/ITS, α-Split, CP-IDs compression, and the memory model;
* :mod:`repro.storage` — the cuckoo directory, block KV store, and the
  attribute (feature) store;
* :mod:`repro.baselines` — faithful PlatoGL and AliGraph reimplementations;
* :mod:`repro.concurrency` — the PALM-style batch latch-free executor;
* :mod:`repro.distributed` — hash-by-source partitioning, graph servers,
  and the routing client;
* :mod:`repro.gnn` — NumPy message passing, GraphSAGE/GCN models, and the
  node / neighbor / subgraph samplers of the operator layer;
* :mod:`repro.datasets` — synthetic OGBN / Reddit / WeChat-scaled graphs
  and dynamic edge streams;
* :mod:`repro.bench` — the harness that regenerates every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import DynamicGraphStore, SamtreeConfig

    store = DynamicGraphStore(SamtreeConfig(capacity=256))
    store.add_edge(1, 2, weight=0.1)
    store.add_edge(1, 3, weight=0.4)
    samples = store.sample_neighbors(1, k=50)
"""

from repro.core import (
    CSTable,
    DynamicGraphStore,
    EdgeOp,
    FSTable,
    GraphStoreAPI,
    MemoryModel,
    OpKind,
    OpStats,
    Samtree,
    SamtreeConfig,
    ReadImage,
    humanize_bytes,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "CSTable",
    "DynamicGraphStore",
    "EdgeOp",
    "FSTable",
    "GraphStoreAPI",
    "MemoryModel",
    "OpKind",
    "OpStats",
    "Samtree",
    "SamtreeConfig",
    "ReadImage",
    "humanize_bytes",
    "ReproError",
    "__version__",
]
