"""Datasets: scaled instances of the paper's Table III graphs, the
power-law generator, dynamic edge streams, and statistics helpers.
"""

from repro.datasets.io import load_edge_list, read_edge_list
from repro.datasets.presets import (
    DATASET_SPECS,
    GraphData,
    RelationData,
    RelationSpec,
    load_dataset,
    ogbn_scaled,
    reddit_scaled,
    wechat_scaled,
)
from repro.datasets.statistics import format_table3, published_table3_rows
from repro.datasets.stream import EdgeStream, RequestStream
from repro.datasets.synthetic import (
    TYPE_ID_STRIDE,
    power_law_edges,
    type_offset,
    zipf_probabilities,
)

__all__ = [
    "load_edge_list",
    "read_edge_list",
    "DATASET_SPECS",
    "GraphData",
    "RelationData",
    "RelationSpec",
    "load_dataset",
    "ogbn_scaled",
    "reddit_scaled",
    "wechat_scaled",
    "format_table3",
    "published_table3_rows",
    "EdgeStream",
    "RequestStream",
    "TYPE_ID_STRIDE",
    "power_law_edges",
    "type_offset",
    "zipf_probabilities",
]
