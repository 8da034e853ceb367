"""GNN operator layer: sampling operators, NumPy message passing, the
GraphSAGE model, and the mini-batch trainer.
"""

from repro.gnn.inference import embed_vertices
from repro.gnn.layers import SAGEMeanLayer
from repro.gnn.models import GraphSAGE
from repro.gnn.ops import (
    accuracy,
    l2_normalize,
    log_softmax,
    mean_aggregate,
    relu,
    softmax_cross_entropy,
    xavier_init,
)
from repro.gnn.samplers import (
    MiniBatchBlocks,
    sample_blocks,
    sample_metapath,
    sample_neighbor_matrix,
    sample_seed_nodes,
    sample_subgraph,
)
from repro.gnn.training import Adam, Trainer, TrainResult

__all__ = [
    "embed_vertices",
    "SAGEMeanLayer",
    "GraphSAGE",
    "accuracy",
    "l2_normalize",
    "log_softmax",
    "mean_aggregate",
    "relu",
    "softmax_cross_entropy",
    "xavier_init",
    "MiniBatchBlocks",
    "sample_blocks",
    "sample_metapath",
    "sample_neighbor_matrix",
    "sample_seed_nodes",
    "sample_subgraph",
    "Adam",
    "Trainer",
    "TrainResult",
]
