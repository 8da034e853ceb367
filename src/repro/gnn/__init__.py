"""GNN operator layer: sampling operators, NumPy message passing, models,
and the mini-batch trainer.
"""

from repro.gnn.embeddings import EmbeddingTable, SkipGramTrainer
from repro.gnn.inference import embed_vertices
from repro.gnn.layers import GATLayer, GCNLayer, SAGEMeanLayer
from repro.gnn.models import GAT, GCN, GraphSAGE, SampledGNN
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
from repro.gnn.walks import random_walks, walk_cooccurrence

__all__ = [
    "EmbeddingTable",
    "SkipGramTrainer",
    "embed_vertices",
    "GATLayer",
    "GCNLayer",
    "SAGEMeanLayer",
    "GAT",
    "GCN",
    "GraphSAGE",
    "SampledGNN",
    "random_walks",
    "walk_cooccurrence",
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
