"""Distributed storage layer: partitioning, graph servers, routing client,
fault injection, retry/backoff, shard replication, and the in-process
cluster harness.
"""

from repro.distributed.client import UNAVAILABLE, GraphClient, ServingStats
from repro.distributed.cluster import LocalCluster, ShardInfo
from repro.distributed.faults import FaultInjector, FaultPolicy, FaultStats
from repro.distributed.partition import (
    HashBySourcePartitioner,
    splitmix64,
)
from repro.distributed.retry import RetryPolicy, RetryStats
from repro.distributed.rpc import NetworkModel, NetworkStats
from repro.distributed.server import GraphServer, ServerStats

__all__ = [
    "GraphClient",
    "ServingStats",
    "UNAVAILABLE",
    "LocalCluster",
    "ShardInfo",
    "FaultInjector",
    "FaultPolicy",
    "FaultStats",
    "HashBySourcePartitioner",
    "splitmix64",
    "RetryPolicy",
    "RetryStats",
    "NetworkModel",
    "NetworkStats",
    "GraphServer",
    "ServerStats",
]
