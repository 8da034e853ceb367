"""Batch-based latch-free concurrency (paper §VI-B): PALM-style batching,
thread partitioning, and the batch executor.
"""

from repro.concurrency.palm import BatchResult, PalmExecutor, partition_groups

__all__ = [
    "partition_groups",
    "BatchResult",
    "PalmExecutor",
]
