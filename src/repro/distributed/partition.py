"""Graph partitioning for the distributed storage layer (paper §I, §VIII).

The deployments the paper discusses spread a billion-edge graph over a
cluster of *graph servers*.  PlatoD2GL (like PlatoGL and AliGraph's
default) uses **hash-by-source**: every out-adjacency lives wholly on
``hash(src) % num_shards``, so a dynamic edge update touches exactly one
server and a neighbor-sampling request for one vertex is answered by one
server — the property that makes dynamic graphs tractable (static
partitioners such as METIS [19] would need a full re-partition per
update, which is the paper's criticism of the static systems).

A deterministic mixing hash (splitmix64) is used instead of Python's
``hash`` so shard placement is reproducible across runs and processes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import PartitionError

__all__ = [
    "Partitioner",
    "HashBySourcePartitioner",
    "splitmix64",
    "splitmix64_array",
]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finaliser: a fast, well-mixed 64-bit integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64_array(xs) -> np.ndarray:
    """Vectorized :func:`splitmix64` (bit-exact, one pass over uint64).

    The columnar ingest path and the sample plane hash a whole ``src``
    column at once; ``uint64`` array arithmetic wraps modulo
    :math:`2^{64}` silently, matching the scalar masking.  Every step
    after the copy is in place — on a four-row serving frontier the
    fixed cost per NumPy call is the whole price.
    """
    x = np.asarray(xs).astype(np.uint64)
    x += _GOLDEN
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


class Partitioner(abc.ABC):
    """Maps a source vertex to the shard that owns its out-adjacency."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise PartitionError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    @abc.abstractmethod
    def shard_for(self, src: int) -> int:
        """Shard index in ``[0, num_shards)`` owning ``src``."""

    def shards_for_array(self, srcs) -> np.ndarray:
        """Array form of :meth:`shard_for` (loop fallback; hash-based
        partitioners vectorize it)."""
        return np.asarray(
            [self.shard_for(int(s)) for s in np.asarray(srcs).ravel()],
            dtype=np.int64,
        )


class HashBySourcePartitioner(Partitioner):
    """Hash-by-source placement (the dynamic-graph-friendly default)."""

    def shard_for(self, src: int) -> int:
        return splitmix64(int(src)) % self.num_shards

    def shards_for_array(self, srcs) -> np.ndarray:
        """One vectorized hash pass over the whole ``src`` column —
        agrees element-wise with :meth:`shard_for`."""
        hashed = splitmix64_array(srcs)
        return (hashed % np.uint64(self.num_shards)).astype(np.int64)
