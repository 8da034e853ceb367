"""PlatoGL baseline: block-based key-value topology store (CIKM 2022 [24]).

PlatoGL — the state of the art PlatoD2GL improves on — stores each source
vertex's neighbors in fixed-capacity *blocks* inside a key-value store,
with a per-source **CSTable** over *all* out-neighbors for ITS sampling:

* key  = source vertex ⊕ block metadata (sequence number, type, …) —
  every pair also pays a hash-index entry, which is the memory overhead
  the paper's Table IV quantifies;
* value = a pre-allocated neighbor block holding up to ``block_size``
  IDs (position ``g`` of the source's neighbor sequence lives at slot
  ``g % block_size`` of block ``g // block_size``);
* the per-source head record keeps the degree and the CSTable of strict
  prefix sums over the whole adjacency — the paper's §II-B: "it needs to
  update [the] cumulative sum table (CSTable) for each source vertex …
  the CSTable of s should be re-computed from scratch … taking O(n_L)
  time cost where n_L is the number of elements (i.e., out-neighbors)".

Dynamic behaviour therefore matches the ITS column of Table II exactly:

* a brand-new neighbor appends — ``O(1)``;
* an in-place weight update rewrites every later prefix sum —
  ``O(n_s)``;
* a deletion shifts the neighbor sequence across blocks and rewrites the
  CSTable — ``O(n_s)``;
* a weighted draw is one binary search — ``O(log n_s)``.

Duplicate detection scans the source's blocks (the key encodes block
placement, not membership).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.core.cstable import CSTable
from repro.core.memory import ID_BYTES, KV_BLOCK_HEADER_BYTES
from repro.core.snapshot import RNGLike, coerce_scalar_rng
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError, EmptyStructureError
from repro.storage.kvstore import BlockKVStore

__all__ = ["PlatoGLStore", "NeighborBlock"]


class NeighborBlock:
    """One neighbor block: a pre-allocated ID array.

    Blocks are fixed-capacity: the KV value is allocated at full block
    width when the block is created (that is what makes block updates
    in-place in a KV store), so a partially filled block pays for its
    whole capacity — the second ingredient, besides key/index overhead,
    of PlatoGL's Table IV footprint.
    """

    __slots__ = ("ids", "capacity")

    def __init__(self, capacity: int) -> None:
        self.ids: List[int] = []
        self.capacity = capacity

    @property
    def size(self) -> int:
        return len(self.ids)

    def nbytes(self) -> int:
        """Block header + ``capacity`` pre-allocated ID slots."""
        return KV_BLOCK_HEADER_BYTES + self.capacity * ID_BYTES


class _HeadRecord:
    """Per-source head: degree + the source-wide CSTable."""

    __slots__ = ("degree", "num_blocks", "cstable")

    def __init__(self) -> None:
        self.degree = 0
        self.num_blocks = 0
        self.cstable = CSTable()

    def nbytes(self) -> int:
        return KV_BLOCK_HEADER_BYTES + self.cstable.nbytes()


class PlatoGLStore(GraphStoreAPI):
    """The block-based key-value dynamic store of PlatoGL.

    Parameters
    ----------
    block_size:
        Neighbors per block (PlatoGL's pre-allocated block capacity).
        The paper's comparison runs the baselines at their best
        parameters; 128 balances pre-allocation waste on low-density
        graphs against per-block key/index overhead on dense ones.
    """

    #: KV key layouts: head records and neighbor blocks.
    _HEAD = "head"
    _BLOCK = "block"

    def __init__(self, block_size: int = 128) -> None:
        if block_size < 1:
            raise ConfigurationError(
                f"block_size must be >= 1, got {block_size}"
            )
        self.block_size = block_size
        self._kv = BlockKVStore(lambda value: value.nbytes())
        self._num_edges = 0
        self._num_sources = 0

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------
    def _head(self, src: int, etype: int) -> Optional[_HeadRecord]:
        return self._kv.get((self._HEAD, etype, src))

    def _head_or_create(self, src: int, etype: int) -> _HeadRecord:
        key = (self._HEAD, etype, src)
        head = self._kv.get(key)
        if head is None:
            head = _HeadRecord()
            self._kv.put(key, head)
            self._num_sources += 1
        return head

    def _block(self, src: int, etype: int, seq: int) -> NeighborBlock:
        return self._kv.get((self._BLOCK, etype, src, seq))

    def _locate(
        self, src: int, etype: int, dst: int, num_blocks: int
    ) -> Optional[int]:
        """Scan the source's blocks for ``dst``; returns its global slot."""
        for seq in range(num_blocks):
            block = self._block(src, etype, seq)
            try:
                return seq * self.block_size + block.ids.index(dst)
            except ValueError:
                continue
        return None

    def _id_at(self, src: int, etype: int, slot: int) -> int:
        block = self._block(src, etype, slot // self.block_size)
        return block.ids[slot % self.block_size]

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        head = self._head_or_create(src, etype)
        slot = self._locate(src, etype, dst, head.num_blocks)
        if slot is not None:
            head.cstable.update(slot, weight)  # O(n_s): Table II in-place
            return False
        # Append to the last block, opening a new one when full.
        if head.degree == head.num_blocks * self.block_size:
            self._kv.put(
                (self._BLOCK, etype, src, head.num_blocks),
                NeighborBlock(self.block_size),
            )
            head.num_blocks += 1
        block = self._block(src, etype, head.num_blocks - 1)
        block.ids.append(dst)
        head.cstable.append(weight)  # O(1): Table II "new insertion"
        head.degree += 1
        self._num_edges += 1
        return True

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        head = self._head(src, etype)
        if head is None:
            return False
        slot = self._locate(src, etype, dst, head.num_blocks)
        if slot is None:
            return False
        head.cstable.update(slot, weight)
        return True

    def remove_edge(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> bool:
        head = self._head(src, etype)
        if head is None:
            return False
        slot = self._locate(src, etype, dst, head.num_blocks)
        if slot is None:
            return False
        # Shift the neighbor sequence back by one across blocks (blocks
        # keep positional order) and rewrite the CSTable: O(n_s).
        bs = self.block_size
        seq = slot // bs
        block = self._block(src, etype, seq)
        del block.ids[slot % bs]
        for later in range(seq + 1, head.num_blocks):
            nxt = self._block(src, etype, later)
            if nxt.ids:
                block.ids.append(nxt.ids.pop(0))
            block = nxt
        head.cstable.delete(slot)
        head.degree -= 1
        self._num_edges -= 1
        if head.num_blocks and not self._block(
            src, etype, head.num_blocks - 1
        ).ids:
            self._kv.delete((self._BLOCK, etype, src, head.num_blocks - 1))
            head.num_blocks -= 1
        if head.degree == 0:
            self._kv.delete((self._HEAD, etype, src))
            self._num_sources -= 1
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def degree(self, src: int, etype: int = DEFAULT_ETYPE) -> int:
        head = self._head(src, etype)
        return head.degree if head is not None else 0

    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> Optional[float]:
        head = self._head(src, etype)
        if head is None:
            return None
        slot = self._locate(src, etype, dst, head.num_blocks)
        if slot is None:
            return None
        return head.cstable.weight(slot)

    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        head = self._head(src, etype)
        if head is None:
            return []
        weights = head.cstable.to_weights()
        out: List[Tuple[int, float]] = []
        base = 0
        for seq in range(head.num_blocks):
            block = self._block(src, etype, seq)
            out.extend(zip(block.ids, weights[base : base + block.size]))
            base += block.size
        return out

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_sources(self) -> int:
        return self._num_sources

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        for key in self._kv:
            if key[0] == self._HEAD and key[1] == etype:
                yield key[2]

    # ------------------------------------------------------------------
    # ITS sampling (binary search on the per-source CSTable)
    # ------------------------------------------------------------------
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        if k < 0:
            raise ConfigurationError(f"sample count must be >= 0, got {k}")
        head = self._head(src, etype)
        if head is None or head.degree == 0:
            return []
        total = head.cstable.total()
        if total <= 0.0:
            raise EmptyStructureError(
                f"source {src} has zero total weight; cannot ITS-sample"
            )
        rng = coerce_scalar_rng(rng) or random
        out: List[int] = []
        for _ in range(k):
            slot = head.cstable.search(rng.random() * total)
            out.append(self._id_at(src, etype, slot))
        return out

    # The batched forms intentionally stay the generic per-source loop of
    # :class:`GraphStoreAPI` — PlatoGL has no read-optimized cache; the
    # scalar/batched gap *is* the comparison the batched-sampling
    # benchmark measures against the samtree store's snapshot path.

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        return self._kv.nbytes()
