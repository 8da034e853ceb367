"""The samtree: PlatoD2GL's non-key-value topology store (paper §IV).

One samtree ``T_s`` per source vertex ``s`` holds all of ``s``'s
out-neighbors.  It is a B-tree-shaped structure (Definition 1: node
capacity ``c``, internal nodes at least half full, all leaves on one
level) specialised for *dynamic weighted neighbor sampling*:

* **leaves** store the neighbor IDs in an *unordered* list (so inserts
  append and deletes swap-with-last) plus an :class:`~repro.core.fenwick.FSTable`
  for ``O(log n_L)`` weight maintenance and FTS sampling;
* **internal nodes** store an *ordered* separator-ID list (one per child,
  ``keys[j] <= min(child j)``) for routing, plus a
  :class:`~repro.core.cstable.CSTable` over the child subtree weight sums
  so a weighted draw descends by ITS, and a per-child vertex count so an
  all-zero-weight tree draws uniformly by counts;
* an overflowing leaf is split around an α-approximate median found by
  :func:`~repro.core.alpha_split.alpha_split` (average ``O(n_L)``,
  Theorem 1); internal nodes split at their exact median (they are
  ordered, so that is ``O(n_L)``);
* an underflowing node merges with its nearest sibling (paper §IV-D),
  re-splitting when the merge itself would overflow.

Insertion is Algorithm 2: descend, modify the leaf, then refresh the
CSTables/FSTables bottom-up along the search path; average cost
``O(H * n_L)`` (Theorem 2).  Complete neighbor sampling (paper §V-C)
draws one mass ``R`` in ``[0, w_s)`` and narrows it through ITS at each
internal level and FTS at the leaf.

Operation counters feed the paper's Table V (leaf vs non-leaf update
distribution).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.alpha_split import split_arrays
from repro.core.compression import make_id_list, pack_id_lists
from repro.core.cstable import CSTable
from repro.core.fenwick import FSTable, build_tables
from repro.core.memory import ID_BYTES, POINTER_BYTES, TREE_NODE_HEADER_BYTES
from repro.errors import (
    ConfigurationError,
    EmptyStructureError,
    InvalidWeightError,
    InvariantViolationError,
)
from repro.obs.telemetry import Stats

__all__ = ["Samtree", "SamtreeConfig", "OpStats"]

#: Sentinel separator for the leftmost child of a fresh internal node.
_MIN_KEY = 0

@dataclass
class OpStats(Stats):
    """Structural-update counters (drive the paper's Table V).

    ``split_imbalance_sum`` accumulates, per α-Split of a leaf, the
    realised pivot imbalance ``|left - right| / (left + right)`` — 0.0
    for a perfect median, approaching 1.0 for a degenerate pivot.  The
    paper's Theorem 1 bounds the *expected* position error by α, and
    :attr:`mean_split_imbalance` is the structural-health readout of
    that bound (the samtree doctor reports it; DESIGN.md §12).
    """

    GAUGES = ("leaf_fraction",)

    leaf_ops: int = 0
    internal_ops: int = 0
    leaf_splits: int = 0
    internal_splits: int = 0
    merges: int = 0
    split_imbalance_sum: float = 0.0

    @property
    def total_ops(self) -> int:
        return self.leaf_ops + self.internal_ops

    @property
    def leaf_fraction(self) -> float:
        """Fraction of updates that touched only leaf nodes."""
        total = self.total_ops
        return self.leaf_ops / total if total else 0.0

    @property
    def mean_split_imbalance(self) -> float:
        """Mean α-Split pivot imbalance over every leaf split so far."""
        if not self.leaf_splits:
            return 0.0
        return self.split_imbalance_sum / self.leaf_splits


@dataclass(frozen=True)
class SamtreeConfig:
    """Construction parameters of a samtree.

    ``capacity`` is the paper's node capacity ``c`` (default ``256``,
    the sweet spot of Figure 11b); ``alpha`` the α-Split slackness
    (default ``0``, the paper's default); ``compress`` toggles CP-IDs
    prefix compression of leaf ID lists (§VI-A).
    """

    capacity: int = 256
    alpha: int = 0
    compress: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 4:
            raise ConfigurationError(
                f"samtree capacity must be >= 4, got {self.capacity}"
            )
        if self.alpha < 0:
            raise ConfigurationError(
                f"alpha slackness must be >= 0, got {self.alpha}"
            )

    @property
    def leaf_min_fill(self) -> int:
        """Minimum leaf occupancy: ``c/2 - alpha`` (paper remark), >= 1."""
        return max(1, -(-self.capacity // 2) - self.alpha)

    @property
    def internal_min_fill(self) -> int:
        """Minimum internal fan-out (>= 2 so routing stays meaningful)."""
        return max(2, -(-self.capacity // 2) - self.alpha)


class _LeafNode:
    """A leaf: unordered neighbor IDs + FSTable (paper constraints 1-2, 4)."""

    __slots__ = ("ids", "fstable")
    is_leaf = True

    def __init__(self, ids, fstable: FSTable) -> None:
        self.ids = ids
        self.fstable = fstable

    @property
    def size(self) -> int:
        return len(self.ids)

    def total_weight(self) -> float:
        return self.fstable.total()


class _InternalNode:
    """An internal node: ordered separators + CSTable + child counts."""

    __slots__ = ("keys", "children", "cstable", "counts")
    is_leaf = False

    def __init__(
        self,
        keys: List[int],
        children: List["_Node"],
        cstable: CSTable,
        counts: List[int],
    ) -> None:
        self.keys = keys
        self.children = children
        self.cstable = cstable
        self.counts = counts

    @property
    def size(self) -> int:
        return len(self.children)

    def total_weight(self) -> float:
        return self.cstable.total()

    def total_count(self) -> int:
        return sum(self.counts)


_Node = Union[_LeafNode, _InternalNode]


_INF = float("inf")


def _check_weight(weight: float) -> float:
    weight = float(weight)
    if weight < 0.0 or weight != weight or weight == _INF:
        raise InvalidWeightError(
            f"edge weights must be finite and non-negative, got {weight!r}"
        )
    return weight


class Samtree:
    """Per-vertex dynamic neighbor store with ``O(log)`` weighted sampling.

    Examples
    --------
    >>> tree = Samtree(SamtreeConfig(capacity=4))
    >>> tree.insert(2, 0.1)
    True
    >>> tree.insert(3, 0.4)
    True
    >>> tree.insert(5, 0.2)
    True
    >>> tree.degree
    3
    >>> round(tree.total_weight, 3)
    0.7
    """

    __slots__ = ("config", "stats", "_root", "_size", "_version")

    def __init__(
        self,
        config: Optional[SamtreeConfig] = None,
        stats: Optional[OpStats] = None,
    ) -> None:
        self.config = config or SamtreeConfig()
        self.stats = stats if stats is not None else OpStats()
        self._root: _Node = self._new_leaf([], [])
        self._size = 0
        self._version = 0

    # ------------------------------------------------------------------
    # node construction helpers
    # ------------------------------------------------------------------
    def _new_leaf(self, ids: List[int], weights: List[float]) -> _LeafNode:
        return _LeafNode(
            make_id_list(self.config.compress, ids), FSTable(weights)
        )

    @staticmethod
    def _weight_of(node: _Node) -> float:
        return node.total_weight()

    @staticmethod
    def _count_of(node: _Node) -> int:
        if node.is_leaf:
            return node.size
        return node.total_count()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Number of stored neighbors (``n_s``)."""
        return self._size

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, vertex_id: int) -> bool:
        return self.get_weight(vertex_id) is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Samtree(n={self._size}, height={self.height}, "
            f"capacity={self.config.capacity})"
        )

    @property
    def version(self) -> int:
        """Monotonic mutation epoch.

        Bumped by *every* path that changes the stored adjacency or its
        weights — single-edge upserts and deletes (Algorithm 2 and
        §IV-D) and the PALM within-tree batch
        (:func:`repro.core.tree_batch.apply_tree_codes`).  The read
        layer (:mod:`repro.core.snapshot`) compares this counter to
        decide whether a flat snapshot is still coherent.
        """
        return self._version

    @property
    def total_weight(self) -> float:
        """Sum of all stored edge weights (``w_s``)."""
        return self._weight_of(self._root)

    @property
    def height(self) -> int:
        """Number of levels (``H``); a lone leaf has height 1."""
        h = 1
        node = self._root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    @staticmethod
    def _route(node: _InternalNode, vertex_id: int) -> int:
        """Child index for ``vertex_id``: rightmost ``j`` with
        ``keys[j] <= vertex_id`` (clamped to 0 for IDs below the first
        separator, which stays correct because separators may be stale-low
        but never stale-high)."""
        j = bisect_right(node.keys, vertex_id) - 1
        return j if j >= 0 else 0

    def _descend(
        self, vertex_id: int
    ) -> Tuple[_LeafNode, List[Tuple[_InternalNode, int]]]:
        """Return the leaf for ``vertex_id`` and the (node, child-index)
        path from the root down to it (paper Algorithm 2 line 1)."""
        path: List[Tuple[_InternalNode, int]] = []
        node = self._root
        while not node.is_leaf:
            ci = self._route(node, vertex_id)
            path.append((node, ci))
            node = node.children[ci]
        return node, path

    def get_weight(self, vertex_id: int) -> Optional[float]:
        """Weight of the edge to ``vertex_id`` or ``None`` if absent."""
        leaf, _ = self._descend(vertex_id)
        idx = leaf.ids.index_of(vertex_id)
        if idx is None:
            return None
        return leaf.fstable.weight(idx)

    # ------------------------------------------------------------------
    # insertion (paper Algorithm 2)
    # ------------------------------------------------------------------
    def insert(self, vertex_id: int, weight: float = 1.0) -> bool:
        """Insert neighbor ``vertex_id`` or overwrite its weight.

        Returns ``True`` when the neighbor is new, ``False`` when an
        existing weight was updated in place (Algorithm 2 lines 3-6).
        """
        weight = _check_weight(weight)
        self._version += 1
        leaf, path = self._descend(vertex_id)
        idx = leaf.ids.index_of(vertex_id)
        overflow: Optional[Tuple[_Node, _Node, int]] = None
        if idx is not None:
            old = leaf.fstable.update(idx, weight)
            delta_w = weight - old
            dcount = 0
            is_new = False
        else:
            leaf.ids.append(vertex_id)
            leaf.fstable.append(weight)
            delta_w = weight
            dcount = 1
            is_new = True
            self._size += 1
            if leaf.size > self.config.capacity:
                overflow = self._split_leaf(leaf)
        self.stats.leaf_ops += 1
        self._propagate_up(path, overflow, delta_w, dcount)
        return is_new

    def update(self, vertex_id: int, weight: float) -> bool:
        """Overwrite the weight of an *existing* neighbor in one descent;
        returns ``False`` (and changes nothing) when it is absent."""
        weight = _check_weight(weight)
        leaf, path = self._descend(vertex_id)
        idx = leaf.ids.index_of(vertex_id)
        if idx is None:
            return False
        self._version += 1
        old = leaf.fstable.update(idx, weight)
        self.stats.leaf_ops += 1
        self._propagate_up(path, None, weight - old, 0)
        return True

    def _propagate_up(
        self,
        path: List[Tuple[_InternalNode, int]],
        overflow: Optional[Tuple[_Node, _Node, int]],
        delta_w: float,
        dcount: int,
    ) -> None:
        """Refresh CSTables/counts bottom-up (Algorithm 2 line 9) and
        thread any node split up through the ancestors."""
        for parent, ci in reversed(path):
            if overflow is not None:
                left, right, sep = overflow
                parent.children[ci] = left
                parent.children.insert(ci + 1, right)
                parent.keys.insert(ci + 1, sep)
                parent.cstable.update(ci, self._weight_of(left))
                parent.cstable.insert(ci + 1, self._weight_of(right))
                parent.counts[ci] = self._count_of(left)
                parent.counts.insert(ci + 1, self._count_of(right))
                self.stats.internal_ops += 1
                overflow = None
                if parent.size > self.config.capacity:
                    overflow = self._split_internal(parent)
            else:
                if delta_w:
                    parent.cstable.add(ci, delta_w)
                if dcount:
                    parent.counts[ci] += dcount
        if overflow is not None:
            left, right, sep = overflow
            self._root = _InternalNode(
                keys=[_MIN_KEY, sep],
                children=[left, right],
                cstable=CSTable([self._weight_of(left), self._weight_of(right)]),
                counts=[self._count_of(left), self._count_of(right)],
            )
            self.stats.internal_ops += 1

    def _split_leaf(self, leaf: _LeafNode) -> Tuple[_Node, _Node, int]:
        """α-Split an overflowing leaf into two (paper Algorithm 1)."""
        ids = leaf.ids.to_list()
        weights = leaf.fstable.to_weights()
        left_ids, left_w, right_ids, right_w, sep = split_arrays(
            ids, weights, self.config.alpha
        )
        self.stats.leaf_splits += 1
        self._record_split_balance(len(left_ids), len(right_ids))
        return (
            self._new_leaf(left_ids, left_w),
            self._new_leaf(right_ids, right_w),
            sep,
        )

    def _record_split_balance(self, left: int, right: int) -> None:
        """Account one α-Split's realised pivot quality (doctor stats)."""
        total = left + right
        if total:
            self.stats.split_imbalance_sum += abs(left - right) / total

    def _split_internal(
        self, node: _InternalNode
    ) -> Tuple[_Node, _Node, int]:
        """Median split of an ordered internal node (paper §IV-C: O(1) to
        find the median, O(n_L) to copy)."""
        m = node.size // 2
        weights = node.cstable.to_weights()
        left = _InternalNode(
            keys=node.keys[:m],
            children=node.children[:m],
            cstable=CSTable(weights[:m]),
            counts=node.counts[:m],
        )
        right = _InternalNode(
            keys=node.keys[m:],
            children=node.children[m:],
            cstable=CSTable(weights[m:]),
            counts=node.counts[m:],
        )
        self.stats.internal_splits += 1
        self.stats.internal_ops += 1
        return left, right, node.keys[m]

    # ------------------------------------------------------------------
    # deletion (paper §IV-D)
    # ------------------------------------------------------------------
    def delete(self, vertex_id: int) -> bool:
        """Remove neighbor ``vertex_id``; returns ``False`` if absent.

        Leaf removal is swap-with-last (unordered list); an underflowing
        node merges with its nearest sibling, re-splitting if the merge
        itself would overflow.
        """
        leaf, path = self._descend(vertex_id)
        idx = leaf.ids.index_of(vertex_id)
        if idx is None:
            return False
        self._version += 1
        removed = leaf.fstable.delete(idx)
        leaf.ids.swap_delete(idx)
        self._size -= 1
        self.stats.leaf_ops += 1

        child: _Node = leaf
        for parent, ci in reversed(path):
            if removed:
                parent.cstable.add(ci, -removed)
            parent.counts[ci] -= 1
            if self._is_underflow(child) and parent.size >= 2:
                self._rebalance(parent, ci)
            child = parent
        root = self._root
        while not root.is_leaf and root.size == 1:
            root = root.children[0]
        self._root = root
        return True

    def _is_underflow(self, node: _Node) -> bool:
        if node.is_leaf:
            return node.size < self.config.leaf_min_fill
        return node.size < self.config.internal_min_fill

    def _rebalance(self, parent: _InternalNode, ci: int) -> None:
        """Merge ``children[ci]`` with its nearest sibling; if the merged
        node would overflow, redistribute by splitting it again."""
        sib = ci - 1 if ci > 0 else ci + 1
        lo, hi = (sib, ci) if sib < ci else (ci, sib)
        left, right = parent.children[lo], parent.children[hi]
        self.stats.merges += 1
        self.stats.internal_ops += 1
        if left.is_leaf:
            ids = left.ids.to_list() + right.ids.to_list()
            weights = left.fstable.to_weights() + right.fstable.to_weights()
            if len(ids) > self.config.capacity:
                l_ids, l_w, r_ids, r_w, sep = split_arrays(
                    ids, weights, self.config.alpha
                )
                self._replace_pair(
                    parent,
                    lo,
                    self._new_leaf(l_ids, l_w),
                    self._new_leaf(r_ids, r_w),
                    sep,
                )
            else:
                self._replace_merged(parent, lo, self._new_leaf(ids, weights))
        else:
            keys = left.keys + right.keys
            children = left.children + right.children
            weights = left.cstable.to_weights() + right.cstable.to_weights()
            counts = left.counts + right.counts
            if len(children) > self.config.capacity:
                m = len(children) // 2
                lnode = _InternalNode(
                    keys[:m], children[:m], CSTable(weights[:m]), counts[:m]
                )
                rnode = _InternalNode(
                    keys[m:], children[m:], CSTable(weights[m:]), counts[m:]
                )
                self._replace_pair(parent, lo, lnode, rnode, keys[m])
            else:
                merged = _InternalNode(
                    keys, children, CSTable(weights), counts
                )
                self._replace_merged(parent, lo, merged)

    def _replace_pair(
        self,
        parent: _InternalNode,
        lo: int,
        left: _Node,
        right: _Node,
        sep: int,
    ) -> None:
        """Install a redistributed (merge-then-split) sibling pair."""
        hi = lo + 1
        parent.children[lo] = left
        parent.children[hi] = right
        parent.keys[hi] = sep
        parent.cstable.update(lo, self._weight_of(left))
        parent.cstable.update(hi, self._weight_of(right))
        parent.counts[lo] = self._count_of(left)
        parent.counts[hi] = self._count_of(right)

    def _replace_merged(
        self, parent: _InternalNode, lo: int, merged: _Node
    ) -> None:
        """Install a merged node and drop its right sibling's slot."""
        hi = lo + 1
        parent.children[lo] = merged
        del parent.children[hi]
        del parent.keys[hi]
        del parent.counts[hi]
        parent.cstable.delete(hi)
        parent.cstable.update(lo, self._weight_of(merged))
        parent.counts[lo] = self._count_of(merged)

    # ------------------------------------------------------------------
    # bulk construction (bottom-up, see build_roots)
    # ------------------------------------------------------------------
    @classmethod
    def _over(
        cls, config: SamtreeConfig, stats: OpStats, root: _Node, size: int
    ) -> "Samtree":
        """A new tree over a built root (no throw-away empty leaf)."""
        tree = cls.__new__(cls)
        tree.config, tree.stats, tree._version = config, stats, 0
        tree._replace(root, size)
        return tree

    def _replace(self, root: _Node, size: int) -> None:
        """Swap in a built root.  In place — rather than a fresh
        ``Samtree`` in the directory — so every outstanding reference
        can observe the version bump and the read layer never serves a
        pre-rebuild row of this source."""
        self._version += 1
        self._root = root
        self._size = size

    @staticmethod
    def _level_bounds(
        n: int, target: int, cap: int, min_fill: int
    ) -> List[int]:
        """Slice boundaries packing ``n`` elements into nodes near
        ``target`` occupancy while honouring ``[min_fill, cap]``.

        The node count is clamped to ``[ceil(n / cap), n // min_fill]``
        (at least 1), then sizes are distributed evenly, so every
        non-root node lands inside the paper's occupancy bounds — the
        clamp interval is never empty because ``min_fill <= (cap+1)/2``.
        """
        if n <= cap:
            # Fits in one node: never split what a single node can hold
            # (matches the incremental tree, which only splits on
            # overflow).
            return [0, n]
        want = -(-n // target)  # ceil
        lo = -(-n // cap)
        hi = max(1, n // max(1, min_fill))
        num = max(lo, min(want, hi))
        base, rem = divmod(n, num)
        bounds = [0]
        for j in range(num):
            bounds.append(bounds[-1] + base + (1 if j < rem else 0))
        return bounds

    # ------------------------------------------------------------------
    # sampling (paper §V-C: ITS at internal nodes, FTS at the leaf)
    # ------------------------------------------------------------------
    def sample(self, rng: Optional[random.Random] = None) -> int:
        """Draw one neighbor with probability ``w_{s,u} / w_s``."""
        if self._size == 0:
            raise EmptyStructureError("cannot sample from an empty samtree")
        total = self.total_weight
        if total <= 0.0:
            return self.sample_uniform(rng)
        rand = rng.random() if rng is not None else random.random()
        return self._sample_with(rand * total)

    def _sample_with(self, r: float) -> int:
        node = self._root
        while not node.is_leaf:
            i = node.cstable.search(r)
            if i > 0:
                r -= node.cstable.prefix_sum(i - 1)
            node = node.children[i]
        idx = node.fstable.sample_with(r)
        return node.ids[idx]

    def sample_many(
        self, k: int, rng: Optional[random.Random] = None
    ) -> List[int]:
        """Draw ``k`` neighbors with replacement (the GNN fan-out case).

        The batch form hoists the total-weight lookup and the descent
        dispatch out of the per-draw loop — the equivalent of what the
        operator layer's batched sampling kernels do.
        """
        if k < 0:
            raise ConfigurationError(f"sample count must be >= 0, got {k}")
        if self._size == 0:
            raise EmptyStructureError("cannot sample from an empty samtree")
        total = self.total_weight
        if total <= 0.0:
            return [self.sample_uniform(rng) for _ in range(k)]
        rand = rng.random if rng is not None else random.random
        root = self._root
        if root.is_leaf:
            fstable = root.fstable
            ids = root.ids
            sample_with = fstable.sample_with
            return [ids[sample_with(rand() * total)] for _ in range(k)]
        out = []
        for _ in range(k):
            r = rand() * total
            node = root
            while not node.is_leaf:
                i = node.cstable.search(r)
                if i > 0:
                    r -= node.cstable.prefix_sum(i - 1)
                node = node.children[i]
            out.append(node.ids[node.fstable.sample_with(r)])
        return out

    def sample_uniform(self, rng: Optional[random.Random] = None) -> int:
        """Draw one neighbor uniformly at random, descending by the
        per-child counts: the draw of a tree whose weights are all zero."""
        if self._size == 0:
            raise EmptyStructureError("cannot sample from an empty samtree")
        r = (rng or random).randrange(self._size)
        node = self._root
        while not node.is_leaf:
            for i, c in enumerate(node.counts):
                if r < c:
                    node = node.children[i]
                    break
                r -= c
            else:  # pragma: no cover - counts always total node size
                raise InvariantViolationError("count descent overran")
        return node.ids[r]

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def _leaves(self) -> Iterator[_LeafNode]:
        stack: List[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(reversed(node.children))

    def neighbors(self) -> Iterator[int]:
        """Iterate over neighbor IDs (leaf order; unordered within leaf)."""
        for leaf in self._leaves():
            yield from leaf.ids

    def iter_nodes(self) -> Iterator[Tuple[_Node, int]]:
        """Yield ``(node, depth)`` pairs in pre-order (root at depth 1).

        The samtree doctor's structural walk (:mod:`repro.obs.doctor`):
        callers duck-type through the node interface — ``node.is_leaf``,
        ``node.size``, and (for internal nodes) ``node.children`` — so
        the node classes themselves stay private to this module.
        """
        stack: List[Tuple[_Node, int]] = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack.extend((child, depth + 1) for child in node.children)

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(neighbor_id, weight)`` pairs."""
        for leaf in self._leaves():
            yield from zip(leaf.ids, leaf.fstable.to_weights())

    def to_dict(self) -> dict:
        """Materialise the adjacency as ``{neighbor_id: weight}``."""
        return dict(self.items())

    # ------------------------------------------------------------------
    # memory accounting & invariants
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Modeled bytes of the whole tree under the shared byte layout.

        Defined as the exact sum of :meth:`nbytes_breakdown` — the
        samtree doctor's per-component invariant (DESIGN.md §12) is
        therefore true by construction, not by coincidence.
        """
        return sum(self.nbytes_breakdown().values())

    def nbytes_breakdown(self) -> Dict[str, int]:
        """Per-component modeled bytes of this tree.

        Components (the samtree doctor's schema):

        * ``leaf_nodes``     — leaf headers + (possibly CP-IDs
          compressed) neighbor-ID lists;
        * ``fstables``       — the per-leaf Fenwick weight tables;
        * ``internal_nodes`` — internal headers, separator keys, child
          pointers, and per-child counts;
        * ``cstables``       — the per-internal-node cumulative
          subtree-weight tables.
        """
        leaf_nodes = fstables = internal_nodes = cstables = 0
        stack: List[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaf_nodes += TREE_NODE_HEADER_BYTES
                leaf_nodes += node.ids.nbytes()
                fstables += node.fstable.nbytes()
            else:
                internal_nodes += TREE_NODE_HEADER_BYTES
                internal_nodes += ID_BYTES * len(node.keys)
                internal_nodes += POINTER_BYTES * len(node.children)
                internal_nodes += 4 * len(node.counts)
                cstables += node.cstable.nbytes()
                stack.extend(node.children)
        return {
            "leaf_nodes": leaf_nodes,
            "fstables": fstables,
            "internal_nodes": internal_nodes,
            "cstables": cstables,
        }

    def check_invariants(self) -> None:
        """Verify every structural invariant; raise on violation.

        Checks: parallel-array lengths, CSTable entries equal child
        subtree weights, counts equal child sizes, separators route
        correctly, occupancy bounds, uniform leaf depth, and the global
        size counter.
        """
        leaf_depths: List[int] = []
        total = self._check_node(self._root, depth=1, depths=leaf_depths,
                                 lo=None, hi=None, is_root=True)
        if total != self._size:
            raise InvariantViolationError(
                f"size counter {self._size} != leaf total {total}"
            )
        if len(set(leaf_depths)) > 1:
            raise InvariantViolationError(
                f"leaves at different depths: {sorted(set(leaf_depths))}"
            )

    def _check_node(
        self,
        node: _Node,
        depth: int,
        depths: List[int],
        lo: Optional[int],
        hi: Optional[int],
        is_root: bool,
    ) -> int:
        cap = self.config.capacity
        if node.is_leaf:
            depths.append(depth)
            if len(node.ids) != len(node.fstable):
                raise InvariantViolationError(
                    f"leaf ids ({len(node.ids)}) / fstable "
                    f"({len(node.fstable)}) length mismatch"
                )
            if node.size > cap:
                raise InvariantViolationError(
                    f"leaf overflow: {node.size} > capacity {cap}"
                )
            if not is_root and node.size < 1:
                raise InvariantViolationError("empty non-root leaf")
            for vid in node.ids:
                if lo is not None and vid < lo:
                    raise InvariantViolationError(
                        f"leaf id {vid} below separator bound {lo}"
                    )
                if hi is not None and vid >= hi:
                    raise InvariantViolationError(
                        f"leaf id {vid} not below separator bound {hi}"
                    )
            return node.size

        if not (
            len(node.keys) == len(node.children) == len(node.counts)
            == len(node.cstable)
        ):
            raise InvariantViolationError(
                "internal node parallel arrays disagree: "
                f"keys={len(node.keys)} children={len(node.children)} "
                f"counts={len(node.counts)} cstable={len(node.cstable)}"
            )
        if node.size > cap:
            raise InvariantViolationError(
                f"internal overflow: {node.size} > capacity {cap}"
            )
        if not is_root and node.size < 2:
            raise InvariantViolationError(
                f"non-root internal node with {node.size} children"
            )
        if any(
            node.keys[j] >= node.keys[j + 1] for j in range(node.size - 1)
        ):
            raise InvariantViolationError(
                f"separator keys not strictly increasing: {node.keys}"
            )
        total = 0
        for j, child in enumerate(node.children):
            child_lo = node.keys[j] if j > 0 else lo
            child_hi = node.keys[j + 1] if j + 1 < node.size else hi
            count = self._check_node(
                child, depth + 1, depths, child_lo, child_hi, is_root=False
            )
            if count != node.counts[j]:
                raise InvariantViolationError(
                    f"counts[{j}]={node.counts[j]} != subtree size {count}"
                )
            expected = self._weight_of(child)
            actual = node.cstable.weight(j)
            tol = 1e-6 * max(1.0, abs(expected))
            if abs(expected - actual) > tol:
                raise InvariantViolationError(
                    f"cstable[{j}]={actual} != child weight {expected}"
                )
            total += count
        return total


def build_roots(
    config: SamtreeConfig,
    ids: np.ndarray,
    weights: np.ndarray,
    lengths: List[int],
) -> Iterator[Tuple[_Node, int]]:
    """The segmented builder of the bulk tier (DESIGN.md §9).

    ``ids`` / ``weights`` hold the validated, ascending, unique
    adjacency of ``len(lengths)`` trees back to back.  Every leaf of
    every tree is packed in one pass over the columns — near three
    quarters of the capacity each, one leaf for a tree that fits one —
    then each tree's separator levels are assembled bottom-up and its
    ``(root, size)`` yielded for :meth:`Samtree._replace`.  Packing below
    capacity leaves headroom so the first inserts after a bulk load do
    not split every leaf; :meth:`Samtree._level_bounds` keeps the realised
    fill inside the paper's ``[c/2 - alpha, c]`` occupancy bounds.
    """
    cap = config.capacity
    target = max(1, min(cap, int(round(cap * 0.75))))
    level_bounds = Samtree._level_bounds
    leaf_min, internal_min = config.leaf_min_fill, config.internal_min_fill
    leaf_lengths: List[int] = []
    leaves_of: List[int] = []
    for n in lengths:
        bounds = level_bounds(n, target, cap, leaf_min) if n else [0]
        leaf_lengths.extend(b - a for a, b in zip(bounds, bounds[1:]))
        leaves_of.append(len(bounds) - 1)
    sizes = np.asarray(leaf_lengths, dtype=np.intp)
    leaves = list(map(
        _LeafNode,
        pack_id_lists(config.compress, ids, sizes),
        build_tables(weights, sizes),
    ))
    minima = ids[np.cumsum(sizes) - sizes].tolist()  # slices are sorted
    at = 0
    for n, count in zip(lengths, leaves_of):
        nodes: List[_Node] = leaves[at : at + count]
        if not n:  # an empty tree is one empty leaf
            nodes = [_LeafNode(make_id_list(config.compress), FSTable())]
        if count > 1:
            keys = minima[at : at + count]
            # The leftmost spine takes every id below the first leaf's
            # smallest, as an insert-built tree's does: a separator may
            # be stale-low, never stale-high (see `_route`).
            keys[0] = _MIN_KEY
            node_counts = leaf_lengths[at : at + count]
            node_weights = [leaf.fstable.total() for leaf in nodes]
        at += count
        while len(nodes) > 1:
            bounds = level_bounds(len(nodes), target, cap, internal_min)
            parents = [
                _InternalNode(
                    keys[a:b], nodes[a:b], CSTable(node_weights[a:b]),
                    node_counts[a:b],
                )
                for a, b in zip(bounds, bounds[1:])
            ]
            keys = [keys[a] for a in bounds[:-1]]
            node_weights = [parent.cstable.total() for parent in parents]
            node_counts = [sum(parent.counts) for parent in parents]
            nodes = parents
        yield nodes[0], n
