"""Intra-tree batch updates: PALM's bottom-up rounds (paper Appendix B).

The PALM executor guarantees each samtree is touched by one thread; this
module gives that thread the *within-tree* half of the scheme: instead
of walking root→leaf once per operation, a batch against one tree is

1. **grouped by leaf** — every operation descends once, and operations
   landing in the same leaf share the path;
2. **applied leaf-locally** — upserts, in-place updates, and
   swap-deletes mutate the leaf's ID list and FSTable together;
3. **repaired bottom-up in rounds** — each round visits the parents of
   the nodes modified in the previous round, re-splitting oversize
   children (a leaf that absorbed many inserts may need *several*
   splits), merging undersize ones, and rebuilding the parent's CSTable
   and counts from its final child list; the last round fixes the root
   (growing or collapsing the tree).

This amortises the Algorithm-2 path maintenance across the batch: a
parent whose ten children changed is rebuilt once, not ten times.

Operations are ``(kind, vertex_id, weight)`` triples with kind one of
``"insert"`` (upsert), ``"update"`` (only if present), ``"delete"``;
:func:`check_tree_ops` turns them into the op codes of
:mod:`repro.core.ingest` (the PALM per-source batch), and the store's
columnar pass hands :func:`apply_tree_codes` columns it has already
validated.  Outcomes mirror :meth:`GraphStoreAPI.apply` semantics per
element.

A tree whose root is a leaf — almost every tree of a power-law graph —
skips the grouping descents and has no round to run below the root.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.alpha_split import split_arrays
from repro.core.compression import _check_id
from repro.core.cstable import CSTable
from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.core.samtree import (
    Samtree,
    _check_weight,
    _InternalNode,
    _LeafNode,
    _MIN_KEY,
)
from repro.errors import ConfigurationError

__all__ = ["apply_tree_codes", "check_tree_ops", "TreeOp"]

#: One batched operation against a single tree.
TreeOp = Tuple[str, int, float]

_KIND_CODES = {"insert": OP_INSERT, "update": OP_UPDATE, "delete": OP_DELETE}


def check_tree_ops(
    ops: Sequence[TreeOp],
) -> Tuple[List[int], List[int], List[float]]:
    """Validate ``ops`` into the ``(vids, codes, weights)`` columns of
    :func:`apply_tree_codes`; raises on the first bad kind, ID or
    insert/update weight."""
    vids, codes, weights = [], [], []
    for kind, vid, weight in ops:
        code = _KIND_CODES.get(kind)
        if code is None:
            raise ConfigurationError(
                f"unknown tree op kind {kind!r}; expected one of "
                f"{tuple(_KIND_CODES)}"
            )
        vids.append(_check_id(vid))
        codes.append(code)
        weights.append(weight if code == OP_DELETE else _check_weight(weight))
    return vids, codes, weights


def apply_tree_codes(
    tree: Samtree,
    vids: Sequence[int],
    codes: Sequence[int],
    weights: Sequence[float],
) -> List[bool]:
    """Apply a batch of validated parallel columns (:func:`check_tree_ops`)
    to one samtree with bottom-up repair rounds.

    Returns one outcome per op, in submission order: inserts report
    "was new", updates/deletes report "existed".  Equivalent to applying
    the ops sequentially (property-tested), but with each touched node
    repaired once per round instead of once per op.
    """
    outcomes = [False] * len(vids)
    if not vids:
        return outcomes
    # One epoch bump per batch: every image row of this tree is stale the
    # moment the batch starts mutating leaves (see repro.core.snapshot).
    tree._version += 1
    root = tree._root
    leaf_groups: Dict[int, Tuple[_LeafNode, Iterable[int]]] = {}
    child_parent: Dict[int, _InternalNode] = {}
    # One descent per op, grouped per leaf (a root leaf has nothing to
    # group and no round to run below it).  Leaf contents change below
    # but separators do not, so the grouping stays valid for the batch.
    if root.is_leaf:
        leaf_groups[id(root)] = (root, range(len(vids)))
    else:
        for i, vid in enumerate(vids):
            node = root
            while not node.is_leaf:
                child = node.children[tree._route(node, vid)]
                child_parent[id(child)] = node
                node = child
            key = id(node)
            if key not in leaf_groups:
                leaf_groups[key] = (node, [])
            leaf_groups[key][1].append(i)

    current: Dict[int, object] = {}
    for key, (leaf, idxs) in leaf_groups.items():
        _apply_to_leaf(tree, leaf, idxs, vids, codes, weights, outcomes)
        current[key] = leaf

    # Bottom-up repair rounds: each visits the parents of the nodes the
    # previous one modified; the root is handled after the loop.
    while current:
        by_parent: Dict[int, _InternalNode] = {}
        for key in current:
            parent = child_parent.get(key)
            if parent is not None:
                by_parent[id(parent)] = parent
        for parent in by_parent.values():
            _repair_children(tree, parent)
        current = by_parent

    _repair_root(tree)
    return outcomes


def _apply_to_leaf(
    tree: Samtree, leaf: _LeafNode, idxs: Iterable[int],
    vids, codes, weights, outcomes: List[bool],
) -> None:
    """Leaf-local application of ops ``idxs``: upserts, in-place updates
    and swap-deletes mutate the ID list and the FSTable together."""
    ids, fstable = leaf.ids, leaf.fstable
    applied = grown = 0
    for i in idxs:
        vid = vids[i]
        code = codes[i]
        pos = ids.index_of(vid)
        if pos is None:
            if code != OP_INSERT:
                continue
            ids.append(vid)
            fstable.append(weights[i])
            grown += 1
            outcomes[i] = True
        elif code == OP_DELETE:
            fstable.delete(pos)
            ids.swap_delete(pos)
            grown -= 1
            outcomes[i] = True
        else:  # update, or an upsert that found the edge
            fstable.update(pos, weights[i])
            outcomes[i] = code == OP_UPDATE
        applied += 1
    tree._size += grown
    tree.stats.leaf_ops += applied


# ---------------------------------------------------------------------------
# structural repair helpers
# ---------------------------------------------------------------------------
def _node_min_fill(tree: Samtree, node) -> int:
    if node.is_leaf:
        return tree.config.leaf_min_fill
    return tree.config.internal_min_fill


def _split_to_fit(tree: Samtree, node) -> Tuple[List[object], List[int]]:
    """Split ``node`` repeatedly until every part fits the capacity.

    Returns ``(parts, separators)`` with ``len(separators) ==
    len(parts) - 1`` (the minimum key of each non-first part).
    """
    cap = tree.config.capacity
    pending = [node]
    parts: List[object] = []
    seps: List[int] = []
    sep_of: Dict[int, int] = {}
    while pending:
        cur = pending.pop()
        if cur.size <= cap:
            parts.append(cur)
            continue
        if cur.is_leaf:
            ids = cur.ids.to_list()
            weights = cur.fstable.to_weights()
            l_ids, l_w, r_ids, r_w, sep = split_arrays(
                ids, weights, tree.config.alpha
            )
            left = tree._new_leaf(l_ids, l_w)
            right = tree._new_leaf(r_ids, r_w)
            tree.stats.leaf_splits += 1
        else:
            m = cur.size // 2
            weights = cur.cstable.to_weights()
            left = _InternalNode(
                cur.keys[:m], cur.children[:m],
                CSTable(weights[:m]), cur.counts[:m],
            )
            right = _InternalNode(
                cur.keys[m:], cur.children[m:],
                CSTable(weights[m:]), cur.counts[m:],
            )
            sep = cur.keys[m]
            tree.stats.internal_splits += 1
        # Inherit the original node's separator for the left part; the
        # right part's separator is the split pivot.
        if id(cur) in sep_of:
            sep_of[id(left)] = sep_of.pop(id(cur))
        sep_of[id(right)] = sep
        # Left pushed last → popped first → `parts` fills left-to-right.
        pending.append(right)
        pending.append(left)
    for p in parts[1:]:
        seps.append(sep_of[id(p)])
    return parts, seps


def _lower_bound(node) -> int:
    """An exact lower bound on a subtree's content.

    ``keys[0]`` of an internal node is *decorative*: routing clamps to
    child 0, so the leftmost child may legitimately hold IDs below it.
    The true bound is the minimum of the leftmost leaf.
    """
    while not node.is_leaf:
        node = node.children[0]
    return min(node.ids) if len(node.ids) else _MIN_KEY


def _content_of(node):
    """Flatten a node into mergeable content."""
    if node.is_leaf:
        return node.ids.to_list(), node.fstable.to_weights()
    return (
        list(node.keys),
        list(node.children),
        node.cstable.to_weights(),
        list(node.counts),
    )


def _merge_pair(
    tree: Samtree, left, right
) -> Tuple[List[object], List[int]]:
    """Merge two siblings, re-splitting if the result overflows.

    Returns ``(parts, separators)`` like :func:`_split_to_fit` — the
    separators are exact split pivots, never derived from decorative
    ``keys[0]`` values.
    """
    tree.stats.merges += 1
    tree.stats.internal_ops += 1
    if left.is_leaf:
        l_ids, l_w = _content_of(left)
        r_ids, r_w = _content_of(right)
        merged = tree._new_leaf(l_ids + r_ids, l_w + r_w)
    else:
        l_keys, l_children, l_w, l_counts = _content_of(left)
        r_keys, r_children, r_w, r_counts = _content_of(right)
        # r_keys[0] lands at an interior position of the merged key list,
        # where it must be an exact content bound (a node's own keys[0]
        # is allowed to be decorative only at position 0).
        r_keys[0] = min(r_keys[0], _lower_bound(right))
        merged = _InternalNode(
            l_keys + r_keys,
            l_children + r_children,
            CSTable(l_w + r_w),
            l_counts + r_counts,
        )
    if merged.size > tree.config.capacity:
        return _split_to_fit(tree, merged)
    return [merged], []


def _repair_children(tree: Samtree, parent: _InternalNode) -> None:
    """Re-split oversize children, merge undersize ones, and rebuild the
    parent's separator/CSTable/count arrays from the final child list."""
    cap = tree.config.capacity
    children: List[object] = []
    keys: List[int] = []
    for j, child in enumerate(parent.children):
        if child.size > cap:
            parts, seps = _split_to_fit(tree, child)
            first_key = parent.keys[j]
            if j == 0:
                # Position 0's key is decorative (routing clamps there)
                # and may exceed the child's true minimum; the split
                # pivots that follow are exact, so the inherited key
                # must be lowered to a real bound to keep the list sorted.
                first_key = min(first_key, _lower_bound(parts[0]))
            children.append(parts[0])
            keys.append(first_key)
            for part, sep in zip(parts[1:], seps):
                children.append(part)
                keys.append(sep)
            tree.stats.internal_ops += 1
        else:
            children.append(child)
            keys.append(parent.keys[j])

    # Merge pass: drop emptied subtrees outright (a batch of deletes can
    # empty every leaf under an internal node), merge undersize children
    # with a neighbor (re-splitting when the merge overflows).
    i = 0
    while i < len(children):
        child = children[i]
        if Samtree._count_of(child) == 0 and len(children) > 1:
            del children[i]
            del keys[i]
            continue
        if child.size < _node_min_fill(tree, child) and len(children) > 1:
            j = i - 1 if i > 0 else i + 1
            lo, hi = (j, i) if j < i else (i, j)
            parts, seps = _merge_pair(tree, children[lo], children[hi])
            # keys[lo] is a valid bound for lo > 0 (routing enforces it);
            # at position 0 it is decorative and must not exceed content.
            lo_key = keys[lo]
            if lo == 0:
                lo_key = min(lo_key, _lower_bound(parts[0]))
            del children[lo : hi + 1]
            del keys[lo : hi + 1]
            children[lo:lo] = parts
            keys[lo:lo] = [lo_key] + seps
            i = max(lo, 0)
            continue
        i += 1

    parent.children = children
    parent.keys = keys
    parent.cstable = CSTable(
        [Samtree._weight_of(c) for c in children]
    )
    parent.counts = [Samtree._count_of(c) for c in children]


def _repair_root(tree: Samtree) -> None:
    """Grow or collapse the root after a batch."""
    cap = tree.config.capacity
    root = tree._root
    while root.size > cap:
        parts, seps = _split_to_fit(tree, root)
        keys = [_MIN_KEY] + seps
        root = _InternalNode(
            keys,
            parts,
            CSTable([Samtree._weight_of(p) for p in parts]),
            [Samtree._count_of(p) for p in parts],
        )
        tree.stats.internal_ops += 1
    while not root.is_leaf and root.size == 1:
        root = root.children[0]
    tree._root = root
