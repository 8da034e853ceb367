"""Shared fixtures for the PlatoD2GL reproduction test suite."""

from __future__ import annotations

import gc
import random
import sys

import numpy as np
import pytest

from repro.core.samtree import OpStats, Samtree, SamtreeConfig, build_roots
from repro.core.topology import DynamicGraphStore
from repro.core.tree_batch import apply_tree_codes
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI


@pytest.fixture
def rng() -> random.Random:
    """Deterministic stdlib RNG."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def nprng() -> np.random.Generator:
    """Deterministic NumPy RNG."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_config() -> SamtreeConfig:
    """A tiny samtree capacity so tests exercise splits and merges."""
    return SamtreeConfig(capacity=8, alpha=0, compress=True)


def stores_equal(a, b) -> bool:
    """Whether two stores (any backend mix) hold the same graph: their
    ``(etype, src, dst) -> weight`` maps compare ``==`` — weights are
    stored exactly, so no tolerance."""

    def edges(store):
        etypes = getattr(store, "etypes", lambda: [DEFAULT_ETYPE])()
        return {
            (etype, src, dst): weight
            for etype in etypes
            for src in store.sources(etype)
            for dst, weight in store.neighbors(src, etype)
        }

    return edges(a) == edges(b)


class DescentStore(DynamicGraphStore):
    """The exact-descent reference: a store whose batched draws are the
    scalar ITS/FTS descent per row (the API's default loop), never the
    read image's kernels."""

    sample_neighbors_many = GraphStoreAPI.sample_neighbors_many


def bulk_tree(ids, weights=None, config=None, stats=None) -> Samtree:
    """A samtree over distinct ``ids`` built bottom-up the way the store's
    bulk tier builds one (:func:`build_roots`, then ``Samtree._over``)."""
    config = config or SamtreeConfig()
    ids = np.asarray(ids, dtype=np.int64)
    weights = (
        np.ones(ids.size) if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    order = np.argsort(ids, kind="stable")
    (built,) = build_roots(config, ids[order], weights[order], [int(ids.size)])
    return Samtree._over(
        config, stats if stats is not None else OpStats(), *built
    )


def tree_batch(tree: Samtree, ops):
    """Apply ``(code, vid, weight)`` triples (``OP_*`` codes, valid
    rows) to one samtree as one batch, the way
    ``DynamicGraphStore.apply_source_batch`` does."""
    codes, vids, weights = zip(*ops) if ops else ((), (), ())
    return apply_tree_codes(tree, list(vids), list(codes), list(weights))


def live_edges(stream):
    """The ``(etype, src, dst)`` triples an ``EdgeStream`` has inserted
    and not deleted: the model a store fed the stream must match."""
    stream._ensure_live()
    return set(map(tuple, stream._live[: stream._n].tolist()))


def compact_image(image) -> int:
    """Compact every relation of a ``ReadImage`` now (the store runs it
    by itself once garbage says so); returns the clean rows dropped."""
    return sum(relation.compact() for relation in image.relations.values())


def python_calls(fn) -> int:
    """Python-level calls made by ``fn()``.  The cyclic GC is off for
    the call: a finaliser it ran inside the window would count too."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls
