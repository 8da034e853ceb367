"""Seeded draws are pinned bit for bit against blocks recorded before
slab rows were read in place (``data/golden_draws.npz``).

The read image draws a small source from the slab's own running sum and
a samtree from its arena; both sums are ``np.cumsum`` of the same
weights, and the uniform block is one ``gen.random`` per call assigned
in one row order, so every seeded ``SampleBlock`` — row loop or frontier
kernel, frozen or not, with or without ``counts`` — and every seeded
scalar draw must equal the recording.

Regenerate (only when a change is *meant* to move draws) with
``PYTHONPATH=src python tests/test_golden_draws.py``.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.snapshot import ROW_LOOP_BELOW
from repro.core.topology import DynamicGraphStore

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_draws.npz")


def _golden_store() -> DynamicGraphStore:
    """60 slab rows (degree 1..8) and 6 samtrees (9..40) at ``c`` = 8,
    a few zero weights and one all-zero row; sources 66..69 have none."""
    rng = np.random.default_rng(11)
    degrees = np.concatenate([rng.integers(1, 9, 60), rng.integers(9, 41, 6)])
    src = np.repeat(np.arange(degrees.size), degrees)
    dst = rng.choice(10**6, src.size, replace=False)
    weight = rng.random(src.size) * 4.0
    weight[rng.random(src.size) < 0.1] = 0.0
    weight[src == 3] = 0.0
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    store.bulk_load(src, dst, weight)
    for s in range(0, 60, 7):  # relocate and reorder a few rows
        store.add_edge(s, 2_000_000 + s, 0.75)
        store.remove_edge(s, int(dst[src == s][0]))
    return store


def golden_blocks() -> dict:
    store = _golden_store()
    assert isinstance(store.tree(65), Samtree) and not isinstance(
        store.tree(0), Samtree
    )
    rng = np.random.default_rng(23)
    big = rng.integers(0, 70, 4 * ROW_LOOP_BELOW)
    small = rng.integers(0, 70, ROW_LOOP_BELOW // 3)
    out: dict = {}
    # The seeds the recording gave the weighted calls, when each call
    # pair was followed by a pair of (since retired) uniform calls.
    seed = (s for s in range(1000) if s % 4 < 2)

    def draw(tag: str) -> None:
        for name, frontier in (("big", big), ("small", small)):
            counts = (np.arange(frontier.size) % 3).tolist()
            for shaped in (False, True):
                block = store.sample_neighbors_many(
                    frontier, 5, next(seed),
                    counts=counts if shaped else None,
                )
                key = f"{tag}.{name}.w.{int(shaped)}"
                out[key + ".ids"] = block.ids
                out[key + ".state"] = block.state

    draw("thawed")
    store.add_edge(5, 3_000_000, 2.5)  # a slab row and a samtree, dirtied
    store.add_edge(62, 3_000_001, 2.5)
    draw("written")
    store.freeze()
    draw("frozen")
    store.add_edge(9, 3_000_002, 1.25)
    store.update_edge(63, int(store.neighbors(63)[0][0]), 9.0)
    draw("frozen_written")
    store.thaw()
    for image in store.snapshot_cache.relations.values():
        image.compact()
    draw("thawed_again")
    for src in (0, 3, 5, 61, 64):
        out[f"scalar.{src}.w"] = np.asarray(store.sample_neighbors(src, 40, src))
    return out


def test_seeded_draws_equal_the_recording():
    want = np.load(GOLDEN)
    got = golden_blocks()
    assert sorted(got) == sorted(want.files)
    for key in want.files:
        assert np.array_equal(got[key], want[key]), key


if __name__ == "__main__":
    if len(sys.argv) > 1:
        GOLDEN = sys.argv[1]
    np.savez_compressed(GOLDEN, **golden_blocks())
    print("wrote", GOLDEN)
