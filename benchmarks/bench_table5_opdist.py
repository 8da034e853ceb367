"""Table V: distribution of structural update operations, leaf vs
non-leaf, as samtree node capacity varies (WeChat dataset).

The paper reports that >98 % of updates land on leaf nodes at every
capacity (98.09 % at 64 up to 99.98 % at 1024) — the fact that justifies
putting the fast FSTable in the leaves and the plain CSTable in the
internal nodes.
"""

from __future__ import annotations

import pytest

from repro.bench.report import format_table
from repro.bench.workloads import make_store
from repro.core.types import GraphStoreAPI
from repro.datasets.stream import EdgeStream

try:
    from conftest import BENCH_DATASETS
except ImportError:
    from benchmarks.conftest import BENCH_DATASETS

CAPACITIES = [64, 128, 256, 512, 1024]


def build_with_capacity(capacity: int, data):
    store = make_store("PlatoD2GL", capacity=capacity)
    stream = EdgeStream(data)
    for batch in stream.build_batches(4096):
        GraphStoreAPI.apply_edge_batch(store, batch)
    return store


@pytest.mark.parametrize("capacity", [64, 256, 1024])
def test_build_per_capacity(benchmark, datasets, capacity):
    benchmark.group = "table5-build-by-capacity"
    data = datasets["WeChat"]
    store = benchmark.pedantic(
        lambda: build_with_capacity(capacity, data), rounds=1, iterations=1
    )
    stats = store.stats
    assert stats.leaf_fraction > 0.95
    benchmark.extra_info["leaf_fraction"] = stats.leaf_fraction


def test_leaf_fraction_grows_with_capacity(datasets):
    data = datasets["WeChat"]
    fractions = [
        build_with_capacity(c, data).stats.leaf_fraction for c in (64, 512)
    ]
    assert fractions[0] < fractions[1]


def main() -> str:
    loader, scale = BENCH_DATASETS["WeChat"]
    data = loader(scale=scale)
    rows = []
    leaf_row = ["Leaf nodes"]
    internal_row = ["Non-leaf nodes"]
    for capacity in CAPACITIES:
        stats = build_with_capacity(capacity, data).stats
        leaf_row.append(f"{100 * stats.leaf_fraction:.2f}%")
        internal_row.append(f"{100 * (1 - stats.leaf_fraction):.2f}%")
    rows.append(leaf_row)
    rows.append(internal_row)
    return format_table(
        ["Node capacity"] + [str(c) for c in CAPACITIES],
        rows,
        title="Table V (measured): update-operation distribution on "
        "WeChat-scaled",
    )


if __name__ == "__main__":
    print(main())
