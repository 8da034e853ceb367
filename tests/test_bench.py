"""Tests for the benchmark harness (report, workloads)."""

from __future__ import annotations

import pytest

from repro.bench.report import format_series, format_table, reduction_pct, speedup
from repro.bench.workloads import (
    CLUSTER_BUDGET_BYTES,
    STORE_NAMES,
    build_store,
    full_scale_bytes,
    make_store,
    neighbor_sampling_sweep,
    run_update_batches,
    sources_of,
    subgraph_sampling_sweep,
)
from repro.core.topology import DynamicGraphStore
from repro.datasets.presets import ogbn_scaled, wechat_scaled
from repro.datasets.stream import EdgeStream
from repro.errors import ConfigurationError


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], ["xxx", 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "xxx" in out

    def test_format_series_marks_oom(self):
        out = format_series(
            "batch", [1, 2], {"sys": [1.5, float("nan")]}, unit="ms"
        )
        assert "1.500ms" in out
        assert "o.o.m" in out

    def test_ratios(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(1.0, 0.0) == float("inf")
        assert reduction_pct(4.3, 0.81) == pytest.approx(81.2, abs=0.1)
        assert reduction_pct(0.0, 1.0) == 0.0


class TestWorkloads:
    def test_make_store_names(self):
        for name in STORE_NAMES:
            store = make_store(name)
            store.add_edge(1, 2, 1.0)
            assert store.num_edges == 1
        with pytest.raises(ConfigurationError):
            make_store("nope")

    def test_make_store_respects_capacity(self):
        store = make_store("PlatoD2GL", capacity=16, alpha=2)
        assert store.config.capacity == 16
        assert store.config.alpha == 2

    def test_build_store(self):
        data = ogbn_scaled(scale=20_000)
        result = build_store(make_store("PlatoD2GL"), data, batch_size=512)
        assert result.num_ops == data.num_edges
        assert not result.out_of_memory
        assert result.seconds > 0
        assert result.ops_per_second > 0

    def test_build_store_oom(self):
        data = ogbn_scaled(scale=20_000)
        result = build_store(
            make_store("AliGraph"), data, batch_size=512, memory_budget=1024
        )
        assert result.out_of_memory
        assert result.num_ops < data.num_edges

    def test_run_update_batches(self):
        data = ogbn_scaled(scale=20_000)
        store = make_store("PlatoD2GL")
        stream = EdgeStream(data)
        for batch in stream.build_batches(1024):
            for op in batch:
                store.apply(op)
        mean = run_update_batches(store, stream, batch_size=64, num_batches=3)
        assert mean > 0

    def test_sampling_sweeps(self):
        data = ogbn_scaled(scale=20_000)
        store = make_store("PlatoD2GL")
        build_store(store, data)
        sources = sources_of(store, limit=100)
        assert len(sources) == 100
        neigh = neighbor_sampling_sweep(store, sources, [4, 16], k=10)
        assert set(neigh) == {4, 16}
        assert all(v > 0 for v in neigh.values())
        sub = subgraph_sampling_sweep(store, sources, [4], fanouts=(3, 3))
        assert sub[4] > 0

    def test_full_scale_extrapolation(self):
        data = wechat_scaled(scale=4_000_000)
        store = make_store("PlatoD2GL")
        build_store(store, data)
        full = full_scale_bytes(store, data, "WeChat")
        # Per-edge cost times 65.9B edges lands in the hundreds of GB.
        assert full > 100 * (1 << 30)
        assert full < CLUSTER_BUDGET_BYTES
        ali = make_store("AliGraph")
        build_store(ali, data)
        peak = full_scale_bytes(ali, data, "WeChat", use_peak=True)
        assert peak > CLUSTER_BUDGET_BYTES  # the paper's o.o.m entry

    def test_full_scale_empty_store(self):
        data = ogbn_scaled(scale=20_000)
        assert full_scale_bytes(DynamicGraphStore(), data, "OGBN") == 0.0
