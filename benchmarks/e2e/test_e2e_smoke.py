"""Smoke test of the end-to-end benchmark (``--smoke`` shapes, seconds).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1
(``testpaths = ["tests"]``) does not collect it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import spec

HERE = Path(__file__).resolve().parent
NAMES = list(spec.WORKLOADS)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def test_benchmark_json_mirrors_spec():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(
        spec.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in bench["end_to_end"]
    ] == [tuple(m) for m in spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == [tuple(m)[:3] for m in spec.per_layer()]


def test_no_file_looks_like_a_legacy_bench():
    assert not list(HERE.glob("bench_*.py"))


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    report, trace_json = run.run_workload(
        name, seed=1, seconds=spec.RUN_SECONDS, trace=False, smoke=True,
        work_dir=str(tmp_path),
    )
    assert trace_json is None
    assert report["failed"] == 0, report["errors"]
    assert report["claim"] is None
    expected = {m.name: m for m, where in spec.NAMED if name in where}
    assert set(report["named"]) == set(expected)
    for key, m in report["named"].items():
        assert m["unit"] == expected[key].unit
        assert _finite(m["value"]), key
        assert m["samples"] >= 1
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    for m in spec.END_TO_END:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit
        assert _finite(got["value"]) and got["value"] > 0, m.name
    env = report["env"]
    assert {"nproc", "python", "numpy", "window_scale"} <= set(env)
    assert not list(tmp_path.glob("wal.*")), "WAL directories are cleaned up"


def test_traced_suite_reports_every_per_layer_metric(tmp_path, capsys):
    assert run.main(
        ["--smoke", "--trace", "1", "--work-dir", str(tmp_path)]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    reports = {}
    for line in lines:
        if line.startswith("report: "):
            report = json.loads(line[len("report: "):])
            reports[report["workload"]] = report
    assert list(reports) == NAMES
    # The last line is the last workload's result, numbers only.
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec.per_layer()
    assert list(last["metrics"]) == [m.name for m in wanted]
    assert all(_finite(v["value"]) for v in last["metrics"].values())

    ladder = {m.name for m in spec.LADDER}
    for name, report in reports.items():
        layer = report["per_layer"]
        assert list(layer) == [m.name for m in wanted]
        for m in wanted:
            assert layer[m.name]["unit"] == m.unit
            assert _finite(layer[m.name]["value"]), (name, m.name)
        shares = sum(
            layer[f"{l}.self_share"]["value"] for l in spec.LAYERS
        ) + layer["harness.self_share"]["value"]
        assert shares == pytest.approx(1.0, abs=0.02)
        if name == "train_frozen":
            assert all(layer[r]["value"] > 0 for r in ladder)
    # The bypass workloads really bypass.
    frozen = reports["train_frozen"]["per_layer"]
    assert frozen["core.snapshot.builds"]["value"] == 0
    assert frozen["core.ingest.calls"]["value"] == 0
    assert frozen["core.frozen.served_share"]["value"] == 1
    assert reports["ingest_churn"]["per_layer"]["gnn.samplers.calls"]["value"] == 0
    assert reports["train_churn"]["per_layer"]["core.snapshot.builds"]["value"] > 0

    traces = json.loads((tmp_path / "trace.json").read_text())["traces"]
    assert [t["workload"] for t in traces] == NAMES
    for t in traces:
        spans = t["spans"]
        n = t["spans_written"]
        assert 0 < n <= t["spans_total"]
        assert {len(col) for col in spans.values()} == {n}
        for i in range(n):
            parent = spans["parent"][i]
            # Every span is a root or names an earlier span as parent,
            # lies inside it, and shares its operation id.
            assert parent == -1 or 0 <= parent < i
            assert spans["start_ns"][i] <= spans["end_ns"][i]
            assert 0 <= spans["name"][i] < len(t["names"])
            if parent == -1:
                assert spans["op"][i] == i
            else:
                assert spans["op"][i] == spans["op"][parent]
                assert spans["start_ns"][parent] <= spans["start_ns"][i]
                assert spans["end_ns"][i] <= spans["end_ns"][parent]


def test_run_survives_api_drift(tmp_path, monkeypatch):
    """A later PR may delete an endpoint: the tracer wraps what exists,
    and a rung whose entry point is gone reads null."""
    from repro.core.topology import DynamicGraphStore
    from repro.distributed.server import GraphServer

    monkeypatch.delattr(GraphServer, "sample_neighbors_uniform_many")
    monkeypatch.delattr(DynamicGraphStore, "thaw")
    report, _ = run.run_workload(
        "train_frozen", seed=2, seconds=spec.RUN_SECONDS, trace=True,
        smoke=True, work_dir=str(tmp_path),
    )
    assert report["failed"] == 0, report["errors"]
    layer = report["per_layer"]
    gone = ("distributed.client.sample_many_default_vps",
            "gnn.samplers.blocks_2hop_client_default_sps")
    for rung in gone:
        assert layer[rung]["value"] is None
        assert report["result"]["metrics"][rung]["value"] == 0.0
    assert layer["core.frozen.sample_matrix_vps"]["value"] > 0


def test_tracer_restores_what_it_wrapped():
    from repro.distributed.client import GraphClient
    from repro.gnn import samplers, training
    from trace import Tracing

    before = (GraphClient.__dict__["add_edge"], samplers.sample_blocks,
              training.sample_blocks)
    with Tracing(spec.LAYERS):
        assert GraphClient.__dict__["add_edge"] is not before[0]
        # ``from samplers import sample_blocks`` in another module is
        # rebound too, or the trainer would call the untraced function.
        assert training.sample_blocks is samplers.sample_blocks
        assert samplers.sample_blocks is not before[1]
    assert (GraphClient.__dict__["add_edge"], samplers.sample_blocks,
            training.sample_blocks) == before
