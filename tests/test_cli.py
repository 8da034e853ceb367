"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.errors import ReproError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestStats:
    def test_all(self, capsys):
        assert main(["stats", "all"]) == 0
        out = capsys.readouterr().out
        assert "63.30B" in out

    def test_scaled(self, capsys):
        assert main(["stats", "OGBN", "--scale", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Product-Product" in out
        assert "bi-directed total" in out


class TestBuildAndSnapshotRoundtrip:
    def test_build_without_snapshot(self, capsys):
        assert main(["build", "OGBN", "--scale", "20000"]) == 0
        out = capsys.readouterr().out
        assert "modeled memory" in out

    def test_build_baseline(self, capsys):
        assert main(
            ["build", "OGBN", "--scale", "20000", "--system", "PlatoGL"]
        ) == 0
        assert "PlatoGL" in capsys.readouterr().out

    def test_snapshot_pipeline(self, tmp_path, capsys):
        snap = str(tmp_path / "g.pd2g")
        assert main(["build", "OGBN", "--scale", "20000", "--output", snap]) == 0
        assert main(["inspect", snap]) == 0
        out = capsys.readouterr().out
        assert "capacity=256" in out
        assert main(["sample", snap, "--k", "3"]) == 0
        assert "weighted draws" in capsys.readouterr().out
        assert main(["selftest", snap]) == 0
        assert "OK" in capsys.readouterr().out

    def test_snapshot_rejected_for_baselines(self, tmp_path, capsys):
        snap = str(tmp_path / "g.pd2g")
        rc = main(
            [
                "build", "OGBN", "--scale", "20000",
                "--system", "AliGraph", "--output", snap,
            ]
        )
        assert rc == 2

    def test_sample_specific_vertex(self, tmp_path, capsys):
        snap = str(tmp_path / "g.pd2g")
        main(["build", "OGBN", "--scale", "20000", "--output", snap])
        capsys.readouterr()
        from repro.storage.checkpoint import load_store

        src = next(iter(load_store(snap).sources()))
        assert main(["sample", snap, "--vertex", str(src), "--k", "4"]) == 0
        assert f"vertex {src}" in capsys.readouterr().out


class TestScenarioFlags:
    def test_one_parent_parser(self):
        from repro.serving.scenarios import SCENARIOS

        parser = build_parser()
        for command, default in (
            ("serve-sim", "calm"), ("watch", "flash_crowd"),
            ("alerts", "flash_crowd"),
        ):
            args = parser.parse_args([command])
            assert args.scenario == default
            assert (args.shards, args.vertices, args.seed) == (4, 400, 0)
            assert (args.target, args.no_shedding) == (0.99, False)
            for name in SCENARIOS:
                parsed = parser.parse_args([command, "--scenario", name])
                assert parsed.scenario == name


#: The CI readout flags of ``repro obs``.
_OBS_FLAGS = [
    "--shards", "3", "--vertices", "200", "--edges", "800",
    "--rounds", "5", "--fault-rate", "0.05",
]


class TestReadoutsAreDeterministic:
    """A seeded readout carries no wall-clock series: two runs of the
    same invocation print the same bytes."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "--format", "json", *_OBS_FLAGS],
            ["obs", "--format", "prometheus", *_OBS_FLAGS],
            ["obs", *_OBS_FLAGS],
            ["doctor", "--format", "json"],
            ["doctor", "--format", "prometheus"],
        ],
        ids=["obs-json", "obs-prometheus", "obs-human", "doctor-json",
             "doctor-prometheus"],
    )
    def test_two_runs_print_the_same_bytes(self, capsys, argv):
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestBadInput:
    """Bad input is refused with one ``error:`` line and exit code 2."""

    def _refused(self, capsys, argv, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err

    def _bundle(self, tmp_path):
        from repro.obs.incident import write_bundle
        from repro.obs.replay import make_spec

        bundle = {
            "meta": {"id": "incident-x", "trigger": "manual", "t_rel": 0.0},
            "spec": make_spec("calm"),
            "events": {}, "metrics": {}, "series": {}, "traces": [],
            "doctor": {},
        }
        return write_bundle(bundle, str(tmp_path))

    def test_fail_on_without_a_bound(self, capsys):
        self._refused(capsys, ["doctor", "--fail-on", "fill"], "fill")

    def test_replay_of_a_missing_directory(self, capsys, tmp_path):
        self._refused(capsys, ["replay", str(tmp_path / "gone")], "gone")

    def test_show_of_a_missing_id(self, capsys, tmp_path):
        self._refused(
            capsys,
            ["incidents", "show", "--dir", str(tmp_path), "--id", "ghost"],
            "ghost",
        )

    def test_truncated_meta(self, capsys, tmp_path):
        meta = os.path.join(self._bundle(tmp_path), "meta.json")
        with open(meta) as fh:
            text = fh.read()
        with open(meta, "w") as fh:
            fh.write(text[: len(text) // 2])
        self._refused(
            capsys, ["incidents", "list", "--dir", str(tmp_path)], "meta.json"
        )
        self._refused(capsys, ["replay", os.path.dirname(meta)], "meta.json")

    def test_spec_that_is_not_an_object(self, capsys, tmp_path):
        path = self._bundle(tmp_path)
        with open(os.path.join(path, "spec.json"), "w") as fh:
            fh.write("[]\n")
        self._refused(capsys, ["replay", path], "spec.json")
        self._refused(
            capsys,
            ["incidents", "show", "--dir", str(tmp_path), "--id", "incident-x"],
            "spec.json",
        )


# ---------------------------------------------------------------------------
# fuzz: mutated bundles are read or refused, never crash the CLI
# ---------------------------------------------------------------------------
#: Any JSON value: what a hand-edited or damaged bundle field may hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def captured_bundle():
    """One manual capture of a small monitored, recorded serving rig."""
    from repro.obs.incident import IncidentManager
    from repro.serving import build_serving_rig

    rig = build_serving_rig(
        num_shards=2, num_sources=64, degree=4, monitor_interval=0.01,
        recorder=True,
    )
    manager = IncidentManager(rig.cluster)
    manager.mark_start()
    rig.cluster.crash_shard(0)
    for v in range(12):
        rig.service.submit([v])
    rig.service.flush()
    rig.monitor.scrape()
    return json.loads(json.dumps(manager.trigger()))


def _mutate(data, bundle):
    """Delete a key (or element), or replace a value, at a random path
    of one section; returns the section's name."""
    section = data.draw(st.sampled_from(sorted(bundle)))
    container, key = bundle, section
    while True:
        value = container[key]
        children = (
            sorted(value) if isinstance(value, dict)
            else range(len(value)) if isinstance(value, list) else []
        )
        if not children or data.draw(st.booleans()):
            break
        container, key = value, data.draw(st.sampled_from(list(children)))
    if container is not bundle and data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(JSON_VALUES)
    return section


class TestMutatedBundles:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_read_or_refused(self, data, captured_bundle):
        from repro.obs.incident import list_bundles, load_bundle, write_bundle

        bundle = json.loads(json.dumps(captured_bundle))
        section = _mutate(data, bundle)
        with tempfile.TemporaryDirectory() as root:
            path = write_bundle(captured_bundle, root)
            with open(os.path.join(path, f"{section}.json"), "w") as fh:
                json.dump(bundle[section], fh)
            for call in (lambda: list_bundles(root), lambda: load_bundle(path)):
                try:
                    call()
                except ReproError:
                    pass
            bundle_id = os.path.basename(path)
            for argv in (
                ["incidents", "list", "--dir", root],
                ["incidents", "show", "--dir", root, "--id", bundle_id],
            ):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    assert main(argv) in (0, 2), sink.getvalue()
