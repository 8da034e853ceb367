"""No module of the package is reached only by its tests.

An import graph over every ``.py`` file of the repository outside
``tests/`` (the library, its CLI, the benchmarks and the examples)
resolves relative imports and package re-exports to the module that
defines each name: ``from repro.gnn import Trainer`` is an import of
``repro.gnn.training``.  Every module of ``src/repro`` other than a
package ``__init__`` and ``__main__`` must have a live importer: a file
outside the package, or a module that has one itself.  A re-export by
one of its own packages' ``__init__``s keeps nothing alive.

The same holds one level down.  A ``def`` or ``class`` of ``src/repro``
is live when its name is read in a file outside ``tests/``: as a name,
as an attribute, or as an identifier-shaped string (``getattr`` by name,
a ``Stats.GAUGES`` entry).  An import or an ``__all__`` entry is a
re-export and reads nothing; so does a read of a definition's name
inside that definition (an endpoint's own ``_serve("name")``, a
recursive call).  The scan is by name, so a dead method that shares its
name with a live one passes it; dunders are not checked.

Three more guards keep the telemetry from growing back: a wall clock is
read only in the files that own one (a phase is timed with a span), the
traced components take no metrics registry of their own, and a
per-series registry view is registered only where no ``*Stats`` field
carries the read-out (a holder is watched whole).  A last one pins the
parameters of the callables whose unset options became constants or
went (the tracer's sampling, the recorder's per-category rings, the
hub attach knobs, the monitoring defaults, the read image's budget,
the PALM executor's per-op fallback and modeled sync cost).
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules nothing outside ``tests/`` imports, each kept on purpose.
ALLOWED_ORPHANS = {
    # The README's loader for users' own edge-list graphs.
    "repro.datasets.io",
}

#: Definitions nothing outside ``tests/`` reads, each kept on purpose.
ALLOWED_UNCALLED = {
    # The per-leaf reference builders the segmented builders
    # (`pack_id_lists`, `build_tables`) are tested against (DESIGN.md §9).
    "core/compression.py:CompressedIDList.from_array",
    "core/compression.py:PlainIDList.from_array",
    "core/fenwick.py:FSTable.from_array",
    # The README's entry points, as in ALLOWED_ORPHANS.
    "datasets/io.py:load_edge_list",
    # The paper's node-sampling operator (§III).
    "gnn/samplers.py:sample_seed_nodes",
}

#: The ``src/repro`` files that may read ``time.perf_counter``: the clock
#: defaults of the tracer and the monitor, the PALM makespan, the build
#: and batch-size workloads, and ``repro sample``'s timing.
WALL_CLOCK_FILES = {
    "obs/trace.py",
    "obs/monitor.py",
    "concurrency/palm.py",
    "bench/workloads.py",
    "cli.py",
}

#: The ``src/repro`` files that may call ``register_view``: the
#: cluster's monitor and recorder health, the service's breaker trips.  A ``*Stats`` holder goes through
#: ``MetricsRegistry.watch`` instead, one call per holder.
VIEW_FILES = {
    "distributed/cluster.py",
    "serving/service.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _sources() -> Iterator[Path]:
    """Every ``.py`` file outside ``tests/`` and hidden or cache dirs."""
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).parts
        if rel[0] == "tests" or any(
            p.startswith(".") or p == "__pycache__" or p.endswith(".egg-info")
            for p in rel[:-1]
        ):
            continue
        yield path


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


#: ``repro`` module name -> file, and the names that are packages.
MODULES: Dict[str, Path] = {
    _module_name(p): p for p in (SRC / "repro").rglob("*.py")
}
PACKAGES = {name for name, p in MODULES.items() if p.name == "__init__.py"}


def _base(node: ast.ImportFrom, module: Optional[str]) -> str:
    """The absolute module a ``from ... import`` reads from."""
    if not node.level:
        return node.module or ""
    assert module is not None, "relative import outside the package"
    parts = module.split(".")
    if module not in PACKAGES:
        parts = parts[:-1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _reexports(package: str) -> Dict[str, Tuple[str, str]]:
    """``name -> (module, original name)`` of a package's ``from``
    imports at top level."""
    out = {}
    for node in _parse(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom):
            base = _base(node, package)
            for alias in node.names:
                out[alias.asname or alias.name] = (base, alias.name)
    return out


REEXPORTS = {package: _reexports(package) for package in PACKAGES}


def resolve(module: str, name: str) -> str:
    """The module that defines what ``from module import name`` binds."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module in PACKAGES and name in REEXPORTS[module]:
        return resolve(*REEXPORTS[module][name])
    return module


def _imports(path: Path, module: Optional[str]) -> Iterator[str]:
    """Every module ``path`` imports, lazy imports included."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, module)
            for alias in node.names:
                yield resolve(base, alias.name)


def _importers() -> Dict[str, Set[str]]:
    """``repro`` module -> its importers (module names inside the
    package, paths outside), its own packages' ``__init__``s left out."""
    out: Dict[str, Set[str]] = {name: set() for name in MODULES}
    for path in _sources():
        inside = path.is_relative_to(SRC)
        module = _module_name(path) if inside else None
        for target in _imports(path, module):
            if target not in MODULES or target == module:
                continue
            if module in PACKAGES and target.startswith(module + "."):
                continue  # a re-export by an enclosing package
            out[target].add(module or path.relative_to(ROOT).as_posix())
    return out


def _orphans() -> Set[str]:
    """Modules with no live importer: none at all, or only orphans
    (an allowlisted one counts as live)."""
    importers = _importers()
    dead: Set[str] = set()
    while True:
        found = {
            name for name, who in importers.items()
            if not who - (dead - ALLOWED_ORPHANS)
            and name not in PACKAGES and not name.endswith(".__main__")
        }
        if found == dead:
            return dead
        dead = found


def test_every_module_has_an_importer_outside_the_tests():
    unexpected = _orphans() - ALLOWED_ORPHANS
    assert not unexpected, (
        f"only tests (or a package re-export) reach {sorted(unexpected)}: "
        "wire each into the product or delete it with its tests"
    )


def test_the_allowlist_names_only_orphans():
    stale = ALLOWED_ORPHANS - _orphans()
    assert not stale, f"imported now, drop from ALLOWED_ORPHANS: {sorted(stale)}"


def test_reexports_resolve_to_the_defining_module():
    assert resolve("repro.gnn", "Trainer") == "repro.gnn.training"
    assert resolve("repro", "DynamicGraphStore") == "repro.core.topology"
    assert resolve("repro.core", "topology") == "repro.core.topology"
    assert resolve("repro.errors", "ReproError") == "repro.errors"
    importers = _importers()
    # Reached only through its package: `from repro.datasets import EdgeStream`.
    assert "examples/distributed_cluster.py" in importers["repro.datasets.stream"]
    # A package re-export is not an importer.
    assert "repro.core" not in importers["repro.core.topology"]


def _definitions() -> Iterator[Tuple[str, str]]:
    """``(qualified name, name)`` of every non-dunder ``def`` and
    ``class`` of ``src/repro`` at module or class level, qualified as
    ``core/samtree.py:Samtree.insert``."""
    package = SRC / "repro"
    for path in sorted(package.rglob("*.py")):
        todo = [(_parse(path).body, f"{path.relative_to(package).as_posix()}:")]
        while todo:
            body, prefix = todo.pop()
            for node in body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield prefix + name, name
                if isinstance(node, ast.ClassDef):
                    todo.append((node.body, f"{prefix}{name}."))


def _reads(tree: ast.Module) -> Iterator[str]:
    """Every name, attribute and identifier-shaped string ``tree``
    reads; an ``__all__`` list and an import read nothing, and neither
    does a read of a name inside a ``def`` or ``class`` of that name, at
    any depth (an endpoint's own ``_serve("name")``, a recursive call)."""
    exported: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(map(id, ast.walk(node.value)))
    todo = [(tree, frozenset())]
    while todo:
        node, inside = todo.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            name = node.value
        if name is not None and name not in inside:
            yield name
        todo.extend((child, inside) for child in ast.iter_child_nodes(node))


def _uncalled() -> Set[str]:
    """Definitions whose name no file outside ``tests/`` reads."""
    read: Set[str] = set()
    for path in _sources():
        read.update(_reads(_parse(path)))
    return {qual for qual, name in _definitions() if name not in read}


def test_every_definition_has_a_caller():
    unexpected = _uncalled() - ALLOWED_UNCALLED
    assert not unexpected, (
        f"only tests (or a re-export) reach {sorted(unexpected)}: "
        "call each from the product or delete it with its tests"
    )


def test_the_definition_allowlist_names_only_uncalled():
    stale = ALLOWED_UNCALLED - _uncalled()
    assert not stale, f"called now, drop from ALLOWED_UNCALLED: {sorted(stale)}"


def test_the_definition_scan_reads_names_not_reexports():
    reads = set(_reads(ast.parse(
        "from m import a\n__all__ = ['b']\nc.d(e, getattr(f, 'g'))\n"
    )))
    assert reads == {"__all__", "c", "d", "e", "getattr", "f", "g"}
    assert ("core/samtree.py:Samtree.insert", "insert") in set(_definitions())
    # A definition's reads of its own name keep nothing alive.
    reads = set(_reads(ast.parse(
        "def h():\n    return h() + _serve('h')\n"
        "class K:\n    def m(self):\n        return K(), self.m\n"
        "def o():\n    return o\n"
        "o()\n"
    )))
    assert reads == {"_serve", "self", "o"}


def _clock_readers() -> Set[str]:
    """``src/repro`` files that mention ``perf_counter``."""
    package = SRC / "repro"
    return {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if "perf_counter" in path.read_text(encoding="utf-8")
    }


def test_wall_clock_reads_stay_in_their_files():
    extra = _clock_readers() - WALL_CLOCK_FILES
    assert not extra, (
        f"perf_counter read in {sorted(extra)}: time a phase with a "
        "telemetry span, or add the file to WALL_CLOCK_FILES with a reason"
    )


def test_the_clock_allowlist_names_only_readers():
    stale = WALL_CLOCK_FILES - _clock_readers()
    assert not stale, f"no clock read any more, drop: {sorted(stale)}"


def test_traced_components_take_no_registry():
    from repro.distributed.cluster import LocalCluster
    from repro.gnn.training import Trainer
    from repro.obs.trace import Tracer

    for component in (Trainer, Tracer, LocalCluster):
        params = inspect.signature(component).parameters
        assert "registry" not in params, component.__name__


#: Options no caller outside ``tests/`` set are constants or gone; these
#: are the parameters left, pinned so that none grows back.
PINNED_SIGNATURES = {
    "repro.obs.trace:Tracer": "clock max_traces slow_threshold_seconds",
    "repro.obs.trace:Tracer.to_chrome_trace": "self",
    "repro.obs.flight:FlightRecorder": "clock capacity",
    "repro.obs.telemetry:Telemetry": "tracer clock",
    "repro.distributed.client:GraphClient": (
        "servers partitioner network replica_groups retry degraded_reads"
    ),
    "repro.distributed.cluster:LocalCluster": (
        "num_servers config store_factory network replication_factor "
        "durable wal_dir fault_policy fault_seed retry degraded_reads tracer"
    ),
    "repro.distributed.cluster:LocalCluster.close": "self",
    # One byte layout (repro.core.memory constants): no accounting
    # method takes a layout or a width.
    "repro.core.types:GraphStoreAPI.nbytes": "self",
    "repro.core.topology:DynamicGraphStore.nbytes": "self",
    "repro.core.topology:DynamicGraphStore.nbytes_breakdown": "self",
    "repro.core.samtree:Samtree.nbytes": "self",
    "repro.core.samtree:Samtree.nbytes_breakdown": "self",
    "repro.core.slab:Slab.nbytes_parts": "self compress",
    "repro.core.fenwick:FSTable.nbytes": "self",
    "repro.core.cstable:CSTable.nbytes": "self",
    "repro.storage.cuckoo:CuckooHashMap.nbytes": "self",
    "repro.storage.kvstore:BlockKVStore": "value_nbytes",
    "repro.storage.kvstore:BlockKVStore.nbytes": "self",
    "repro.storage.attributes:AttributeStore": "",
    "repro.storage.attributes:AttributeStore.nbytes": "self",
    "repro.distributed.server:GraphServer.nbytes": "self",
    "repro.distributed.client:GraphClient.nbytes": "self",
    "repro.distributed.cluster:LocalCluster.shard_infos": "self",
    "repro.distributed.cluster:LocalCluster.total_nbytes": "self",
    "repro.baselines.platogl:PlatoGLStore": "block_size",
    "repro.baselines.platogl:PlatoGLStore.nbytes": "self",
    "repro.baselines.aligraph:AliGraphStore": "",
    "repro.baselines.aligraph:AliGraphStore.nbytes": "self",
    "repro.baselines.aligraph:AliGraphStore.peak_nbytes": "self",
    "repro.baselines.aligraph:AliasTable.nbytes": "self",
    "repro.baselines.static_csr:StaticCSRStore.nbytes": "self",
    "repro.obs.doctor:diagnose": "target",
    "repro.obs.doctor:diagnose_store": "store",
    "repro.obs.doctor:diagnose_cluster": "cluster",
    "repro.bench.workloads:full_scale_bytes": (
        "store data dataset_name use_peak"
    ),
    "repro.bench.workloads:build_store": (
        "store data batch_size memory_budget enforce_cluster_budget_for "
        "use_bulk"
    ),
    "repro.distributed.server:GraphServer": (
        "shard_id store config wal faults store_factory replica_index"
    ),
    "repro.serving.admission:CircuitBreaker": (
        "failure_threshold reset_timeout shard"
    ),
    "repro.distributed.retry:RetryPolicy": (
        "max_attempts base_backoff_seconds backoff_multiplier jitter "
        "deadline_seconds seed stats"
    ),
    "repro.distributed.cluster:LocalCluster.attach_monitor": (
        "self interval rules name_filter"
    ),
    "repro.distributed.cluster:LocalCluster.attach_recorder": "self recorder",
    "repro.obs.monitor:Monitor": "registry clock interval alerts name_filter",
    "repro.obs.monitor:Monitor.poll": "self",
    "repro.obs.monitor:TimeSeriesStore": "registry clock name_filter",
    "repro.obs.monitor:TimeSeriesStore.latest": "self key",
    "repro.obs.alerts:AlertManager.timeline": "self",
    "repro.obs.alerts:default_serving_rules": "",
    "repro.obs.replay:replay_bundle": "bundle_or_path",
    "repro.obs.incident:IncidentManager": "cluster out_dir cooldown",
    "repro.obs.report:render_report": "cluster tracer top_k",
    "repro.obs.doctor:DoctorReport.to_registry": "self",
    "repro.obs.report:render_span_tree": "span indent",
    "repro.core.snapshot:_Image.compact": "self",
    "repro.concurrency.palm:PalmExecutor": "store num_threads simulate",
    # One scalar write: an op code and a weight, never an add-onto flag.
    "repro.core.topology:DynamicGraphStore.write_op": (
        "self code src dst weight etype"
    ),
    "repro.core.slab:Slab.apply": "self row code dst weight",
    "repro.core.samtree:Samtree.insert": "self vertex_id weight",
    # One draw mode: every draw is weighted (an all-zero row draws
    # uniformly), so no layer takes a weighted / uniform flag.
    "repro.core.topology:DynamicGraphStore.sample_neighbors_many": (
        "self srcs k rng etype counts"
    ),
    "repro.distributed.server:GraphServer.sample_neighbors_many": (
        "self srcs k rng etype counts"
    ),
    "repro.distributed.client:GraphClient.sample_neighbors_many": (
        "self srcs k rng etype counts"
    ),
    "repro.core.slab:Slab.sample": "self row k rng",
    "repro.core.frozen:alias_cells": "uf deg slot",
    "repro.core.frozen:draw_alias": (
        "ids alias_prob alias_idx cell lo frac tf narrow chosen keep"
    ),
    "repro.core.snapshot:_Image.sample_matrix": "self srcs k gen",
}


@pytest.mark.parametrize("target", sorted(PINNED_SIGNATURES))
def test_removed_options_stay_removed(target):
    module, _, path = target.partition(":")
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name)
    params = " ".join(inspect.signature(obj).parameters)
    assert params == PINNED_SIGNATURES[target], target


def test_the_read_image_has_no_byte_budget():
    from repro.core import snapshot

    image = snapshot.ReadImage()
    assert not hasattr(snapshot, "DEFAULT_CAPACITY_BYTES")
    for name in ("capacity_bytes", "compact"):
        assert not hasattr(image, name), name


def _view_registrars() -> Set[str]:
    """``src/repro`` files with a ``register_view(...)`` call."""
    package = SRC / "repro"
    return {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register_view"
            for node in ast.walk(_parse(path))
        )
    }


def test_views_are_registered_only_in_their_files():
    extra = _view_registrars() - VIEW_FILES
    assert not extra, (
        f"register_view called in {sorted(extra)}: watch the *Stats "
        "holder (MetricsRegistry.watch), or add the file to VIEW_FILES "
        "with a reason"
    )


def test_the_view_allowlist_names_only_registrars():
    stale = VIEW_FILES - _view_registrars()
    assert not stale, f"no register_view call any more, drop: {sorted(stale)}"
