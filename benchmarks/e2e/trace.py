"""Outside-in tracer: spans at every layer boundary, no program edits.

``Tracing`` wraps the *public callables that exist at run time* in each
layer's module — the public methods of the classes the module defines
and its public functions — so a later change may rename or delete an
endpoint without editing the benchmark.  Each call records one span
(name, start, end, parent); spans stay in memory, in flat integer
columns, and are written out once, when the run ends.

A layer's self time is its spans' duration minus the part covered by
child spans.  The program runs on one thread, so spans nest strictly:
the parent of a span is whatever span is open when it starts, and the
operation a span belongs to is its root.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from importlib import import_module
from time import perf_counter_ns
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: The program's package; layer names are module paths below it.
PACKAGE = "repro"
#: Spans written to ``trace.json`` per workload; the in-memory columns
#: (and every figure derived from them) are never truncated.
MAX_SPANS_WRITTEN = 200_000


def _is_traceable(fn) -> bool:
    # A generator function returns before its body runs; a span around
    # the call would time nothing, so its work stays with the caller.
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


def _targets(module) -> Iterator[Tuple[object, str, object]]:
    """``(owner, attribute, member)`` of every public callable the module
    itself defines (re-exported names belong to their own layer)."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                fn = getattr(member, "__func__", member)
                if _is_traceable(fn):
                    yield obj, attr, member
        elif _is_traceable(obj) and obj.__module__ == module.__name__:
            yield module, name, obj


class Tracing:
    """Context manager: install the wrappers, record, restore.

    ``layers`` are module names under ``PACKAGE``; a layer whose module
    no longer imports is skipped (its share reads 0).
    """

    def __init__(self, layers: Sequence[str]) -> None:
        self.layers = list(layers)
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str, layer: int):
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        ids, starts, ends, parents = (
            self.name_id, self.start, self.end, self.parent
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def _rebind_everywhere(self, original, replacement) -> None:
        """A module function is also bound in every module that did
        ``from x import f``; swap those references too."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(PACKAGE):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracing":
        for layer_idx, layer in enumerate(self.layers):
            try:
                module = import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for owner, attr, member in _targets(module):
                if inspect.isclass(owner):
                    label = f"{layer}.{owner.__name__}.{attr}"
                    fn = getattr(member, "__func__", member)
                    traced = self._wrap(fn, label, layer_idx)
                    if isinstance(member, (staticmethod, classmethod)):
                        traced = type(member)(traced)
                    self._undo.append((owner, attr, member))
                    setattr(owner, attr, traced)
                else:
                    traced = self._wrap(member, f"{layer}.{attr}", layer_idx)
                    self._rebind_everywhere(member, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def self_times(
        self, windows: Iterable[Tuple[int, int]], excluded_ns: int = 0
    ) -> Tuple[Dict[str, Tuple[float, int]], float]:
        """Per-layer ``(self_share, calls)`` over the given measurement
        windows (``perf_counter_ns`` pairs), and the uncovered remainder
        as ``harness`` share.  ``excluded_ns`` of the windows was not
        measured work (the harness's calibration slices) and is left out
        of the total.  Shares sum to 1 by construction."""
        bounds = sorted(windows)
        total = float(sum(b - a for a, b in bounds)) - excluded_ns
        out = {layer: (0.0, 0) for layer in self.layers}
        if not bounds or total <= 0 or not len(self):
            return out, 1.0
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer_of = np.asarray(self.name_layer, dtype=np.int64)[
            np.frombuffer(self.name_id, dtype=np.int64)
        ]
        w_start = np.asarray([a for a, _ in bounds], dtype=np.int64)
        w_end = np.asarray([b for _, b in bounds], dtype=np.int64)
        slot = np.searchsorted(w_start, start, side="right") - 1
        inside = (slot >= 0) & (start < w_end[np.maximum(slot, 0)])
        duration = (end - start).astype(np.float64)
        has_parent = inside & (parent >= 0)
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=len(start),
        )
        own = duration - covered
        n_layers = len(self.layers)
        self_ns = np.bincount(
            layer_of[inside], weights=own[inside], minlength=n_layers
        )
        calls = np.bincount(layer_of[inside], minlength=n_layers)
        for i, layer in enumerate(self.layers):
            out[layer] = (float(self_ns[i] / total), int(calls[i]))
        return out, float(1.0 - self_ns.sum() / total)

    def to_json(self, workload: str) -> dict:
        """Columnar span dump; ``op`` is the index of the span's root."""
        n = min(len(self), MAX_SPANS_WRITTEN)
        start = np.frombuffer(self.start, dtype=np.int64)[:n]
        end = np.frombuffer(self.end, dtype=np.int64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        # Spans are indexed in start order, so a parent always precedes
        # its children and a truncated dump keeps every parent it names.
        roots = np.where(parent < 0, np.arange(n), -1)
        op = np.maximum.accumulate(roots) if n else roots
        origin = int(start[0]) if n else 0
        return {
            "workload": workload,
            "clock": "perf_counter_ns, relative to the first span",
            "names": self.names,
            "layers": self.layers,
            "spans_total": len(self),
            "spans_written": n,
            "spans": {
                "name": np.frombuffer(self.name_id, dtype=np.int64)[:n].tolist(),
                "start_ns": (start - origin).tolist(),
                "end_ns": (end - origin).tolist(),
                "parent": parent.tolist(),
                "op": op.tolist(),
            },
        }


def write_trace(path: str, traces: List[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"traces": traces}, fh, separators=(",", ":"))
