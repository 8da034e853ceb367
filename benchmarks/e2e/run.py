#!/usr/bin/env python3
"""End-to-end benchmark of the PlatoD2GL reproduction (see README.md).

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --trace 1             # per-layer pass
    python3 benchmarks/e2e/run.py --workload train_churn --seed 3 \
        --seconds 10 --trace 0                          # what the driver runs
    python3 benchmarks/e2e/run.py --smoke               # seconds, tiny graphs

One process, one thread.  Per workload it prints every metric by name
with its unit, a ``report:`` line with the full record, and last a JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero when a correctness check failed.
"""

from __future__ import annotations

import os

# Before numpy loads its BLAS: two cores here, and a second BLAS thread
# would fight the benchmark's own for them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import spec  # noqa: E402  (needs HERE on sys.path)


def _pin_malloc() -> None:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    Left alone they adapt to the sizes the program frees, and whether a
    training step's multi-megabyte temporaries are then recycled inside
    the heap or unmapped and faulted in again (≈2300 page faults a step)
    depends on what happens to sit at the top of the heap: the same
    pass was measured 15 % slower with 550k minor faults than with 80k,
    a coin toss per set-up.  Pinned, every run recycles.  A no-op where
    the C library has no ``mallopt``.
    """
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(m_mmap_threshold, 32 << 20)  # the largest glibc accepts
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_top_pad, 64 << 20)


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark, so each workload of a
    suite run reports its own peak (a no-op where /proc forbids it)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment(windows: int, smoke: bool) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "windows": windows,
        "window_scale": round(windows / spec.BASE_WINDOWS, 4),
        "smoke": smoke,
    }


def _untraced(wl, inp, shape, work_dir: str):
    """Full pass with tracing off: set up, measure, verify — then set up
    ``shape.setups - 1`` more times; ``setup_s`` is the median."""
    from calibrate import machine_speed
    from workloads import Outcome

    setup_s: List[float] = []
    setup_cal_s: List[float] = []
    setup_named: Dict[str, List[float]] = {}

    def timed_setup():
        gc.collect()
        # A set-up is one long program call, so the machine's speed is
        # sampled on both sides of it, not inside.
        speed = machine_speed()
        t0 = perf_counter()
        state = wl.setup(inp, shape, work_dir)
        setup_s.append(perf_counter() - t0)
        speed = (speed + machine_speed()) / 2
        setup_cal_s.append(setup_s[-1] * speed)
        for key, value in getattr(state, "setup_named", {}).items():
            setup_named.setdefault(key, []).append(value)
        return state

    # The measured pass runs on the first set-up, in a heap no earlier
    # set-up has fragmented: peak RSS then repeats to a fraction of a MiB.
    _reset_peak_rss()
    state = timed_setup()
    out = Outcome()
    try:
        wl.measure(state, inp, shape, out)
        # Read the peak before the reference model is built: it is the
        # harness's memory, not the program's.
        peak = _peak_rss_mb()
        wl.verify(state, inp, shape, out)
    finally:
        wl.teardown(state)
    state = None
    for _ in range(shape.setups - 1):
        wl.teardown(timed_setup())
    out.named["setup_s"] = (median(setup_s), len(setup_s))
    out.named["peak_rss_mb"] = (peak, 1)
    for key, values in setup_named.items():
        out.named[key] = (median(values), len(values))
    out.gated["setup_s"] = median(setup_cal_s)
    out.gated["peak_rss_mb"] = peak
    out.gated["bytes_per_edge"] = out.named["bytes_per_edge"][0]
    return out


def _traced(wl, inp, shape, work_dir: str, seed: int):
    """Per-layer pass: an untraced reference pass (counters, timings,
    ladder, sweep), then the same work again under the tracer."""
    from trace import Tracing
    from workloads import Outcome, derived_counters

    state = wl.setup(inp, shape, work_dir)
    ref = Outcome()
    try:
        wl.measure(state, inp, shape, ref)
        wl.verify(state, inp, shape, ref)
        ref_counters = derived_counters(ref, getattr(state, "final_loss", 0.0))
        extras = wl.extras(state, inp, shape, seed)
    finally:
        wl.teardown(state)
    state = None
    gc.collect()

    state = wl.setup(inp, shape, work_dir)
    traced = Outcome()
    tracer = Tracing(spec.LAYERS)
    try:
        with tracer:
            wl.measure(state, inp, shape, traced)
            wl.verify(state, inp, shape, traced)
        traced_counters = derived_counters(
            traced, getattr(state, "final_loss", 0.0)
        )
    finally:
        wl.teardown(state)
    ref.check(
        traced_counters == ref_counters,
        "the traced pass did not repeat the reference pass's counters",
    )
    shares, harness = tracer.self_times(
        traced.windows, int(traced.calibration_s * 1e9)
    )
    base = ref.gated["throughput_per_s"]
    under_trace = traced.gated["throughput_per_s"]

    values: Dict[str, Optional[float]] = {}
    for layer, (share, calls) in shares.items():
        values[f"{layer}.self_share"] = share
        values[f"{layer}.calls"] = float(calls)
    values["harness.self_share"] = harness
    values["trace_overhead_pct"] = 100.0 * (base - under_trace) / base
    values.update(ref_counters)
    # What this workload does not measure reads 0 (the ladder runs on
    # train_frozen, the sweep on serve_zipf).
    values.update({m.name: 0.0 for m in spec.TIMINGS + spec.LADDER})
    values.update(ref.timings)
    values.update(extras)
    ref.attempted += traced.attempted
    ref.failed += traced.failed
    ref.errors.extend(traced.errors)
    return ref, values, tracer.to_json(wl.name)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, work_dir: str) -> Tuple[dict, Optional[dict]]:
    """One workload, one pass; returns ``(report, trace_json)``."""
    from inputs import FULL, SMOKE
    from workloads import WORKLOADS

    shape = SMOKE if smoke else FULL
    windows = 2 if smoke else spec.windows_for(seconds)
    if trace:
        # Two passes share the run's time budget.
        windows = max(2, windows // 2)
    wl = WORKLOADS[name]
    inp = wl.inputs(seed, shape, windows)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": _environment(windows, smoke),
        "claim": None,
    }
    trace_json = None
    if trace:
        out, values, trace_json = _traced(wl, inp, shape, work_dir, seed)
        report["per_layer"] = {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in spec.per_layer()
        }
        # The result line carries numbers only: a missing rung reads 0
        # there (a rate of 0 cannot be a measurement) and null here.
        metrics = {
            k: {"value": v["value"] or 0.0, "unit": v["unit"]}
            for k, v in report["per_layer"].items()
        }
    else:
        out = _untraced(wl, inp, shape, work_dir)
        out.named["failed_share"] = (out.failed / max(out.attempted, 1), 1)
        report["named"] = {
            m.name: {
                "value": out.named[m.name][0],
                "unit": m.unit,
                "bound": m.bound,
                "samples": out.named[m.name][1],
            }
            for m, where in spec.NAMED
            if name in where
        }
        metrics = {
            m.name: {"value": out.gated[m.name], "unit": m.unit}
            for m in spec.END_TO_END
        }
        report["end_to_end"] = metrics
        report["env"]["machine_speed"] = round(median(out.speeds), 4)
    report["attempted"] = out.attempted
    report["failed"] = out.failed
    report["errors"] = out.errors
    report["result"] = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    return report, trace_json


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}"


def print_report(report: dict) -> None:
    env = report["env"]
    print(
        f"== {report['workload']}  seed={report['seed']} "
        f"windows={env['windows']} scale={env['window_scale']} "
        f"trace={report['trace']} =="
    )
    if report["trace"]:
        for name, m in report["per_layer"].items():
            print(f"  {name:<52} {_fmt(m['value']):>12} {m['unit']}")
    else:
        print("  raw wall clock:")
        for name, m in report["named"].items():
            print(
                f"    {name:<22} {_fmt(m['value']):>12} {m['unit']:<8} "
                f"n={m['samples']:<5} bound={m['bound']}"
            )
        print(
            f"  gated, at machine speed 1 (this run: "
            f"{env['machine_speed']}):"
        )
        raw_of = spec.ALIASES[report["workload"]]
        for name, m in report["end_to_end"].items():
            note = f"  [{raw_of[name]}]" if name in raw_of else ""
            print(f"    {name:<22} {_fmt(m['value']):>12} {m['unit']}{note}")
    verdict = "ok" if not report["failed"] else "FAILED"
    print(
        f"  checks: attempted={report['attempted']} "
        f"failed={report['failed']} {verdict}"
    )
    for why in report["errors"]:
        print(f"    ! {why}")
    print("report: " + json.dumps(
        {k: v for k, v in report.items() if k != "result"}
    ))
    print(json.dumps(report["result"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured seconds a run is sized for; sets the "
                             "window count, the work per window is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, 2 windows, finishes in seconds")
    parser.add_argument("--work-dir", default=str(HERE / "_work"),
                        help="where WAL files and trace.json go")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program is not at {SRC}/repro", file=sys.stderr)
        return 2
    os.makedirs(args.work_dir, exist_ok=True)
    _pin_malloc()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    traces = []
    failed = False
    for name in names:
        report, trace_json = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.smoke,
            args.work_dir,
        )
        if trace_json is not None:
            traces.append(trace_json)
        failed = failed or bool(report["failed"])
        print_report(report)
        sys.stdout.flush()
    if traces:
        from trace import write_trace

        write_trace(os.path.join(args.work_dir, "trace.json"), traces)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
