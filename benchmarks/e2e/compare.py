#!/usr/bin/env python3
"""Repeatability of the benchmark: N runs per workload, spread per metric.

    python3 benchmarks/e2e/compare.py --repeat 10
    python3 benchmarks/e2e/compare.py --repeat 10 --workload serve_zipf

Runs ``run.py`` once per (workload, seed) in a fresh process — seeds
``--first-seed`` .. ``--first-seed + N - 1``, as the driver does — and
prints, for every end-to-end metric, the median, the quartiles, the
interquartile spread as a share of the median (what the driver gates)
and the full range — the gated (calibrated) figures first, then the raw
wall-clock ones they come from.  Exits non-zero when a gated spread
exceeds its bound (``setup_s`` excepted: the driver gates only its
median), when a run fails a check, or when two runs of one seed disagree
on an exact figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Gated by the driver on its median only.
_SPREAD_EXEMPT = ("setup_s",)


def run_once(workload: str, seed: int, seconds: float, trace: int,
             smoke: bool) -> dict:
    """One ``run.py`` process; returns its ``report:`` record plus the
    result line and the wall seconds the whole process took."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    record = {"result": json.loads(lines[-1]), "wall_s": wall,
              "exit": proc.returncode}
    for line in lines:
        if line.startswith("report: "):
            record.update(json.loads(line[len("report: "):]))
    return record


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / mid if mid else 0.0,
        "range_share": (max(values) - min(values)) / mid if mid else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=10)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat needs at least 2 runs")
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    bad: List[str] = []
    for name in names:
        runs = [
            run_once(name, args.first_seed + i, args.seconds, 0, args.smoke)
            for i in range(args.repeat)
        ]
        walls = [r["wall_s"] for r in runs]
        print(f"== {name}: {len(runs)} runs, "
              f"process wall {min(walls):.1f}-{max(walls):.1f} s ==")
        for r in runs:
            if r["exit"] or not r["result"]["correct"]:
                bad.append(f"{name} seed {r['seed']}: failed checks "
                           f"{r.get('errors')}")
        gated = {m.name: m for m in spec.END_TO_END}
        named = {m.name: m for m, where in spec.NAMED if name in where}
        for metric in list(gated.values()) + [
            m for m in named.values() if m.name not in gated
        ]:
            s = spread([
                (r["result"]["metrics"] if metric.name in gated
                 else r["named"])[metric.name]["value"]
                for r in runs
            ])
            over = (
                metric.name not in _SPREAD_EXEMPT
                and s["iqr_share"] > (metric.bound or 0.0)
            )
            tag = "gated" if metric.name in gated else "raw  "
            print(
                f"  {metric.name:<22} {tag}  median={s['median']:<12.6g} "
                f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
                f"iqr/median={s['iqr_share']:.4f} "
                f"range/median={s['range_share']:.4f} "
                f"bound={metric.bound}{'  OVER' if over else ''}"
            )
            # Raw wall-clock figures follow the machine's mood (README);
            # they are shown for comparison and fail nothing.
            if over and metric.name in gated:
                bad.append(f"{name}.{metric.name}: spread "
                           f"{s['iqr_share']:.4f} > bound {metric.bound}")
        # Exact figures repeat exactly for a seed: run the first seed
        # again and compare.
        again = run_once(name, args.first_seed, args.seconds, 0, args.smoke)
        for key in ("bytes_per_edge", "failed_share"):
            a = runs[0]["named"][key]["value"]
            b = again["named"][key]["value"]
            if a != b:
                bad.append(f"{name}.{key}: {a} then {b} on one seed")
        sys.stdout.flush()
    for why in bad:
        print(f"FAIL {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
