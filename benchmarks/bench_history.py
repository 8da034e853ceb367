"""Bench-history regression harness (DESIGN.md §12).

The ``BENCH_*.json`` files record *one* run each; a perf regression only
shows up against a remembered trajectory.  This module keeps that
trajectory in ``BENCH_HISTORY.jsonl`` — one JSON object per recorded
run — and gates new runs against it:

* :func:`extract_metrics` pulls the **gated** figures out of a bench
  payload (bulk-build edges/s and batched-update ops/s; the monitoring
  and flight-recorder ``"metrics"`` blocks) — all higher-is-better;
* :func:`record` appends a run (bench name, payload ``mode``, metrics,
  timestamp) to the history;
* :func:`compare` checks a fresh payload against the **best** prior run
  of the same bench *and mode* (smoke and full runs are never compared
  to each other) with a noise-aware tolerance: the greater of a fixed
  floor (default 15 %) and 3× the coefficient of variation observed
  across the recorded history, so a naturally-jittery metric does not
  flap the gate while a stable one stays tight;
* the first recorded run of a bench/mode establishes the baseline and
  always passes.

CLI (the CI ``bench-regression`` job)::

    python benchmarks/bench_history.py record  --bench bulk_ingest
    python benchmarks/bench_history.py compare --bench bulk_ingest

``compare`` exits 1 on regression and prints a per-metric table either
way.  ``--input`` defaults to ``BENCH_<bench>.json`` next to the
history file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

__all__ = [
    "DEFAULT_TOLERANCE",
    "compare",
    "extract_metrics",
    "load_history",
    "record",
]

#: Regression tolerance floor: a metric must drop more than 15 % below
#: the best recorded run (of the same mode) to fail the gate.
DEFAULT_TOLERANCE = 0.15

#: CV multiplier for the noise-aware widening of the tolerance.
_CV_FACTOR = 3.0

_HISTORY_DEFAULT = "BENCH_HISTORY.jsonl"


# ---------------------------------------------------------------------------
# metric extraction
# ---------------------------------------------------------------------------
def extract_metrics(bench: str, payload: Dict) -> Dict[str, float]:
    """Pull the gated (higher-is-better) throughput metrics of a bench.

    Unknown bench names raise ``KeyError`` so a typo in CI fails loudly
    instead of gating on an empty metric set.
    """
    if bench == "bulk_ingest":
        return {
            "bulk_edges_per_s": payload["build"]["compress_on"][
                "bulk_edges_per_s"
            ],
            "batched_update_ops_per_s": payload["update"][
                "batched_ops_per_s"
            ],
        }
    if bench in ("monitoring", "flight_recorder"):
        metrics = dict(payload["metrics"])
        if not metrics:
            raise KeyError(f"{bench} payload has no metrics")
        return {name: float(value) for name, value in metrics.items()}
    raise KeyError(
        f"no metric extractor for bench {bench!r}; known: "
        f"bulk_ingest, flight_recorder, monitoring"
    )


# ---------------------------------------------------------------------------
# history I/O
# ---------------------------------------------------------------------------
def load_history(path: str) -> List[Dict]:
    """Read every entry of a JSONL history (missing file -> [])."""
    if not os.path.exists(path):
        return []
    entries: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: corrupt history line: {exc}"
                ) from exc
    return entries


def record(
    path: str,
    bench: str,
    payload: Dict,
    timestamp: Optional[float] = None,
) -> Dict:
    """Append one run to the history; returns the appended entry."""
    entry = {
        "bench": bench,
        "mode": payload.get("mode", "full"),
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ",
            time.gmtime(timestamp if timestamp is not None else time.time()),
        ),
        "metrics": extract_metrics(bench, payload),
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def _tolerance_for(values: List[float], floor: float) -> float:
    """Noise-aware tolerance: ``max(floor, 3 * CV)`` over the history.

    With fewer than 3 recorded values the CV estimate is meaningless, so
    the floor alone applies.
    """
    if len(values) < 3:
        return floor
    mean = statistics.fmean(values)
    if mean <= 0:
        return floor
    cv = statistics.stdev(values) / mean
    return max(floor, _CV_FACTOR * cv)


def compare(
    bench: str,
    payload: Dict,
    history: List[Dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict]:
    """Gate a fresh payload against the recorded history.

    Returns one result dict per metric::

        {"metric", "current", "baseline", "ratio", "tolerance",
         "samples", "regressed"}

    ``baseline`` is the best prior value of the same bench **and
    mode**; ``regressed`` is true when
    ``current < baseline * (1 - tolerance_eff)``.  Metrics with no
    history (first run, or newly-added metric) report
    ``baseline=None`` and never regress.
    """
    mode = payload.get("mode", "full")
    current = extract_metrics(bench, payload)
    prior: Dict[str, List[float]] = {}
    for entry in history:
        if entry.get("bench") != bench or entry.get("mode", "full") != mode:
            continue
        for name, value in entry.get("metrics", {}).items():
            prior.setdefault(name, []).append(float(value))
    results: List[Dict] = []
    for name in sorted(current):
        value = float(current[name])
        values = prior.get(name, [])
        if not values:
            results.append(
                {
                    "metric": name,
                    "current": value,
                    "baseline": None,
                    "ratio": None,
                    "tolerance": tolerance,
                    "samples": 0,
                    "regressed": False,
                }
            )
            continue
        baseline = max(values)
        tol = _tolerance_for(values, tolerance)
        ratio = value / baseline if baseline else float("inf")
        results.append(
            {
                "metric": name,
                "current": value,
                "baseline": baseline,
                "ratio": ratio,
                "tolerance": tol,
                "samples": len(values),
                "regressed": value < baseline * (1.0 - tol),
            }
        )
    return results


def render_results(bench: str, mode: str, results: List[Dict]) -> str:
    lines = [f"bench-history gate: {bench} (mode={mode})"]
    for r in results:
        if r["baseline"] is None:
            lines.append(
                f"  {r['metric']:<28} {r['current']:>14,.0f}  "
                f"(no history — baseline established)"
            )
            continue
        verdict = "REGRESSED" if r["regressed"] else "ok"
        lines.append(
            f"  {r['metric']:<28} {r['current']:>14,.0f}  "
            f"best={r['baseline']:,.0f}  "
            f"ratio={r['ratio']:.3f}  "
            f"tol={r['tolerance']:.0%} (n={r['samples']})  {verdict}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _load_payload(args: argparse.Namespace) -> Dict:
    path = args.input or f"BENCH_{args.bench}.json"
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="record / gate bench runs against BENCH_HISTORY.jsonl"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("record", "append a bench payload to the history"),
        ("compare", "gate a bench payload against the recorded history"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument(
            "--bench",
            required=True,
            choices=["bulk_ingest", "flight_recorder", "monitoring"],
        )
        p.add_argument(
            "--input",
            default=None,
            help="bench payload path (default BENCH_<bench>.json)",
        )
        p.add_argument("--history", default=_HISTORY_DEFAULT)
    sub.choices["compare"].add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="regression tolerance floor (fraction, default 0.15)",
    )
    sub.choices["compare"].add_argument(
        "--record",
        action="store_true",
        help="append the payload to the history after a passing gate",
    )
    args = parser.parse_args(argv)

    payload = _load_payload(args)
    if args.command == "record":
        entry = record(args.history, args.bench, payload)
        print(
            f"recorded {args.bench} (mode={entry['mode']}) -> "
            f"{args.history}: "
            + ", ".join(
                f"{k}={v:,.0f}" for k, v in sorted(entry["metrics"].items())
            )
        )
        return 0

    history = load_history(args.history)
    results = compare(args.bench, payload, history, tolerance=args.tolerance)
    mode = payload.get("mode", "full")
    print(render_results(args.bench, mode, results))
    regressed = [r for r in results if r["regressed"]]
    if regressed:
        for r in regressed:
            print(
                f"FAIL {r['metric']}: {r['current']:,.0f} is "
                f"{1 - r['ratio']:.1%} below best {r['baseline']:,.0f} "
                f"(tolerance {r['tolerance']:.0%})",
                file=sys.stderr,
            )
        return 1
    if args.record:
        record(args.history, args.bench, payload)
        print(f"appended passing run to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
