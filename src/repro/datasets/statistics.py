"""Dataset statistics: the paper's Table III, recomputed on generated data."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.datasets.presets import DATASET_SPECS

__all__ = ["published_table3_rows", "format_table3"]


def published_table3_rows() -> List[Dict[str, object]]:
    """The paper's Table III at full (published) size."""
    rows: List[Dict[str, object]] = []
    for dataset, specs in DATASET_SPECS.items():
        for spec in specs:
            rows.append(
                {
                    "dataset": dataset,
                    "relation": spec.name,
                    "num_src": spec.num_src,
                    "num_dst": spec.num_dst,
                    "num_edges": spec.num_edges,
                    "density": spec.density,
                }
            )
    return rows


def _fmt_count(n: int) -> str:
    """Render counts the way Table III does (K/M/B suffixes)."""
    if n >= 1_000_000_000:
        return f"{n / 1_000_000_000:.2f}B"
    if n >= 1_000_000:
        return f"{n / 1_000_000:.1f}M"
    if n >= 1_000:
        return f"{n / 1_000:.1f}K"
    return str(n)


def format_table3(rows: Sequence[Dict[str, object]]) -> str:
    """ASCII rendering of Table III-shaped rows."""
    header = (
        f"{'Dataset':<10} {'Relation (S-T)':<18} {'#S':>10} {'#T':>10} "
        f"{'#edges':>10} {'Density':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['dataset']:<10} {row['relation']:<18} "
            f"{_fmt_count(int(row['num_src'])):>10} "
            f"{_fmt_count(int(row['num_dst'])):>10} "
            f"{_fmt_count(int(row['num_edges'])):>10} "
            f"{float(row['density']):>9.2f}"
        )
    return "\n".join(lines)
