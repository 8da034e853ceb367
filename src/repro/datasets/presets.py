"""Scaled instances of the paper's evaluation datasets (Table III).

The paper evaluates on OGBN [2], Reddit [13], and the production WeChat
graph (2.1 B nodes, 63.9 B edges across four relations).  None of those
fit a laptop-scale pure-Python run — and the WeChat data is proprietary —
so each preset generates a *scaled* instance that preserves what the
experiments actually depend on (see DESIGN.md):

* the relation structure (WeChat keeps its four relations, with the same
  source/target node types);
* the per-relation **density** (avg out-degree), which fixes samtree
  height, block counts and per-op costs;
* the power-law endpoint skew of real interaction graphs.

``scale`` divides the published node counts; edge counts follow from the
preserved density, so a preset at any scale reports the same "Density"
column as the paper's Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import power_law_edges
from repro.errors import ConfigurationError

__all__ = [
    "RelationSpec",
    "RelationData",
    "GraphData",
    "DATASET_SPECS",
    "ogbn_scaled",
    "reddit_scaled",
    "wechat_scaled",
    "load_dataset",
]


@dataclass(frozen=True)
class RelationSpec:
    """One relation of Table III at full (published) size."""

    name: str
    etype: int
    src_type: int
    dst_type: int
    num_src: int
    num_dst: int
    num_edges: int

    @property
    def density(self) -> float:
        """Average out-degree (the paper's Density column)."""
        return self.num_edges / self.num_src

    def scaled(self, scale: float, min_nodes: int = 64) -> "RelationSpec":
        """Shrink node counts by ``scale`` keeping the density fixed.

        The target pool is floored at several times the density so a
        scaled source can actually accumulate the published number of
        *distinct* neighbors — adjacency length (samtree height, CSTable
        length, block count) is what the experiments stress, and it must
        not collapse just because the node universe shrank.
        """
        if scale < 1:
            raise ConfigurationError(f"scale must be >= 1, got {scale}")
        num_src = max(min_nodes, int(self.num_src / scale))
        # The floor is kept low (2x density) so asymmetric relations
        # (User-Live: 78 users per live room) keep their hub-shaped
        # reverse direction after scaling.
        num_dst = max(
            min_nodes, int(self.num_dst / scale), int(2 * self.density)
        )
        num_edges = max(num_src, int(round(num_src * self.density)))
        return RelationSpec(
            self.name,
            self.etype,
            self.src_type,
            self.dst_type,
            num_src,
            num_dst,
            num_edges,
        )


@dataclass
class RelationData:
    """Generated edges of one relation."""

    spec: RelationSpec
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    def edge_tuples(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(src, dst, weight)`` (python ints/floats)."""
        for s, d, w in zip(self.src, self.dst, self.weight):
            yield int(s), int(d), float(w)


@dataclass
class GraphData:
    """A generated (possibly heterogeneous) dataset."""

    name: str
    relations: List[RelationData] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        return sum(r.num_edges for r in self.relations)

    def relation(self, name: str) -> RelationData:
        """Look a relation up by name."""
        for r in self.relations:
            if r.spec.name == name:
                return r
        raise ConfigurationError(
            f"dataset {self.name!r} has no relation {name!r}"
        )

    def edge_ops(self) -> Iterator[Tuple[int, int, float, int]]:
        """Iterate every edge as ``(src, dst, weight, etype)``."""
        for rel in self.relations:
            etype = rel.spec.etype
            for s, d, w in rel.edge_tuples():
                yield s, d, w, etype

    def forward_relations(self) -> List["RelationData"]:
        """Relations as listed in Table III (reversed twins excluded)."""
        return [r for r in self.relations if not r.spec.name.startswith("rev:")]

    def stats_rows(self, include_reverse: bool = False) -> List[Dict[str, object]]:
        """Rows in the shape of the paper's Table III."""
        relations = (
            self.relations if include_reverse else self.forward_relations()
        )
        return [
            {
                "dataset": self.name,
                "relation": r.spec.name,
                "num_src": r.spec.num_src,
                "num_dst": r.spec.num_dst,
                "num_edges": r.num_edges,
                "density": r.num_edges / r.spec.num_src,
            }
            for r in relations
        ]


# ---------------------------------------------------------------------------
# Published (full-size) dataset specs — the paper's Table III verbatim.
# Node types: 0 generic / product / post; 1 community; for WeChat:
# 0 user, 1 live-room, 2 attribute, 3 tag.
# ---------------------------------------------------------------------------
DATASET_SPECS: Dict[str, List[RelationSpec]] = {
    "OGBN": [
        RelationSpec(
            "Product-Product", 0, 0, 0, 2_400_000, 2_400_000, 61_900_000
        ),
    ],
    "Reddit": [
        RelationSpec(
            "Post-Community", 0, 0, 1, 233_000, 233_000, 114_000_000
        ),
    ],
    "WeChat": [
        # User-Live targets the 13.1M live rooms (the paper's node census:
        # 1.02B users + 0.97B attr nodes + ~13-15M lives/tags ≈ 2.1B).
        # Reversed (the datasets are bi-directed), each live room carries
        # a hub adjacency of ~4.8K distinct users — the production regime
        # the dynamic-update experiments stress.
        RelationSpec(
            "User-Live", 0, 0, 1, 1_020_000_000, 13_100_000, 63_300_000_000
        ),
        RelationSpec(
            "User-Attr", 1, 0, 2, 970_000_000, 970_000_000, 1_900_000_000
        ),
        RelationSpec("Live-Live", 2, 1, 1, 13_100_000, 13_100_000, 650_000_000),
        RelationSpec("Live-Tag", 3, 1, 3, 15_100_000, 15_100_000, 30_100_000),
    ],
}

#: Edge-type offset of a relation's reversed twin (bi-directed storage).
REVERSE_ETYPE_OFFSET = 8


def _generate(
    name: str,
    scale: float,
    seed: int,
    min_nodes: int,
    bidirected: bool,
) -> GraphData:
    specs = DATASET_SPECS.get(name)
    if specs is None:
        raise ConfigurationError(
            f"unknown dataset {name!r}; known: {sorted(DATASET_SPECS)}"
        )
    rng = np.random.default_rng(seed)
    data = GraphData(name=name)
    for spec in specs:
        scaled = spec.scaled(scale, min_nodes)
        src, dst, weight = power_law_edges(
            scaled.num_src,
            scaled.num_dst,
            scaled.num_edges,
            rng,
            src_type=scaled.src_type,
            dst_type=scaled.dst_type,
        )
        data.relations.append(RelationData(scaled, src, dst, weight))
        if bidirected:
            # "Note that all the datasets in our experiments are
            # bi-directed" (paper §VII-A): store the reversed edges as a
            # twin relation.  Reversal flips the shape — a relation with
            # many sources and few hot targets (User-Live) becomes one
            # with few hub sources and very long adjacencies.
            rev_spec = RelationSpec(
                f"rev:{scaled.name}",
                scaled.etype + REVERSE_ETYPE_OFFSET,
                scaled.dst_type,
                scaled.src_type,
                scaled.num_dst,
                scaled.num_src,
                scaled.num_edges,
            )
            data.relations.append(RelationData(rev_spec, dst, src, weight))
    return data


def ogbn_scaled(
    scale: float = 1000.0, seed: int = 7, bidirected: bool = True
) -> GraphData:
    """OGBN Product-Product at ``1/scale`` of the published node count
    (density 25.8 preserved)."""
    return _generate("OGBN", scale, seed, min_nodes=64, bidirected=bidirected)


def reddit_scaled(
    scale: float = 1000.0, seed: int = 7, bidirected: bool = True
) -> GraphData:
    """Reddit Post-Community at ``1/scale`` (density 489.3 preserved —
    the high-density extreme of Table III)."""
    return _generate(
        "Reddit", scale, seed, min_nodes=64, bidirected=bidirected
    )


def wechat_scaled(
    scale: float = 1_000_000.0, seed: int = 7, bidirected: bool = True
) -> GraphData:
    """The four-relation WeChat production graph at ``1/scale``.

    Keeps User-Live as the dominant relation (density 62) alongside the
    sparse User-Attr / Live-Tag relations, as in Table III; bi-directed
    storage adds the reversed twins, including the hub-shaped
    rev:User-Live relation (~4.8K distinct users per live room at full
    scale).
    """
    return _generate(
        "WeChat", scale, seed, min_nodes=64, bidirected=bidirected
    )


_LOADERS = {
    "OGBN": ogbn_scaled,
    "Reddit": reddit_scaled,
    "WeChat": wechat_scaled,
}


def load_dataset(
    name: str, scale: Optional[float] = None, seed: int = 7
) -> GraphData:
    """Load a preset by name with its default (or a custom) scale."""
    loader = _LOADERS.get(name)
    if loader is None:
        raise ConfigurationError(
            f"unknown dataset {name!r}; known: {sorted(_LOADERS)}"
        )
    if scale is None:
        return loader(seed=seed)
    return loader(scale=scale, seed=seed)
