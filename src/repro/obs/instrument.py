"""Register the legacy ``*Stats`` holders into a shared registry.

The repo grew seven disconnected stat holders across three PRs —
``OpStats`` (samtree structural updates), ``ServerStats`` (per-shard
endpoints), ``NetworkStats`` (simulated traffic), ``RetryStats`` (client
backoff), ``FaultStats`` (injected chaos), ``IngestStats`` (columnar
writes), and ``SnapshotCacheStats`` (the read image).  Each keeps its
public fields and plain-attribute increments — the hot paths are
untouched — while this module registers **views** over those fields into
one :class:`~repro.obs.registry.MetricsRegistry`, so exporters, the
``repro obs`` report, and registry snapshot-diffs see every layer under
one naming scheme (``repro_<subsystem>_<field>``; DESIGN.md §11).

Everything here is duck-typed (``getattr`` probes, no imports from
``repro.distributed``), so the dependency arrow stays
``distributed → obs`` and never cycles back.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = [
    "live_view",
    "numeric_fields",
    "register_stats",
    "register_store",
    "register_server",
    "register_cluster",
    "store_holders",
]


def numeric_fields(obj) -> List[str]:
    """Public int/float fields of a stats holder (a dataclass's declared
    fields; any other object's instance attributes)."""
    if dataclasses.is_dataclass(obj):
        names: Iterable[str] = (f.name for f in dataclasses.fields(obj))
    else:
        names = vars(obj).keys()
    return [
        name
        for name in names
        if not name.startswith("_")
        and isinstance(getattr(obj, name, None), (int, float))
        and not isinstance(getattr(obj, name), bool)
    ]


def register_stats(
    registry: MetricsRegistry,
    prefix: str,
    obj,
    gauges: Tuple[str, ...] = (),
    fields: Optional[Iterable[str]] = None,
    **labels,
) -> List[str]:
    """Register one live view per numeric field of ``obj``.

    Field ``f`` becomes metric ``{prefix}_{f}`` (counter unless listed
    in ``gauges``); returns the registered metric names.
    """
    names: List[str] = []
    for field in fields if fields is not None else numeric_fields(obj):
        name = f"{prefix}_{field}"
        kind = "gauge" if field in gauges else "counter"
        registry.register_view(
            name,
            lambda o=obj, f=field: float(getattr(o, f)),
            help=f"{prefix.replace('_', ' ')}: {field}",
            kind=kind,
            **labels,
        )
        names.append(name)
    return names


# ---------------------------------------------------------------------------
# composite holders
# ---------------------------------------------------------------------------
def _resolve(root, path):
    """``root.<path...>``, or ``None`` as soon as a hop is missing."""
    for attr in path:
        root = getattr(root, attr, None)
    return root


def live_view(root, *path):
    """A view reading ``root.<path...>`` afresh on every collection
    (0.0 while any hop is ``None``), so an owner that swaps the object
    behind an attribute — ``GraphServer.recover`` its store, a new
    ``InferenceService`` the cluster's — stays visible."""

    def read() -> float:
        value = _resolve(root, path)
        return float(value) if value is not None else 0.0

    return read


#: A topology store's stat holders: ``(attribute path, metric prefix,
#: help prefix, derived gauges as (property, help))``.
_STORE_HOLDERS = (
    (
        ("stats",),
        "repro_samtree",
        "samtree structural updates",
        (("leaf_fraction",
          "Fraction of structural updates touching only leaves"),),
    ),
    (
        ("snapshot_cache", "stats"),
        "repro_snapshot_cache",
        "read image",
        (("hit_rate", "Read image row hit rate"),),
    ),
    (("ingest_stats",), "repro_ingest", "columnar ingest", ()),
    (("frozen_stats",), "repro_frozen", "frozen image relations", ()),
)


def store_holders(store) -> List[object]:
    """The stat holders ``store`` keeps (none for a crashed replica)."""
    holders = (_resolve(store, path) for path, *_ in _STORE_HOLDERS)
    return [holder for holder in holders if holder is not None]


def register_store(
    registry: MetricsRegistry, store, server=None, **labels
) -> None:
    """Register the holders a topology store keeps (``repro_samtree_*``
    + leaf fraction, ``repro_snapshot_cache_*`` + hit rate,
    ``repro_ingest_*``, ``repro_frozen_*``).  With ``server``, views
    resolve through ``server.store`` at read time, so crash/recover
    cycles (which swap the store) stay visible."""
    root = (store,) if server is None else (server, "store")
    for path, prefix, what, gauges in _STORE_HOLDERS:
        holder = _resolve(store, path)
        if holder is None or not numeric_fields(holder):
            continue
        for field in numeric_fields(holder):
            registry.register_view(
                f"{prefix}_{field}",
                live_view(*root, *path, field),
                help=f"{what}: {field}",
                **labels,
            )
        for prop, help_text in gauges:
            registry.register_view(
                f"{prefix}_{prop}",
                live_view(*root, *path, prop),
                help=help_text,
                kind="gauge",
                **labels,
            )


def register_server(registry: MetricsRegistry, server, **labels) -> None:
    """Register one graph server: ``ServerStats`` (``repro_server_*``),
    its WAL's append ledger, and its store's holders."""
    register_stats(registry, "repro_server", server.stats, **labels)
    wal = getattr(server, "wal", None)
    if wal is not None:
        register_stats(
            registry,
            "repro_wal",
            wal,
            fields=("records_appended", "bytes_appended"),
            **labels,
        )
    if server.store is not None:
        register_store(registry, server.store, server=server, **labels)


def register_cluster(registry: MetricsRegistry, cluster) -> None:
    """Register every holder of a :class:`LocalCluster`: network, fault,
    and retry stats once, plus per-replica server/store/WAL views
    labeled ``{shard, replica}``."""
    network = getattr(cluster, "network", None)
    if network is not None:
        register_stats(
            registry,
            "repro_network",
            network.stats,
            gauges=("last_send_seconds",),
        )
    injector = getattr(cluster, "fault_injector", None)
    if injector is not None:
        register_stats(registry, "repro_faults", injector.stats)
    retry = getattr(cluster, "retry", None)
    if retry is not None:
        register_stats(registry, "repro_retry", retry.stats)
    serving = getattr(getattr(cluster, "client", None), "serving_stats", None)
    if serving is not None:
        register_stats(registry, "repro_cache", serving)
        registry.register_view(
            "repro_cache_coalesce_rate",
            lambda s=serving: float(s.coalesce_rate),
            help="Fraction of batched sample sources served by coalescing",
            kind="gauge",
        )
    tracker = getattr(cluster, "hot_tracker", None)
    if tracker is not None:
        register_stats(registry, "repro_hotset", tracker.stats)
        registry.register_view(
            "repro_hotset_tracked",
            lambda t=tracker: float(len(t)),
            help="Sources currently tracked by the hot-set sketch",
            kind="gauge",
        )
    for shard, group in enumerate(cluster.replica_groups):
        for r, server in enumerate(group):
            register_server(
                registry, server, shard=str(shard), replica=str(r)
            )
