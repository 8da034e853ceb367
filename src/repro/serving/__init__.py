"""Online inference tier: deadline-aware serving over the cluster.

The request-facing layer ROADMAP item 5 asks for — micro-batched
inference with admission control, per-shard circuit breakers, degraded
(stale-embedding) serving, and a seeded scenario harness with SLO
reporting.  See DESIGN.md §15.
"""

from repro.serving.admission import AdmissionGate, CircuitBreaker, TokenBucket
from repro.serving.degraded import DegradedAnswerCache
from repro.serving.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioRunner,
    ServingRig,
    build_serving_rig,
)
from repro.serving.service import Answer, InferenceService, Request, ServiceStats
from repro.serving.slo import SLOReport, build_report

__all__ = [
    "AdmissionGate",
    "Answer",
    "build_report",
    "build_serving_rig",
    "CircuitBreaker",
    "DegradedAnswerCache",
    "InferenceService",
    "Request",
    "Scenario",
    "ScenarioRunner",
    "SCENARIOS",
    "ServiceStats",
    "ServingRig",
    "SLOReport",
    "TokenBucket",
]
