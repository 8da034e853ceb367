"""Shared fixtures for the PlatoD2GL reproduction test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.types import DEFAULT_ETYPE


@pytest.fixture
def rng() -> random.Random:
    """Deterministic stdlib RNG."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def nprng() -> np.random.Generator:
    """Deterministic NumPy RNG."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_config() -> SamtreeConfig:
    """A tiny samtree capacity so tests exercise splits and merges."""
    return SamtreeConfig(capacity=8, alpha=0, compress=True)


def stores_equal(a, b) -> bool:
    """Whether two stores (any backend mix) hold the same graph: their
    ``(etype, src, dst) -> weight`` maps compare ``==`` — weights are
    stored exactly, so no tolerance."""

    def edges(store):
        etypes = getattr(store, "etypes", lambda: [DEFAULT_ETYPE])()
        return {
            (etype, src, dst): weight
            for etype in etypes
            for src in store.sources(etype)
            for dst, weight in store.neighbors(src, etype)
        }

    return edges(a) == edges(b)
