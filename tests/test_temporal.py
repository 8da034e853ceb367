"""Tests for the sliding-window temporal store (paper §II-A's G^(t))."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samtree import SamtreeConfig
from repro.core.temporal import TemporalGraphStore
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, ReproError


@pytest.fixture
def temporal() -> TemporalGraphStore:
    return TemporalGraphStore(window=10, config=SamtreeConfig(capacity=8))


class TestClock:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TemporalGraphStore(window=0)

    def test_monotone_clock(self, temporal):
        temporal.observe(5, 1, 2)
        with pytest.raises(ConfigurationError):
            temporal.observe(4, 1, 3)
        with pytest.raises(ConfigurationError):
            temporal.advance(1)
        assert temporal.now == 5

    @pytest.mark.parametrize(
        "src, dst, weight, etype",
        [(1, 3, float("nan"), 0), (1, 3, -1.0, 0), (-1, 3, 1.0, 0),
         (1, -3, 1.0, 0), (1, 3, 1.0, 1 << 20)],
    )
    def test_refused_observation_changes_nothing(self, src, dst, weight, etype):
        temporal = TemporalGraphStore(window=5)
        temporal.observe(1, 1, 2, 1.0)
        with pytest.raises(ReproError):
            temporal.observe(100, src, dst, weight, etype)
        assert temporal.now == 1 and temporal.num_evicted == 0
        assert temporal.edge_weight(1, 2) == 1.0
        temporal.check_invariants()

    def test_advance_returns_eviction_count(self, temporal):
        temporal.observe(0, 1, 2)
        temporal.observe(0, 1, 3)
        assert temporal.advance(9) == 0
        assert temporal.advance(10) == 2
        assert temporal.num_evicted == 2


class TestWindowSemantics:
    def test_edges_expire_after_window(self, temporal):
        temporal.observe(0, 1, 2, 1.0)
        temporal.advance(9)
        assert temporal.edge_weight(1, 2) is not None
        temporal.advance(10)
        assert temporal.edge_weight(1, 2) is None
        assert temporal.num_edges == 0
        assert temporal.num_sources == 0

    def test_reobservation_refreshes(self, temporal):
        temporal.observe(0, 1, 2, 1.0)
        temporal.observe(8, 1, 2, 1.0)  # refresh
        temporal.advance(12)             # 0+10 passed, 8+10 has not
        assert temporal.edge_weight(1, 2) is not None
        temporal.advance(18)
        assert temporal.edge_weight(1, 2) is None

    def test_accumulation(self, temporal):
        assert temporal.observe(0, 1, 2, 1.0) is True
        assert temporal.observe(3, 1, 2, 2.5) is False
        assert temporal.edge_weight(1, 2) == pytest.approx(3.5)

    def test_replace_mode(self):
        store = TemporalGraphStore(window=10, accumulate=False)
        store.observe(0, 1, 2, 1.0)
        store.observe(1, 1, 2, 2.5)
        assert store.edge_weight(1, 2) == pytest.approx(2.5)

    def test_staggered_expiry(self, temporal):
        for t in range(5):
            temporal.observe(t, 1, 100 + t, 1.0)
        assert temporal.degree(1) == 5
        temporal.advance(12)  # t=0,1,2 expired; t=3,4 alive
        assert temporal.degree(1) == 2
        assert sorted(d for d, _ in temporal.neighbors(1)) == [103, 104]
        temporal.check_invariants()

    def test_sampling_sees_only_live_edges(self, temporal, rng):
        temporal.observe(0, 1, 2, 100.0)
        temporal.observe(9, 1, 3, 1.0)
        temporal.advance(11)
        out = temporal.sample_neighbors(1, 50, rng)
        assert set(out) == {3}

    def test_manual_remove(self, temporal):
        temporal.observe(0, 1, 2)
        assert temporal.remove_edge(1, 2) is True
        assert temporal.remove_edge(1, 2) is False
        temporal.advance(20)  # stale calendar entry must be a no-op
        temporal.check_invariants()

    def test_update_edge_refreshes_window(self, temporal):
        temporal.observe(0, 1, 2, 1.0)
        temporal.advance(5)
        assert temporal.update_edge(1, 2, 7.0) is True
        temporal.advance(12)  # original deadline passed, refreshed at 5
        assert temporal.edge_weight(1, 2) == pytest.approx(7.0)
        assert temporal.update_edge(1, 9, 1.0) is False

    def test_heterogeneous_windows(self, temporal):
        temporal.observe(0, 1, 2, 1.0, etype=0)
        temporal.observe(5, 1, 2, 1.0, etype=1)
        temporal.advance(10)
        assert temporal.edge_weight(1, 2, etype=0) is None
        assert temporal.edge_weight(1, 2, etype=1) is not None

    def test_wraps_existing_store(self):
        inner = DynamicGraphStore(SamtreeConfig(capacity=8))
        temporal = TemporalGraphStore(window=5, store=inner)
        temporal.observe(0, 1, 2, 1.0)
        assert inner.num_edges == 1
        temporal.advance(5)
        assert inner.num_edges == 0

    def test_add_edge_uses_current_clock(self, temporal):
        temporal.advance(7)
        temporal.add_edge(1, 2, 1.0)
        temporal.advance(16)
        assert temporal.edge_weight(1, 2) is not None
        temporal.advance(17)
        assert temporal.edge_weight(1, 2) is None

    def test_nbytes_includes_metadata(self, temporal):
        empty = temporal.nbytes()
        temporal.observe(0, 1, 2)
        assert temporal.nbytes() > empty


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),   # time delta
            st.integers(min_value=0, max_value=5),    # src
            st.integers(min_value=0, max_value=20),   # dst
        ),
        min_size=1,
        max_size=150,
    ),
    st.integers(min_value=1, max_value=15),
)
@settings(max_examples=100, deadline=None)
def test_window_matches_reference(events, window):
    """The live edge set always equals the brute-force window filter."""
    temporal = TemporalGraphStore(window=window, config=SamtreeConfig(capacity=4))
    last_seen = {}
    now = 0
    for delta, src, dst in events:
        now += delta
        temporal.observe(now, src, dst, 1.0)
        last_seen[(src, dst)] = now
    expected = {
        key for key, t in last_seen.items() if t + window > now
    }
    live = {
        (src, dst)
        for src in temporal.sources()
        for dst, _ in temporal.neighbors(src)
    }
    assert live == expected
    temporal.check_invariants()
    # Advancing far beyond every deadline drains the graph.
    temporal.advance(now + window + 1)
    assert temporal.num_edges == 0
