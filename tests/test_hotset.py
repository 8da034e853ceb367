"""Tests for the SpaceSaving hot-set tracker and replica directory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import zipf_probabilities
from repro.distributed.hotset import (
    HotReplicaDirectory,
    HotSetTracker,
)
from repro.errors import ConfigurationError


def _check_invariants(tracker: HotSetTracker) -> None:
    """The count-bucket index must exactly mirror the entry table."""
    seen = set()
    for count, bucket in tracker._buckets.items():
        assert bucket, "empty bucket left behind"
        for src in bucket:
            assert tracker._entries[src].count == count
            seen.add(src)
    assert seen == set(tracker._entries)
    if tracker._entries:
        true_min = min(e.count for e in tracker._entries.values())
        assert tracker._min_count == true_min


class TestTracker:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HotSetTracker(capacity=0)
        with pytest.raises(ConfigurationError):
            HotSetTracker(decay_interval=0)
        tracker = HotSetTracker(capacity=4)
        with pytest.raises(ConfigurationError):
            tracker.top(-1)

    def test_counts_exact_under_capacity(self):
        tracker = HotSetTracker(capacity=16)
        for src, n in ((1, 5), (2, 3), (3, 1)):
            for _ in range(n):
                tracker.observe(src)
        assert tracker.count(1) == 5
        assert tracker.count(2) == 3
        assert tracker.count(99) == 0
        assert [e.src for e in tracker.top(2)] == [1, 2]
        assert len(tracker) == 3
        _check_invariants(tracker)

    def test_spacesaving_guarantee_tracks_heavy_hitters(self):
        # Any key with true frequency > N/capacity must be tracked, no
        # matter how adversarial the tail churn is.
        tracker = HotSetTracker(capacity=32)
        rng = np.random.default_rng(7)
        heavy = {10_001: 400, 10_002: 250, 10_003: 150}
        stream = []
        for src, n in heavy.items():
            stream += [src] * n
        stream += [int(s) for s in rng.integers(0, 5000, 800)]
        rng.shuffle(stream)  # type: ignore[arg-type]
        for src in stream:
            tracker.observe(src)
        tracked = {e.src for e in tracker.top(32)}
        for src, n in heavy.items():
            assert src in tracked
            # SpaceSaving may overestimate, never underestimate.
            assert tracker.count(src) >= n
        _check_invariants(tracker)

    def test_replacement_inherits_min_count(self):
        tracker = HotSetTracker(capacity=2)
        tracker.observe(1, 10)
        tracker.observe(2, 4)
        tracker.observe(3)  # replaces src=2 (the minimum)
        assert 2 not in tracker
        entry = [e for e in tracker.top(2) if e.src == 3][0]
        assert entry.count == 5
        assert entry.error == 4
        assert tracker.stats.replacements == 1
        _check_invariants(tracker)

    def test_decay_halves_and_drops(self):
        tracker = HotSetTracker(capacity=8, decay_interval=10)
        tracker.observe(1, 8)
        tracker.observe(2, 1)
        tracker.observe(3, 1)  # hits the interval -> decay
        assert tracker.stats.decays == 1
        assert tracker.count(1) == 4
        # Sources decayed to zero leave the table entirely.
        assert 2 not in tracker
        assert 3 not in tracker
        _check_invariants(tracker)

    def test_observe_counts_and_clear(self):
        tracker = HotSetTracker(capacity=8)
        tracker.observe_counts([(5, 3), (6, 2)])
        assert tracker.count(5) == 3
        tracker.clear()
        assert len(tracker) == 0
        assert tracker.count(5) == 0
        tracker.observe(9)
        assert tracker.count(9) == 1
        _check_invariants(tracker)

    def test_bucket_invariants_fuzz(self):
        # Mixed replacement/decay churn over a zipf stream: the O(1)
        # bucket index must stay consistent with the entry table at
        # every step boundary.
        tracker = HotSetTracker(capacity=24, decay_interval=500)
        rng = np.random.default_rng(3)
        universe = 2000
        p = zipf_probabilities(universe, 1.1)
        for round_ in range(40):
            for src in rng.choice(universe, size=100, p=p):
                tracker.observe(int(src), int(rng.integers(1, 4)))
            _check_invariants(tracker)
        assert tracker.stats.replacements > 0
        assert tracker.stats.decays > 0


class TestDirectory:
    def test_round_robin_rotation(self):
        directory = HotReplicaDirectory()
        directory.set_replicas(7, [2, 0, 3])
        assert [directory.route(7) for _ in range(6)] == [2, 0, 3, 2, 0, 3]
        assert directory.route(8) is None

    def test_set_replicas_validation(self):
        directory = HotReplicaDirectory()
        with pytest.raises(ConfigurationError):
            directory.set_replicas(7, [])
        with pytest.raises(ConfigurationError):
            directory.set_replicas(7, [1, 1])

    def test_extras_excludes_primary(self):
        directory = HotReplicaDirectory()
        directory.set_replicas(7, [2, 0, 3])
        assert directory.extras(7, primary=2) == [0, 3]
        assert directory.extras(99, primary=0) == []

    def test_drop_shard_then_empty(self):
        directory = HotReplicaDirectory()
        directory.set_replicas(7, [2, 0])
        directory.drop_shard(7, 0)
        assert directory.shards(7) == [2]
        directory.drop_shard(7, 2)
        assert 7 not in directory
        assert directory.route(7) is None

    def test_drop(self):
        directory = HotReplicaDirectory()
        directory.set_replicas(1, [0, 1])
        assert directory.drop(1)
        assert not directory.drop(1)
        assert len(directory) == 0
        assert not directory
