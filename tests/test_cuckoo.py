"""Tests for the concurrent cuckoo hashmap directory (paper §IV-B)."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.storage.cuckoo import CuckooHashMap


class TestBasics:
    def test_put_get(self):
        m = CuckooHashMap()
        m.put("a", 1)
        assert m.get("a") == 1
        assert m.get("b") is None
        assert m.get("b", 7) == 7
        assert len(m) == 1
        assert "a" in m and "b" not in m

    def test_overwrite(self):
        m = CuckooHashMap()
        m.put(1, "x")
        m.put(1, "y")
        assert m.get(1) == "y"
        assert len(m) == 1

    def test_delete(self):
        m = CuckooHashMap()
        m.put(1, "x")
        assert m.delete(1) is True
        assert m.delete(1) is False
        assert len(m) == 0
        assert m.get(1) is None

    def test_none_values_are_storable(self):
        m = CuckooHashMap()
        m.put("k", None)
        assert "k" in m
        assert m.get("k", "default") is None

    def test_tuple_keys(self):
        m = CuckooHashMap()
        m.put((0, 5), "tree")
        assert m.get((0, 5)) == "tree"
        assert m.get((1, 5)) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CuckooHashMap(initial_buckets=0)


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        m = CuckooHashMap(initial_buckets=1)
        for i in range(1000):
            m.put(i, i * 2)
        assert len(m) == 1000
        for i in range(1000):
            assert m.get(i) == i * 2

    def test_load_factor_reported(self):
        m = CuckooHashMap(initial_buckets=4)
        for i in range(10):
            m.put(i, i)
        assert 0.0 < m.load_factor <= 1.0

    def test_iteration(self):
        m = CuckooHashMap()
        for i in range(50):
            m.put(i, -i)
        assert sorted(m.keys()) == list(range(50))
        assert sorted(m) == list(range(50))
        assert dict(m.items()) == {i: -i for i in range(50)}
        assert sorted(m.values()) == sorted(-i for i in range(50))

    def test_nbytes_scales_with_buckets(self):
        small = CuckooHashMap(initial_buckets=4)
        big = CuckooHashMap(initial_buckets=4)
        for i in range(500):
            big.put(i, i)
        assert big.nbytes() > small.nbytes()


class TestConcurrency:
    def test_threaded_writers_disjoint_keys(self):
        m = CuckooHashMap()
        errors = []

        def writer(base):
            try:
                for i in range(300):
                    m.put((base, i), base * 1000 + i)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(m) == 8 * 300
        for t in range(8):
            for i in range(300):
                assert m.get((t, i)) == t * 1000 + i


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=100),
            st.integers(),
        ),
        max_size=300,
    )
)
@settings(max_examples=100, deadline=None)
def test_matches_dict_semantics(ops):
    m = CuckooHashMap(initial_buckets=1)
    ref = {}
    for kind, k, v in ops:
        if kind == "put":
            m.put(k, v)
            ref[k] = v
        else:
            assert m.delete(k) == (k in ref)
            ref.pop(k, None)
    assert len(m) == len(ref)
    assert dict(m.items()) == ref


# ---------------------------------------------------------------------------
# reserve: one rehash, same semantics, never a bigger table
# ---------------------------------------------------------------------------
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)


class CuckooMachine(RuleBasedStateMachine):
    """``CuckooHashMap`` against ``dict`` with ``reserve`` interleaved:
    presizing moves pairs between tables and must lose or invent none."""

    KEYS = st.tuples(st.integers(0, 1), st.integers(0, 400))

    def __init__(self):
        super().__init__()
        self.map = CuckooHashMap(initial_buckets=1)
        self.ref = {}

    @rule(key=KEYS, value=st.integers())
    def put(self, key, value):
        self.map.put(key, value)
        self.ref[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        assert self.map.delete(key) == (key in self.ref)
        self.ref.pop(key, None)

    @rule(n=st.integers(-5, 3000))
    def reserve(self, n):
        before = self.map._num_buckets
        self.map.reserve(n)
        buckets = self.map._num_buckets
        assert buckets >= before  # never shrinks
        assert buckets & (buckets - 1) == 0
        if buckets > before:  # grew: to the smallest table that fits n
            assert buckets * 4 >= n > buckets * 2

    @rule(key=KEYS)
    def get(self, key):
        assert self.map.get(key, "absent") == self.ref.get(key, "absent")
        assert (key in self.map) == (key in self.ref)

    @invariant()
    def same_pairs(self):
        assert len(self.map) == len(self.ref)
        assert dict(self.map.items()) == self.ref


CuckooMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestCuckooMachine = CuckooMachine.TestCase


class TestReserve:
    @pytest.mark.parametrize("n", [1_000, 5_000, 10_000])
    @pytest.mark.parametrize("shard", [0, 3])
    def test_never_more_buckets_than_one_by_one(self, n, shard):
        """On a shard's directory keys — ``(etype, src)`` with the
        sources a 4-way hash partition owns — presizing ends on the
        table growing by doubling ends on, or a smaller one."""
        keys = [(0, 4 * i + shard) for i in range(n)]
        grown = CuckooHashMap(initial_buckets=64)
        for key in keys:
            grown.put(key, None)
        reserved = CuckooHashMap(initial_buckets=64)
        reserved.reserve(len(keys))
        for key in keys:
            reserved.put(key, None)
        assert reserved._num_buckets <= grown._num_buckets
        assert len(reserved) == n and all(k in reserved for k in keys)

    def test_grows_once(self, monkeypatch):
        m = CuckooHashMap(initial_buckets=1)
        for i in range(3):
            m.put(i, i)
        rehashes = []
        rehash = m._rehash_locked
        monkeypatch.setattr(
            m, "_rehash_locked",
            lambda buckets: rehashes.append(buckets) or rehash(buckets),
        )
        m.reserve(1000)
        assert rehashes == [256]  # 256 * 4 slots is the first >= 1000
        m.reserve(1000)
        m.reserve(0)
        assert rehashes == [256]
        assert dict(m.items()) == {0: 0, 1: 1, 2: 2}

    def test_bulk_load_presizes_the_directory(self):
        import numpy as np

        from repro.core.topology import DynamicGraphStore

        src = np.repeat(np.arange(5_000) * 4, 2)
        dst = np.tile([1, 2], 5_000)
        loaded = DynamicGraphStore()
        loaded.bulk_load(src, dst)
        looped = DynamicGraphStore()
        for s, d in zip(src.tolist(), dst.tolist()):
            looped.add_edge(s, d)
        assert (
            loaded.directory._num_buckets == looped.directory._num_buckets
        )
