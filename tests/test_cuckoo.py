"""Tests for the concurrent cuckoo hashmap directory (paper §IV-B)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.storage.cuckoo import PROBE_LOOP_BELOW, CuckooHashMap, _second_bucket


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


#: ``hash((0, s)) == hash((0, s + M61))`` for ``s >= 0``, as
#: ``hash(-1) == hash(-2)``: keys that share a hash column entry.
M61 = 2**61 - 1
KEYS = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 400)),
    st.integers(0, 400).map(lambda s: (0, s + M61)),
    st.sampled_from([-1, -2]),
)


class CuckooMachine(RuleBasedStateMachine):
    """``CuckooHashMap`` against ``dict`` with ``reserve`` interleaved:
    presizing moves pairs between tables and must lose or invent none;
    ``get_many`` answers as the scalar ``get`` over keys that share
    hashes, on both sides of ``PROBE_LOOP_BELOW``."""

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

    @rule(
        data=st.data(),
        n=st.sampled_from([0, 1, 4, PROBE_LOOP_BELOW - 1, PROBE_LOOP_BELOW, 90]),
    )
    def get_many(self, data, n):
        stored = sorted(self.ref, key=repr)
        pool = st.one_of(KEYS, st.sampled_from(stored)) if stored else KEYS
        keys = data.draw(st.lists(pool, min_size=n, max_size=n))
        assert self.map.get_many(keys) == [self.ref.get(k) for k in keys]

    @invariant()
    def same_pairs(self):
        assert len(self.map) == len(self.ref)
        assert dict(self.map.items()) == self.ref

    @invariant()
    def hash_column_mirrors_the_slots(self):
        m = self.map
        assert m._hashes.tolist() == [
            -1 if pair is None else hash(pair[0]) for pair in m._slots
        ]
        assert m._moves % 2 == 0  # no pair in flight between calls


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


# ---------------------------------------------------------------------------
# the batched probe: bucket math, placement
# ---------------------------------------------------------------------------
@given(
    hashes=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40),
    log_buckets=st.integers(0, 34),
)
@settings(max_examples=200, deadline=None)
def test_numpy_bucket_pair_is_buckets_for(hashes, log_buckets):
    m = CuckooHashMap()
    m._num_buckets = 1 << log_buckets  # the bucket math reads nothing else
    mask = m._num_buckets - 1
    h = np.asarray(hashes, dtype=np.int64)
    pairs = list(zip((h & mask).tolist(), _second_bucket(h, mask).tolist()))
    assert pairs == [m._buckets_for(x) for x in hashes]


@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "delete", "get_many"]), KEYS),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_get_many_leaves_placement_alone(ops):
    """The same puts and deletes, with and without batched probes in
    between, leave the same slots (and so the same ``items()`` order)."""
    plain = CuckooHashMap(initial_buckets=1)
    probed = CuckooHashMap(initial_buckets=1)
    for kind, key in ops:
        if kind == "put":
            plain.put(key, 1)
            probed.put(key, 1)
        elif kind == "delete":
            plain.delete(key)
            probed.delete(key)
        else:
            probed.get_many([key] * PROBE_LOOP_BELOW + list(probed.keys()))
    assert probed._slots == plain._slots
    assert np.array_equal(probed._hashes, plain._hashes)


def test_placement_is_the_pre_hash_column_one():
    """Slot order pinned from before the hash column existed: the column
    changes no bucket choice, eviction or rehash order."""
    m = CuckooHashMap(initial_buckets=2)
    for i in range(40):
        m.put((i % 2, 7 * i), i)
    for i in range(0, 40, 3):
        m.delete((i % 2, 7 * i))
    m.reserve(100)
    for i in range(40, 60):
        m.put((i % 2, 7 * i), i)
    assert m._num_buckets == 32
    assert list(m.values()) == [
        49, 58, 46, 43, 52, 31, 40, 28, 37, 53, 25, 34, 50, 13, 22, 59,
        47, 56, 19, 35, 44, 16, 7, 4, 41, 57, 29, 38, 26, 10, 1, 51, 23,
        32, 48, 11, 20, 45, 54, 17, 42, 14, 5, 2, 55, 8,
    ]


# ---------------------------------------------------------------------------
# a probe racing a displacement or a rehash (threads sequenced by events,
# every wait bounded: a deadlock fails the test instead of hanging it)
# ---------------------------------------------------------------------------
WAIT_S = 10.0


def _pause_while_in_flight(m, acknowledged, paused, resume, flight):
    """Make the writer stop, once, at the first placement attempt that
    finds a key of ``acknowledged`` in no slot — a displaced pair held
    between slots, or a rehash refilling a fresh table — and record
    that key in ``flight``."""
    free_slot = m._free_slot

    def hook(bucket):
        if not paused.is_set():
            present = {pair[0] for pair in m._slots if pair is not None}
            gone = [key for key in acknowledged if key not in present]
            if gone:
                flight.append(gone[0])
                paused.set()
                resume.wait(WAIT_S)
        return free_slot(bucket)

    m._free_slot = hook


def _start(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


@pytest.mark.parametrize("window", ["eviction", "rehash"])
def test_a_probe_never_reports_an_acknowledged_key_absent(window):
    m = CuckooHashMap(initial_buckets=64)
    acknowledged = [(0, 3 * i) for i in range(200)]
    for key in acknowledged:
        m.put(key, ("value", key))
    buckets = m._num_buckets
    paused, resume, flight = threading.Event(), threading.Event(), []
    _pause_while_in_flight(m, acknowledged, paused, resume, flight)

    def write():
        if window == "rehash":
            m.reserve(4 * len(m._slots))
        else:  # fresh keys until one displaces an acknowledged pair
            for i in range(200):
                m.put((1, i), None)

    writer = _start(write)
    assert paused.wait(WAIT_S), "the writer never moved an acknowledged pair"
    assert (m._num_buckets == buckets) == (window == "eviction")
    key = flight[0]
    others = acknowledged[:PROBE_LOOP_BELOW]
    answers = {}
    readers = [
        _start(lambda: answers.__setitem__("get", m.get(key, "absent"))),
        _start(lambda: answers.__setitem__(
            "get_many", m.get_many(others + [key])
        )),
        _start(lambda: answers.__setitem__("in", key in m)),
    ]
    for reader in readers:
        reader.join(0.1)
    # A miss while a pair is in flight waits for the writer to finish.
    assert answers == {} and all(r.is_alive() for r in readers)
    resume.set()
    for thread in readers + [writer]:
        thread.join(WAIT_S)
        assert not thread.is_alive(), "deadlocked"
    assert answers == {
        "get": ("value", key),
        "get_many": [("value", k) for k in others + [key]],
        "in": True,
    }


def test_readers_racing_growing_writers_never_miss_an_acknowledged_key():
    """Stress: two writers grow a map from one bucket (evictions and
    rehashes) while three readers, switching threads every microsecond,
    probe keys whose ``put`` has returned — none may read as absent."""
    m = CuckooHashMap(initial_buckets=1)
    acknowledged, misses = [], []
    done = threading.Event()

    def write(base):
        for i in range(1500):
            m.put((base, i), i)
            acknowledged.append((base, i))

    def read():
        try:
            while not done.is_set():
                keys = acknowledged[-2 * PROBE_LOOP_BELOW :]
                misses.extend(k for k in keys if m.get(k) is None or k not in m)
                misses.extend(
                    k for k, v in zip(keys, m.get_many(keys)) if v is None
                )
        except Exception as exc:  # a reader that dies must fail the test
            misses.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [_start(read) for _ in range(3)]
        writers = [_start(lambda b=b: write(b)) for b in range(2)]
        for thread in writers:
            thread.join(60)
        done.set()
        for thread in readers:
            thread.join(WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + writers), "deadlocked"
    assert len(m) == 3000 and not misses


def test_palm_write_racing_a_displacement_keeps_the_source():
    """A PALM thread's per-source batch probes outside every lock; one
    that probes a source whose directory pair is in flight must see the
    source, not create it afresh over its old row."""
    from repro.core.topology import DynamicGraphStore

    store = DynamicGraphStore()
    for s in range(200):
        store.add_edge(s, 100 + s, 1.0)
        store.add_edge(s, 300 + s, 2.0)
    directory = store.directory
    paused, resume, flight = threading.Event(), threading.Event(), []
    _pause_while_in_flight(
        directory, [(0, s) for s in range(200)], paused, resume, flight
    )
    writer = _start(
        lambda: [store.add_edge(s, 1, 1.0) for s in range(1000, 1400)]
    )
    assert paused.wait(WAIT_S), "the writer never moved a source's pair"
    _, k = flight[0]
    palm = _start(
        lambda: store.apply_source_batch(k, 0, [("insert", 7, 3.0)])
    )
    palm.join(0.1)
    resume.set()
    for thread in (palm, writer):
        thread.join(WAIT_S)
        assert not thread.is_alive(), "deadlocked"
    assert sorted(store.neighbors(k)) == [(7, 3.0), (100 + k, 1.0), (300 + k, 2.0)]
    store.check_invariants()
