"""Tests for the concurrent cuckoo hashmap directory (paper §IV-B).

Keys are ``(etype, src)`` int pairs held in numpy columns; a value is a
slab row (an ``int > 0``) or an object kept in the map's side list.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.storage.cuckoo import (
    _HASHES,
    PROBE_LOOP_BELOW,
    CuckooHashMap,
    _bucket_column,
    _buckets_for,
    _pair,
)

ID_MAX = 2**63 - 1


class Tree:
    """A stand-in samtree: compared by identity, as the store's are."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"Tree({self.tag})"


def _decoded(found):
    """What ``get_many`` found, one value or ``None`` per key."""
    codes, trees = found
    trees = iter(trees)
    return [c if c > 0 else next(trees) if c else None for c in codes.tolist()]


class TestBasics:
    def test_put_get(self):
        m = CuckooHashMap()
        m.put(0, 5, 1)
        assert m.get(0, 5) == 1
        assert m.get(0, 6) is None
        assert m.get(0, 6, 7) == 7
        assert m.get(1, 5) is None
        assert len(m) == 1

    def test_overwrite(self):
        m = CuckooHashMap()
        m.put(1, 1, 3)
        m.put(1, 1, 4)
        assert m.get(1, 1) == 4
        assert len(m) == 1

    def test_delete(self):
        m = CuckooHashMap()
        m.put(0, 1, 9)
        assert m.delete(0, 1) is True
        assert m.delete(0, 1) is False
        assert len(m) == 0
        assert m.get(0, 1) is None

    def test_objects_live_in_the_side_list(self):
        m = CuckooHashMap()
        a, b = Tree("a"), Tree("b")
        m.put(0, 5, a)
        m.put(0, 6, 2)
        assert m.get(0, 5) is a and list(m.trees.values()) == [a]
        m.put(0, 5, b)  # overwrite: a's entry goes
        assert m.get(0, 5) is b and list(m.trees.values()) == [b]
        codes, trees = m.get_many(0, np.array([5, 6, 7] * PROBE_LOOP_BELOW))
        assert _decoded((codes, trees)) == [b, 2, None] * PROBE_LOOP_BELOW
        assert codes[0] < 0 and m.trees[~codes[0]] is b
        assert m.delete(0, 5) and m.trees == {}
        m.put(0, 8, a)
        assert m.get(0, 8) is a and list(m.trees.values()) == [a]

    def test_extreme_keys(self):
        m = CuckooHashMap(initial_buckets=1)
        keys = [(e, s) for e in (0, 1, -32768, 32767) for s in (0, 1, ID_MAX)]
        for i, key in enumerate(keys):
            m.put(*key, i + 1)
        assert [m.get(*key) for key in keys] == list(range(1, len(keys) + 1))
        etype = np.array([e for e, _ in keys], dtype=np.int16)
        src = np.array([s for _, s in keys], dtype=np.int64)
        assert m.get_many(etype, src)[0].tolist() == list(range(1, len(keys) + 1))
        assert dict(m.items()) == {key: i + 1 for i, key in enumerate(keys)}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CuckooHashMap(initial_buckets=0)
        m = CuckooHashMap()
        for bad in (0, -3):
            with pytest.raises(ConfigurationError):
                m.put(0, 1, bad)
        assert len(m) == 0 and m._moves % 2 == 0


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        m = CuckooHashMap(initial_buckets=1)
        for i in range(1000):
            m.put(0, i, i * 2 + 1)
        assert len(m) == 1000
        for i in range(1000):
            assert m.get(0, i) == i * 2 + 1

    def test_load_factor_reported(self):
        m = CuckooHashMap(initial_buckets=4)
        for i in range(10):
            m.put(0, i, i + 1)
        assert 0.0 < m.load_factor <= 1.0

    def test_iteration(self):
        """Keys come back ascending by ``(etype, src)``, whatever the
        insertion order."""
        m = CuckooHashMap()
        keys = [(e, s) for s in range(50, 0, -1) for e in (3, -2)]
        for key in keys:
            m.put(*key, key[1])
        assert [key for key, _ in m.items()] == sorted(keys)
        etype, src, value, trees = m.columns()
        assert list(zip(etype.tolist(), src.tolist())) == sorted(keys)
        assert value.tolist() == [s for _, s in sorted(keys)] and trees == []

    def test_nbytes_scales_with_buckets(self):
        small = CuckooHashMap(initial_buckets=4)
        big = CuckooHashMap(initial_buckets=4)
        for i in range(500):
            big.put(0, i, i + 1)
        assert big.nbytes() > small.nbytes()


class TestConcurrency:
    def test_threaded_writers_disjoint_keys(self):
        m = CuckooHashMap()
        errors = []

        def writer(base):
            try:
                for i in range(300):
                    m.put(base, i, base * 1000 + i + 1)
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
                assert m.get(t, i) == t * 1000 + i + 1


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(0, 2),
            st.integers(min_value=0, max_value=100),
            st.integers(1, 2**62),
        ),
        max_size=300,
    )
)
@settings(max_examples=100, deadline=None)
def test_matches_dict_semantics(ops):
    m = CuckooHashMap(initial_buckets=1)
    ref = {}
    for kind, e, s, v in ops:
        if kind == "put":
            m.put(e, s, v)
            ref[(e, s)] = v
        else:
            assert m.delete(e, s) == ((e, s) in ref)
            ref.pop((e, s), None)
    assert len(m) == len(ref)
    assert dict(m.items()) == ref


# ---------------------------------------------------------------------------
# the state machine: put, put_many, reserve, delete against a dict
# ---------------------------------------------------------------------------
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)


def _shared_first_bucket(count: int):
    """Sources whose first hash has its top 10 bits zero: all of them
    share bucket 0 in every table of up to 1 024 buckets."""
    a, _ = _HASHES[0]
    inverse = pow(a, -1, 2**64)
    out = [(k << 40) * inverse % 2**64 for k in range(1, 4 * count)]
    return [s for s in out if s <= ID_MAX][:count]


def _same_first_hash(src: int, etype: int) -> int:
    """The source that, in relation ``etype``, hashes exactly as
    ``(0, src)`` does under the first hash (mod 2⁶⁴)."""
    a, b = _HASHES[0]
    return (src - etype * b * pow(a, -1, 2**64)) % 2**64


SHARED = _shared_first_bucket(12)
TWINS = [
    (e, t) for e in (-1, -2, -3)
    for t in (_same_first_hash(s, e) for s in range(0, 40, 7))
    if t <= ID_MAX
]
KEYS = st.one_of(
    st.tuples(st.sampled_from([0, 1, 32767, -32768]), st.integers(0, 300)),
    st.tuples(st.sampled_from([0, 32767]), st.sampled_from([0, ID_MAX])),
    st.tuples(st.just(0), st.sampled_from(SHARED)),
    st.sampled_from(TWINS),
)
VALUES = st.one_of(st.integers(1, 2**62), st.builds(Tree, st.integers()))


class CuckooMachine(RuleBasedStateMachine):
    """``CuckooHashMap`` against ``dict``: placement rounds, cuckoo
    paths and rebuilds must lose or invent no key, over keys forced into
    shared buckets; ``get_many`` answers as the scalar ``get`` on both
    sides of ``PROBE_LOOP_BELOW``, with one relation or a column."""

    def __init__(self):
        super().__init__()
        self.map = CuckooHashMap(initial_buckets=1)
        self.ref = {}

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.map.put(*key, value)
        self.ref[key] = value

    @rule(
        keys=st.lists(KEYS, max_size=60, unique=True),
        trees=st.booleans(), data=st.data(),
    )
    def put_many(self, keys, trees, data):
        keys = [k for k in keys if k not in self.ref]
        if trees:
            values = [Tree(i) for i in range(len(keys))]
        else:
            values = data.draw(st.lists(
                st.integers(1, 2**62), min_size=len(keys), max_size=len(keys)
            ))
        etype = [e for e, _ in keys]
        if keys and len(set(etype)) == 1 and data.draw(st.booleans()):
            etype = etype[0]  # one relation for all
        self.map.put_many(
            np.asarray(etype, dtype=np.int16),
            np.asarray([s for _, s in keys], dtype=np.int64),
            values if trees else np.asarray(values, dtype=np.int64),
        )
        self.ref.update(zip(keys, values))

    @rule(key=KEYS)
    def delete(self, key):
        assert self.map.delete(*key) == (key in self.ref)
        self.ref.pop(key, None)

    @rule(n=st.integers(-5, 3000))
    def reserve(self, n):
        before = self.map._num_buckets
        self.map.reserve(n)
        buckets = self.map._num_buckets
        assert buckets >= before  # never shrinks
        if buckets > before:  # grew: to the rule's count for n (or, for
            held = len(self.map) * 5 // 4  # less than a quarter more, for
            assert buckets == _buckets_for(max(n, held))  # 1.25 × the keys)

    @rule(key=KEYS)
    def get(self, key):
        assert self.map.get(*key, "absent") == self.ref.get(key, "absent")

    @rule(
        data=st.data(),
        n=st.sampled_from([0, 1, 4, PROBE_LOOP_BELOW - 1, PROBE_LOOP_BELOW, 90]),
        one_relation=st.booleans(),
    )
    def get_many(self, data, n, one_relation):
        stored = sorted(self.ref)
        pool = st.one_of(KEYS, st.sampled_from(stored)) if stored else KEYS
        keys = data.draw(st.lists(pool, min_size=n, max_size=n))
        if one_relation:
            keys = [(0, s) for _, s in keys]
            etype = 0
        else:
            etype = np.asarray([e for e, _ in keys], dtype=np.int16)
        found = self.map.get_many(etype, np.asarray([s for _, s in keys], dtype=np.int64))
        assert found[0].dtype == np.int64 and found[0].shape == (n,)
        assert _decoded(found) == [self.ref.get(k) for k in keys]

    @rule(etype=st.sampled_from([0, 1, 32767, -32768]))
    def minus_one_misses(self, etype):
        """``-1`` marks an empty slot and is no key: a miss to ``get``,
        ``get_many`` and ``delete``, refused by ``put``."""
        assert self.map.get(etype, -1) is None
        assert self.map.delete(etype, -1) is False
        for n in (1, PROBE_LOOP_BELOW):
            codes, trees = self.map.get_many(etype, np.full(n, -1))
            assert not codes.any() and trees == []
        with pytest.raises(ConfigurationError):
            self.map.put(etype, -1, 1)

    @invariant()
    def same_pairs(self):
        assert len(self.map) == len(self.ref)
        assert list(self.map.items()) == sorted(self.ref.items(), key=lambda kv: kv[0])

    @invariant()
    def columns_agree_with_the_side_list(self):
        m = self.map
        live = m._src >= 0
        codes = m._value[live]
        assert (codes != 0).all() and not m._value[~live].any()  # empty: 0
        assert sorted((~codes[codes < 0]).tolist()) == sorted(m.trees)
        assert m._table[2] is m._cols[0]  # readers see the writer's table
        # Every key sits in one of its two buckets.
        etype, src = m._etype[live], m._src[live]
        slot = np.flatnonzero(live) // 4
        b1, b2 = (
            _bucket_column(etype, src, which, m._num_buckets) for which in (0, 1)
        )
        assert ((slot == b1) | (slot == b2)).all()

    @invariant()
    def no_writer_in_flight(self):
        assert self.map._moves % 2 == 0


CuckooMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestCuckooMachine = CuckooMachine.TestCase


# ---------------------------------------------------------------------------
# reserve and put_many: one rehash, no bigger table than one-by-one growth
# ---------------------------------------------------------------------------
class TestReserve:
    @pytest.mark.parametrize("n", [1_000, 5_000, 10_000])
    @pytest.mark.parametrize("shard", [0, 3])
    def test_never_more_buckets_than_one_by_one(self, n, shard):
        """On a shard's directory keys — ``(etype, src)`` with the
        sources a 4-way hash partition owns — ``put_many`` ends on the
        table one-by-one ``put`` grows to, or a smaller one."""
        src = np.arange(n, dtype=np.int64) * 4 + shard
        grown = CuckooHashMap(initial_buckets=64)
        for s in src.tolist():
            grown.put(0, s, 1)
        placed = CuckooHashMap(initial_buckets=64)
        placed.put_many(0, src, np.ones(n, dtype=np.int64))
        assert placed._num_buckets <= grown._num_buckets
        assert len(placed) == n and (placed.get_many(0, src)[0] == 1).all()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "n, reserved", [(230, 64), (921, 256), (979, 272), (1018, 283)]
    )
    def test_a_reserved_table_holds_its_keys_up_to_90_percent(self, seed, n, reserved):
        """At the rule's limit — one key more needs one bucket more —
        neither ``put_many`` nor one-by-one ``put`` into the reserved
        table grows it, over random and shard-shaped key sets."""
        assert _buckets_for(n) == reserved == _buckets_for(n + 1) - 1
        rng = np.random.default_rng(seed)
        for src in (
            rng.permutation(np.unique(rng.integers(0, ID_MAX, 2 * n)))[:n],
            np.arange(n, dtype=np.int64) * 4 + seed % 4,
        ):
            placed = CuckooHashMap()
            placed.reserve(n)
            placed.put_many(seed % 3, src, np.arange(1, n + 1))
            looped = CuckooHashMap()
            looped.reserve(n)
            for s in src.tolist():
                looped.put(seed % 3, s, s + 1)
            assert placed._num_buckets == looped._num_buckets == reserved
            assert placed.get_many(seed % 3, src)[0].tolist() == list(range(1, n + 1))
            assert (looped.get_many(seed % 3, src)[0] == src + 1).all()

    def test_grows_once(self, monkeypatch):
        m = CuckooHashMap(initial_buckets=1)
        for i in range(3):
            m.put(0, i, i + 1)
        rehashes = []
        rebuild = m._rebuild
        monkeypatch.setattr(
            m, "_rebuild",
            lambda buckets, extra=None: rehashes.append(buckets)
            or rebuild(buckets, extra),
        )
        m.reserve(1000)
        assert rehashes == [278]  # ⌈1000 / 3.6⌉: 1000 keys at ≤ 90 %
        m.reserve(1000)
        m.reserve(0)
        assert rehashes == [278]
        m.put_many(0, np.arange(3, 900), np.arange(4, 901))
        assert rehashes == [278]  # room already made
        m.put_many(0, np.arange(900, 1500), np.arange(901, 1501))
        assert rehashes == [278, 417]  # one rebuild, with the new keys, to
        assert _buckets_for(1500) == 417  # the rule's count for all of them
        assert dict(m.items()) == {(0, i): i + 1 for i in range(1500)}

    @pytest.mark.parametrize("n", [976, 5_000])
    def test_put_past_a_full_table_grows_by_at_most_half(self, n):
        """A table the rule sized and filled to its limit takes ``put``s
        until one grows it — past the rule's count or for a failed path
        — to at most 1.5 × its buckets, with every key still found."""
        rng = np.random.default_rng(n)
        src = rng.permutation(np.unique(rng.integers(0, ID_MAX, 2 * n)))
        m = CuckooHashMap()
        m.reserve(n)
        buckets = m._num_buckets
        assert buckets == _buckets_for(n)
        while _buckets_for(n + 1) == buckets and 5 * (n + 1) <= 18 * buckets:
            n += 1  # the most keys the rule allows at 90 %
        m.put_many(0, src[:n], src[:n] + 1)
        assert m._num_buckets == buckets
        while m._num_buckets == buckets:
            m.put(0, int(src[n]), int(src[n]) + 1)
            n += 1
        assert buckets < m._num_buckets <= 1.5 * buckets
        assert (m.get_many(0, src[:n])[0] == src[:n] + 1).all()
        assert all(m.get(0, s) == s + 1 for s in src[:n].tolist())

    @pytest.mark.parametrize("sources", [5_000, 10_000])
    def test_a_bulk_loaded_directory_is_sized_to_its_keys(self, sources):
        """The memory the rule saves: a bulk load's directory sits at
        ≥ 85 % occupancy and models the rule's buckets × 96 B."""
        from repro.core.topology import DynamicGraphStore

        store = DynamicGraphStore()
        store.bulk_load(np.repeat(np.arange(sources) * 4, 2), np.tile([1, 2], sources))
        directory = store.directory
        assert len(directory) == sources and directory.load_factor >= 0.85
        assert directory.nbytes() == _buckets_for(sources) * 96
        assert directory._num_buckets == {5_000: 1_389, 10_000: 2_778}[sources]

    def test_bulk_load_presizes_the_directory(self):
        from repro.core.topology import DynamicGraphStore

        src = np.repeat(np.arange(5_000) * 4, 2)
        dst = np.tile([1, 2], 5_000)
        loaded = DynamicGraphStore()
        loaded.bulk_load(src, dst)
        looped = DynamicGraphStore()
        for s, d in zip(src.tolist(), dst.tolist()):
            looped.add_edge(s, d)
        assert loaded.directory._num_buckets <= looped.directory._num_buckets


# ---------------------------------------------------------------------------
# the sizing rule: ⌈n / 3.6⌉ buckets, every table at most 90 % full
# ---------------------------------------------------------------------------
class TestSizingRule:
    def test_the_rule_is_one_count_never_decreasing(self):
        """R(n) is the fewest buckets holding ``n`` keys at ≤ 90 % — so
        also past every power of two that ``n`` would fill beyond 90 %,
        n ∈ (3.6 · 2ᵏ, 4 · 2ᵏ] — for every n up to 2¹⁷."""
        counts = [_buckets_for(n) for n in range(1, 2**17 + 1)]
        for n, buckets in enumerate(counts, start=1):
            assert 18 * (buckets - 1) < 5 * n <= 18 * buckets  # n ≤ 3.6 · R(n)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        for k in range(15):
            edge = range(18 * 2**k // 5 + 1, 4 * 2**k + 1)  # n > 3.6 · 2ᵏ
            assert all(counts[n - 1] > 2**k for n in edge)

    def test_a_batch_into_a_fresh_map_leaves_it_at_most_90_percent_full(self):
        """At both ends of every (3.6 · 2ᵏ, 4 · 2ᵏ] up to 16 384 keys."""
        rng = np.random.default_rng(0)
        for k in range(2, 13):
            for n in (18 * 2**k // 5, 18 * 2**k // 5 + 1, 4 * 2**k):
                src = rng.permutation(np.unique(rng.integers(0, ID_MAX, 2 * n)))[:n]
                m = CuckooHashMap()
                m.put_many(k % 3, src, src + 1)
                assert m.load_factor <= 0.9
                assert m._num_buckets == max(_buckets_for(n), 16)  # 16: the default
                assert (m.get_many(k % 3, src)[0] == src + 1).all()

    def test_the_serving_rig_directories_are_placed_by_rounds(self, monkeypatch):
        """The ``serve_zipf`` shape's four ≈ 1 000-key shard directories
        sit at ≤ 90 %, so the eviction rounds place them and the
        breadth-first search sees only their tails (92 searches; 366
        when a power-of-two cap left them 95–99 % full)."""
        from repro.serving.scenarios import build_serving_rig

        searches = []
        cuckoo_path = CuckooHashMap._cuckoo_path
        monkeypatch.setattr(
            CuckooHashMap, "_cuckoo_path",
            lambda self, *key: searches.append(key) or cuckoo_path(self, *key),
        )
        rig = build_serving_rig(num_shards=4, num_sources=4000, degree=16, fanouts=(5, 5))
        directories = [s.store.directory for g in rig.cluster.replica_groups for s in g]
        assert sum(map(len, directories)) == 4000
        assert all(d.load_factor <= 0.9 for d in directories)
        assert len(searches) <= 120


# ---------------------------------------------------------------------------
# the array probe and placement: hash math, rounds
# ---------------------------------------------------------------------------
PRIMES = [2, 3, 5, 7, 13, 251, 1_021, 65_521, 1_000_003, 2_147_483_647, 4_294_967_291]
BUCKET_COUNTS = st.one_of(
    st.integers(1, 2**32 - 1),
    st.integers(0, 31).map(lambda k: 1 << k),
    st.integers(1, 31).flatmap(lambda k: st.sampled_from([(1 << k) - 1, (1 << k) + 1])),
    st.just(2**32 - 1),
    st.sampled_from(PRIMES),
)


@given(
    keys=st.lists(
        st.tuples(st.integers(-(2**15), 2**15 - 1), st.integers(0, ID_MAX)),
        min_size=1, max_size=40,
    ),
    buckets=BUCKET_COUNTS,
)
@settings(max_examples=300, deadline=None)
def test_numpy_bucket_pair_is_buckets_for(keys, buckets):
    """The numpy bucket column is the scalar ``_pair``, bit for bit, for
    any bucket count; for 2ᵏ buckets both are the hash's top k bits."""
    if buckets <= 4096:  # the map keeps the count it is given
        m = CuckooHashMap(initial_buckets=buckets)
        assert m._num_buckets == buckets
    etype = np.asarray([e for e, _ in keys], dtype=np.int16)
    src = np.asarray([s for _, s in keys], dtype=np.int64)
    pairs = list(zip(*(
        _bucket_column(etype, src, which, buckets).tolist() for which in (0, 1)
    )))
    assert pairs == [_pair(e, s, buckets) for e, s in keys]
    assert all(0 <= b < buckets for pair in pairs for b in pair)
    if buckets & (buckets - 1) == 0:  # the multiply-shift top bits
        shift = 64 - (buckets.bit_length() - 1)
        assert pairs == [
            tuple((s * a + e * b) % 2**64 >> shift for a, b in _HASHES) for e, s in keys
        ]
    for which in (0, 1):  # one relation for all, as admission asks
        assert _bucket_column(etype[0], src, which, buckets).tolist() == [
            _pair(int(etype[0]), s, buckets)[which] for _, s in keys
        ]


#: Key counts at the rule's steps: the most keys ``b`` buckets hold at
#: 90 % occupancy, and one more.
RULE_STEPS = st.integers(1, 5_555).flatmap(
    lambda b: st.sampled_from([b * 18 // 5, b * 18 // 5 + 1])
)


@given(
    n=st.one_of(st.integers(0, 20_000), RULE_STEPS),
    seed=st.integers(0, 2**32 - 1),
    relations=st.integers(1, 3),
    shard_shaped=st.booleans(),
    reserved=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_put_many_into_a_rule_sized_table_is_a_dict(
    n, seed, relations, shard_shaped, reserved
):
    """``put_many`` of ``n`` distinct keys into a table the rule sized —
    eviction rounds at or below 90 %, today's placement above — reads
    back as a ``dict`` under ``get``, ``get_many`` and ``columns``, with
    every key in one of its two buckets."""
    rng = np.random.default_rng(seed)
    if shard_shaped:
        src = rng.permutation(n) * 4 + seed % 4
    else:
        src = rng.permutation(np.unique(rng.integers(0, ID_MAX, n + 16)))[:n]
    etype = rng.integers(0, relations, src.size).astype(np.int16)
    keys = np.unique(np.stack([etype, src]), axis=1)  # distinct pairs
    etype, src = keys[0].astype(np.int16), keys[1]
    value = rng.integers(1, 2**62, src.size)
    m = CuckooHashMap(initial_buckets=1)
    if reserved:
        m.reserve(src.size)
    m.put_many(etype, src, value)
    buckets = _buckets_for(src.size)
    if src.size >= 1_000 and 5 * src.size <= 18 * buckets:  # ≤ 90 %: placed
        assert m._num_buckets == buckets  # (a tiny table may not be)
    assert m._num_buckets >= buckets
    ref = dict(zip(zip(etype.tolist(), src.tolist()), value.tolist()))
    assert len(m) == len(ref)
    assert all(m.get(e, s) == v for (e, s), v in ref.items())
    assert (m.get_many(etype, src)[0] == value).all()
    e, s, v, trees = m.columns()
    assert list(zip(zip(e.tolist(), s.tolist()), v.tolist())) == sorted(ref.items())
    assert trees == []
    live = np.flatnonzero(m._src >= 0)
    b1, b2 = (
        _bucket_column(m._etype[live], m._src[live], w, m._num_buckets) for w in (0, 1)
    )
    assert ((live // 4 == b1) | (live // 4 == b2)).all()


@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "delete", "get_many"]), KEYS),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_get_many_leaves_placement_alone(ops):
    """The same puts and deletes, with and without batched probes in
    between, leave the same columns."""
    plain = CuckooHashMap(initial_buckets=1)
    probed = CuckooHashMap(initial_buckets=1)
    for kind, key in ops:
        if kind == "put":
            plain.put(*key, 1)
            probed.put(*key, 1)
        elif kind == "delete":
            plain.delete(*key)
            probed.delete(*key)
        else:
            etype, src = probed.columns()[:2]
            probed.get_many(
                np.append(etype, key[0]), np.append(src, key[1])
            )
    for name in ("_src", "_etype", "_value"):
        assert np.array_equal(getattr(probed, name), getattr(plain, name))


def test_put_many_fills_first_buckets_then_second():
    """With room, the ``r``-th key of a bucket takes its ``r``-th free
    slot; the keys a full first bucket turns away go to their second
    (the few a round leaves, one by one); no key moves another."""
    m = CuckooHashMap(initial_buckets=256)
    src = np.asarray(SHARED[:10] + list(range(100, 400)), dtype=np.int64)
    paths = []
    cuckoo_path = m._cuckoo_path
    m._cuckoo_path = lambda *key: paths.append(cuckoo_path(*key)) or paths[-1]
    m.put_many(0, src, np.arange(1, src.size + 1))
    assert not paths  # a free bucket slot for every key: no search, no move
    b1, b2 = (_bucket_column(0, src, w, m._num_buckets) for w in (0, 1))
    slot = np.asarray([m._find_slot(0, s, m._table) for s in src.tolist()])
    assert (slot[:4] == np.arange(4)).all()  # bucket 0, in key order
    assert (slot[4:10] // 4 == b2[4:10]).all()
    assert ((slot // 4 == b1) | (slot // 4 == b2)).all()
    assert m.get_many(0, src)[0].tolist() == list(range(1, src.size + 1))


@pytest.mark.parametrize("seed", [0, 1])
def test_a_free_bucket_slot_is_the_searchs_first_path(seed):
    """``put`` takes the first free slot of the key's buckets before any
    search: the one-slot path the breadth-first search returns, so a
    seeded ``put`` sequence leaves the columns the search alone leaves."""
    rng = np.random.default_rng(seed)
    etypes, srcs = rng.integers(0, 3, 2000), rng.integers(0, 1 << 40, 2000)
    fast = CuckooHashMap(initial_buckets=4)
    searched = CuckooHashMap(initial_buckets=4)
    searched._free_slot = lambda etype, src: -1  # never a shortcut
    one_slot = 0
    for etype, src in zip(etypes.tolist(), srcs.tolist()):
        path = fast._cuckoo_path(etype, src)
        free = fast._free_slot(etype, src)
        if path is not None and len(path) == 1:
            one_slot += 1
            assert free == path[0]
        else:
            assert free == -1
        fast.put(etype, src, 1 + src % 1000)
        searched.put(etype, src, 1 + src % 1000)
    assert 0 < one_slot < 2000
    for name in ("_src", "_etype", "_value"):
        assert np.array_equal(getattr(fast, name), getattr(searched, name))


# ---------------------------------------------------------------------------
# a probe racing a cuckoo path, a rebuild or a batch (threads sequenced by
# events, every wait bounded: a deadlock fails the test instead of hanging)
# ---------------------------------------------------------------------------
WAIT_S = 10.0


def _start(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _pause_once(obj, name, paused, resume, when=lambda *args: True, seen=None):
    """Make ``obj.name`` stop, once, on its first call ``when`` accepts
    (recording the arguments in ``seen``) until ``resume`` is set."""
    original = getattr(obj, name)

    def hook(*args):
        if not paused.is_set() and when(*args):
            if seen is not None:
                seen.append(args)
            paused.set()
            resume.wait(WAIT_S)
        return original(*args)

    setattr(obj, name, hook)


def _both_buckets_full(m, etype, candidates):
    keys = m._src.reshape(-1, 4)
    for s in candidates:
        if all((keys[b] >= 0).all() for b in _pair(etype, s, m._num_buckets)):
            return s
    raise AssertionError("no candidate with both buckets full")


@pytest.mark.parametrize("window", ["eviction", "rehash"])
def test_a_probe_never_reports_an_acknowledged_key_absent(window):
    """While a cuckoo path shifts (a resident in two slots, a slot
    about to be overwritten) or a rebuild fills a fresh table, ``_moves``
    is odd: every lock-free read waits for the writer, then answers."""
    m = CuckooHashMap(initial_buckets=64)
    acknowledged = np.arange(240, dtype=np.int64) * 3
    m.put_many(0, acknowledged, acknowledged + 1)
    buckets = m._num_buckets
    paused, resume, seen = threading.Event(), threading.Event(), []
    if window == "eviction":
        newcomer = _both_buckets_full(m, 0, range(10**6, 10**6 + 10**4))
        _pause_once(m, "_write_slot", paused, resume, seen=seen)
        writer = _start(lambda: m.put(0, newcomer, 7))
    else:
        _pause_once(m, "_fill", paused, resume)
        writer = _start(lambda: m.reserve(4 * len(m._src)))
    assert paused.wait(WAIT_S), "the writer never paused"
    assert m._moves % 2 == 1
    if window == "eviction":
        moved = seen[0][2]  # the resident written to the path's free end
        assert moved in set(acknowledged.tolist())
    else:
        moved = int(acknowledged[5])
    assert m._num_buckets == buckets if window == "eviction" else m._num_buckets > buckets
    others = acknowledged[:PROBE_LOOP_BELOW]
    answers = {}
    readers = [
        _start(lambda: answers.__setitem__("get", m.get(0, moved, "absent"))),
        _start(lambda: answers.__setitem__(
            "get_many", m.get_many(0, np.append(others, moved))[0].tolist()
        )),
        _start(lambda: answers.__setitem__(
            "loop", m.get_many(0, np.asarray([moved]))[0].tolist()
        )),
    ]
    for reader in readers:
        reader.join(0.1)
    assert answers == {} and all(r.is_alive() for r in readers)
    resume.set()
    for thread in readers + [writer]:
        thread.join(WAIT_S)
        assert not thread.is_alive(), "deadlocked"
    assert answers == {
        "get": moved + 1,
        "get_many": (np.append(others, moved) + 1).tolist(),
        "loop": [moved + 1],
    }


def test_a_samtree_dropped_between_probe_and_side_list_reads_as_a_miss():
    """A lock-free ``get_many`` that found a samtree's entry, whose key a
    writer deletes before the reader reads the side list, fails its
    seqlock check and reads again under the lock: a miss, no KeyError."""
    m = CuckooHashMap()
    m.put(0, 5, Tree("t"))
    m.put(0, 6, 2)
    paused, resume, answers = threading.Event(), threading.Event(), []
    _pause_once(m, "_trees_of", paused, resume)
    reader = _start(lambda: answers.append(m.get_many(0, np.array([5, 6]))))
    assert paused.wait(WAIT_S), "the reader never paused"
    assert m.delete(0, 5) and m.trees == {}
    resume.set()
    reader.join(WAIT_S)
    assert not reader.is_alive(), "deadlocked"
    ((codes, trees),) = answers
    assert codes.tolist() == [0, 2] and trees == []


def _race(writers, readers, seconds=60):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    done = threading.Event()
    try:
        reading = [_start(lambda r=r: r(done)) for r in readers]
        writing = [_start(w) for w in writers]
        for thread in writing:
            thread.join(seconds)
        done.set()
        for thread in reading:
            thread.join(WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in reading + writing), "deadlocked"


def test_readers_racing_growing_writers_never_miss_an_acknowledged_key():
    """Stress: two writers grow a map from one bucket (cuckoo paths and
    rebuilds) while three readers, switching threads every microsecond,
    probe keys whose ``put`` has returned — none may read as absent."""
    m = CuckooHashMap(initial_buckets=1)
    acknowledged, misses = [], []

    def write(base):
        for i in range(1500):
            m.put(base, i, i + 1)
            acknowledged.append((base, i))

    def read(done):
        try:
            while not done.is_set():
                keys = acknowledged[-2 * PROBE_LOOP_BELOW :]
                misses.extend(k for k in keys if m.get(*k) != k[1] + 1)
                if keys:
                    etype = np.asarray([e for e, _ in keys], dtype=np.int16)
                    src = np.asarray([s for _, s in keys], dtype=np.int64)
                    for n in (len(keys), 3):
                        got, _ = m.get_many(etype[:n], src[:n])
                        misses.extend(
                            k for k, v in zip(keys, got.tolist()) if v != k[1] + 1
                        )
        except Exception as exc:  # a reader that dies must fail the test
            misses.append(exc)

    _race([lambda b=b: write(b) for b in range(2)], [read] * 3)
    assert len(m) == 3000 and not misses


def test_get_many_racing_put_many_and_delete():
    """Stress: one writer adds chunks by ``put_many`` and deletes every
    other key of the chunk before; readers' array probes of the keys
    never deleted always find them, and of the deleted ones read the
    value or a miss — never another key's value."""
    m = CuckooHashMap(initial_buckets=1)
    kept, gone, wrong = [], [], []

    def write():
        for c in range(60):
            src = np.arange(c * 100, (c + 1) * 100, dtype=np.int64)
            m.put_many(c % 2, src, src + 1)
            kept.extend((c % 2, s) for s in src[0::2].tolist())
            for s in src[1::2].tolist():
                m.delete(c % 2, s)
                gone.append((c % 2, s))

    def read(done):
        try:
            while not done.is_set():
                keys = kept[-90:] + gone[-40:]
                if not keys:
                    continue
                etype = np.asarray([e for e, _ in keys], dtype=np.int16)
                src = np.asarray([s for _, s in keys], dtype=np.int64)
                got = m.get_many(etype, src)[0].tolist()
                wrong.extend(
                    k for k, v in zip(keys[:-40], got) if v != k[1] + 1
                )
                wrong.extend(
                    k for k, v in zip(keys[-40:], got[-40:]) if v not in (0, k[1] + 1)
                )
        except Exception as exc:
            wrong.append(exc)

    _race([write], [read] * 2)
    assert not wrong and len(m) == len(kept) == 3000


def test_palm_write_racing_a_displacement_keeps_the_source():
    """A PALM thread's per-source batch probes outside every lock; one
    that probes a source whose directory entry a cuckoo path is moving
    must see the source, not create it afresh over its old row."""
    from repro.core.topology import DynamicGraphStore
    from repro.core.types import OP_INSERT

    store = DynamicGraphStore()
    for s in range(200):
        store.add_edge(s, 100 + s, 1.0)
        store.add_edge(s, 300 + s, 2.0)
    directory = store.directory
    paused, resume, seen = threading.Event(), threading.Event(), []
    _pause_once(
        directory, "_write_slot", paused, resume,
        when=lambda slot, etype, src, value: src < 200, seen=seen,
    )
    writer = _start(
        lambda: [store.add_edge(s, 1, 1.0) for s in range(1000, 1400)]
    )
    assert paused.wait(WAIT_S), "the writer never moved a source's entry"
    k = seen[0][2]
    palm = _start(
        lambda: store.apply_source_batch(k, 0, [7], [OP_INSERT], [3.0])
    )
    palm.join(0.1)
    assert palm.is_alive()  # waits for the path to land
    resume.set()
    for thread in (palm, writer):
        thread.join(WAIT_S)
        assert not thread.is_alive(), "deadlocked"
    assert sorted(store.neighbors(k)) == [(7, 3.0), (100 + k, 1.0), (300 + k, 2.0)]
    store.check_invariants()


# ---------------------------------------------------------------------------
# an empty slot is (src -1, value 0): no probe of a negative id matches it
# ---------------------------------------------------------------------------
def test_a_deleted_slot_never_answers_for_source_minus_one():
    """Churn fills the bucket of ``(0, -1)`` with sources of relation 0
    and empties it again; the freed slab rows go to other sources.  A
    deleted slot keeps its relation, yet ``-1`` stays what it is at an
    empty store: refused as a key, a miss to every probe."""
    from repro.core.topology import DynamicGraphStore
    from repro.errors import InvalidWeightError

    store = DynamicGraphStore()
    d = store.directory
    (first, _) = _pair(0, -1, d._num_buckets)
    shared = [
        s for s in range(10**5) if _pair(0, s, d._num_buckets)[0] == first
    ][:4]
    for s in shared:
        store.add_edge(s, 7, 1.0)
    for s in shared:
        store.remove_edge(s, 7)
    for s in range(10**6, 10**6 + 4):  # the released rows, reused
        store.add_edge(s, 8, 2.0)
    buckets = d._src.reshape(-1, 4)[first]
    assert (buckets == -1).all() and (d._etype.reshape(-1, 4)[first] == 0).all()
    size = len(d)
    with pytest.raises(InvalidWeightError):
        store.add_edge(-1, 1)
    assert store.neighbors(-1) == [] and store.degree(-1) == 0
    assert store.remove_edge(-1, 8) is False
    assert d.get(0, -1) is None and d.delete(0, -1) is False
    for n in (1, PROBE_LOOP_BELOW):
        codes, trees = d.get_many(0, np.full(n, -1))
        assert not codes.any() and trees == []
    with pytest.raises(ConfigurationError):
        d.put(0, -1, 5)
    with pytest.raises(ConfigurationError):
        d.put_many(0, np.array([3, -1]), np.array([1, 2]))
    assert len(d) == size == 4
    block = store.sample_neighbors_many([-1, 10**6], 2, rng=0)
    assert block.rows()[0] == [] and block.rows()[1] == [8, 8]
    store.check_invariants()
