"""``IdDirectory`` against the ``dict`` it replaced."""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.directory import _INITIAL_CAPACITY, IdDirectory

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)


def _same_home_bucket(count: int) -> list:
    """Keys that all hash to cell 0 of a fresh directory."""
    fresh, out, key = IdDirectory(), [], 0
    while len(out) < count:
        if fresh._home(np.array([key], dtype=np.int64))[0] == 0:
            out.append(key)
        key += 1
    return out


#: One long probe chain in a fresh table.
_CHAIN = _same_home_bucket(12)
#: Ids chosen to collide: the edges of the int64 range and strides that
#: only differ in their high bits.
_ADVERSARIAL = sorted(
    {0, -1, 1, _INT64_MAX, _INT64_MIN}
    | {i << 32 for i in range(-6, 7)}
    | {i * 2**20 for i in range(-6, 7)}
)
_KEYS = st.one_of(
    st.sampled_from(_ADVERSARIAL),
    st.sampled_from(_CHAIN),
    st.integers(-50, 50),
    st.integers(_INT64_MIN, _INT64_MAX),
)


def _column(values, dtype) -> np.ndarray:
    return np.asarray(values, dtype=dtype).reshape(len(values))


class IdDirectoryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = IdDirectory()
        self.model = {}
        self.next_slot = 1

    def _insert(self, keys):
        fresh = [k for k in dict.fromkeys(keys) if k not in self.model]
        slots = list(range(self.next_slot, self.next_slot + len(fresh)))
        self.next_slot += len(fresh)
        self.directory.insert(
            _column(fresh, np.int64), _column(slots, np.intp)
        )
        self.model.update(zip(fresh, slots))

    @rule(keys=st.lists(_KEYS, max_size=12))
    def insert(self, keys):
        """Fresh keys, and deleted ones coming back over a tombstone."""
        self._insert(keys)

    @rule(keys=st.lists(st.sampled_from(_CHAIN), min_size=6, unique=True))
    def insert_chain(self, keys):
        """Keys that share a home cell, so deletes land mid-chain."""
        self._insert(keys)

    @rule(
        start=st.integers(-2000, 2000),
        stride=st.sampled_from([1, 7, 2**20, 2**32]),
    )
    def insert_block(self, start, stride):
        """600 keys at once: at least three doublings of a fresh table."""
        self._insert([start + i * stride for i in range(600)])

    @rule(key=_KEYS)
    def pop(self, key):
        assert self.directory.pop(key) == self.model.pop(key, None)

    @rule(data=st.data())
    def pop_stored(self, data):
        """Deletes that hit, so tombstones accumulate."""
        if self.model:
            victims = data.draw(
                st.lists(st.sampled_from(sorted(self.model)), max_size=40)
            )
            for key in victims:
                assert self.directory.pop(key) == self.model.pop(key, None)

    @rule(keys=st.lists(_KEYS, max_size=30), data=st.data())
    def lookup(self, keys, data):
        """Hits, misses and repeats in one frontier."""
        keys += _CHAIN
        if self.model:
            keys += data.draw(
                st.lists(st.sampled_from(sorted(self.model)), max_size=30)
            )
        got = self.directory.lookup(_column(keys, np.int64))
        assert got.dtype == np.intp
        assert got.tolist() == [self.model.get(k, 0) for k in keys]

    @rule(key=_KEYS)
    def point_reads(self, key):
        assert (key in self.directory) is (key in self.model)
        assert self.directory.get(key) == self.model.get(key)
        assert self.directory.get(key, 0) == self.model.get(key, 0)

    @invariant()
    def equals_the_model(self):
        directory = self.directory
        assert len(directory) == len(self.model)
        keys, slots = directory.items()
        assert keys.dtype == np.int64 and slots.dtype == np.intp
        assert dict(zip(keys.tolist(), slots.tolist())) == self.model
        # Probing terminates because empty cells never run out.
        capacity = len(directory.keys)
        assert capacity & (capacity - 1) == 0
        assert 2 * int((directory.state != 0).sum()) <= capacity


TestIdDirectoryModel = IdDirectoryMachine.TestCase
TestIdDirectoryModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_growth_keeps_every_key_and_rehash_drops_tombstones():
    directory = IdDirectory()
    keys = np.arange(-500, 500, dtype=np.int64) * 3
    slots = np.arange(1, len(keys) + 1, dtype=np.intp)
    directory.insert(keys, slots)
    assert len(directory.keys) >= 8 * _INITIAL_CAPACITY  # >= 3 doublings
    assert directory.lookup(keys).tolist() == slots.tolist()

    for key in keys[:900].tolist():
        directory.pop(key)
    capacity = len(directory.keys)
    assert int((directory.state == 2).sum()) == 900
    # The next insert that finds the table half occupied rebuilds it.
    more = np.arange(10_000, 10_000 + capacity // 2, dtype=np.int64)
    directory.insert(more, np.arange(2000, 2000 + len(more), dtype=np.intp))
    assert int((directory.state == 2).sum()) == 0
    assert len(directory) == 100 + len(more)
    assert directory.lookup(keys[:900]).tolist() == [0] * 900
    assert directory.lookup(keys[900:]).tolist() == slots[900:].tolist()


def test_one_home_bucket_probes_to_the_end_of_the_chain():
    keys = _same_home_bucket(20)
    directory = IdDirectory()
    directory.insert(
        _column(keys, np.int64), np.arange(1, 21, dtype=np.intp)
    )
    column = _column(keys, np.int64)
    assert directory.lookup(column).tolist() == list(range(1, 21))
    # A tombstone does not cut the chain, wherever in it the key sat.
    for i in (0, 10, 19):
        assert directory.pop(keys[i]) == i + 1
    expected = [0 if i in (0, 10, 19) else i + 1 for i in range(20)]
    assert directory.lookup(column).tolist() == expected
    assert [directory.get(k, 0) for k in keys] == expected
    directory.insert(_column([keys[10]], np.int64), _column([99], np.intp))
    assert directory.get(keys[10]) == 99 and len(directory) == 18
