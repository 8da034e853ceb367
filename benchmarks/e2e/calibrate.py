"""Machine-speed calibration, interleaved with the measured work.

The sandbox this benchmark is gated on shares its cores: the same fixed
Python loop was measured running 1.5x slower for ten seconds at a time,
with no steal time reported (see README, "Why the gated figures are
calibrated").  A raw wall-clock figure therefore moves by more than any
bound the gate may use, whatever the program does.

So the harness times a small fixed kernel — bytecode and dict traffic, a
cache-missing gather, small-array stacking, a small matrix product: the
program's own instruction mix — every ``PERIOD_S`` of measured work, and
divides out the speed it saw.  ``speed`` is ``REF_SLICE_S`` over the mean
slice time of a window: 1.0 on the quiet reference machine, below 1 when
the machine runs slow.  A calibrated throughput is ``raw / speed``, a
calibrated time ``raw * speed``: what the run would have read at speed 1.
The kernel never touches the program, so a change to the program moves
raw and calibrated figures alike; the raw ones are reported next to them.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: One slice on the quiet reference machine (this sandbox's fast mode).
REF_SLICE_S = 0.5e-3
#: Measured work between two samples: about 4 % of a window is calibration.
PERIOD_S = 0.025

_rng = np.random.default_rng(12345)
_BIG = _rng.random(1 << 18)  # 2 MiB: spills the L2, as the program does
_GATHER = _rng.integers(0, _BIG.size, 30_000)
_SMALL = [_rng.random(32).astype(np.float32) for _ in range(400)]
_MAT = _rng.random((64, 64)).astype(np.float32)


def _slice() -> None:
    table = {}
    acc = 0
    for i in range(2_000):
        table[i & 255] = i
        acc += table.get(i & 127, 0)
    _BIG.take(_GATHER).sum()
    np.stack(_SMALL)
    for _ in range(25):
        _MAT @ _MAT


class Calibrator:
    """Accumulates slice time over one window at a time."""

    def __init__(self) -> None:
        self._last = 0.0
        self._spent = 0.0
        self._timed = 0.0
        self._slices = 0

    def start(self) -> None:
        self._spent = 0.0
        self._timed = 0.0
        self._slices = 0
        self._last = perf_counter()

    def tick(self) -> None:
        """Call between operations; runs a slice when one is due."""
        now = perf_counter()
        if now - self._last >= PERIOD_S:
            # The first slice refills the caches the program's work
            # emptied; only the second is timed, so the sample does not
            # depend on what the program left behind.
            _slice()
            t0 = perf_counter()
            _slice()
            self._last = perf_counter()
            self._timed += self._last - t0
            self._spent += self._last - now
            self._slices += 1

    def stop(self) -> Tuple[float, float]:
        """``(seconds spent calibrating, machine speed)`` of the window."""
        if not self._slices:  # a window shorter than one period
            self._last = 0.0
            self.tick()
        return self._spent, REF_SLICE_S * self._slices / self._timed


def machine_speed(slices: int = 25) -> float:
    """Speed right now, from back-to-back slices (brackets a set-up,
    which is one long program call and cannot be interleaved)."""
    samples: List[float] = []
    _slice()
    for _ in range(slices):
        t0 = perf_counter()
        _slice()
        samples.append(perf_counter() - t0)
    return REF_SLICE_S / median(samples)
