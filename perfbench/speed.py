"""Host speed sampling, so that measured times can be read in reference seconds.

The host's speed drifts by tens of percent within a second.  A
``Speedometer`` times a fixed pure-Python loop (``calibration_loop``) while
the work runs: on demand, and, when given an interval, from a timer signal
that interrupts the work.  A unit of work timed from ``t0`` to ``t1`` then
has ``reference_seconds(t0, t1)``: its wall time without the samples taken
inside it, times ``REF_LOOP_S`` over the mean loop time sampled from just
before ``t0`` to just after ``t1``.  That is its time on a CPU that runs the
loop in ``REF_LOOP_S``.  A change to the program moves it as it moves wall
time; drift of the host moves it far less.
"""

from __future__ import annotations

import bisect
import itertools
import random
import signal
import time
from typing import Callable, Dict, List, Optional

#: Steps of the two halves of the calibration loop, and the time the whole
#: loop and its first half take on the reference CPU.
TABLE_STEPS = 10000
SCATTER_STEPS = 6000
REF_LOOP_S = 0.002
REF_TABLE_S = 0.0012

clock = time.perf_counter

#: The second half's working set: a shuffled permutation of 2**17 ints, about
#: 5 MB with the int objects, read at scattered places.
_SCATTER = list(range(1 << 17))
random.Random(1).shuffle(_SCATTER)
_PROBES = [(i * 2654435761) % (1 << 17) for i in range(SCATTER_STEPS)]


def table_loop() -> None:
    """Dict and integer work on a small table: the calibration loop's first
    half."""
    table: Dict[int, int] = {}
    for i in range(TABLE_STEPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i


def calibration_loop() -> int:
    """A fixed loop of interpreter work in two halves: ``table_loop``, then
    dependent reads scattered over a working set of about 5 MB.

    The program's units mix both kinds of work, and the host's drift does
    not slow the two kinds alike.  Over six seeds, normalizing the
    same runs by the whole loop kept the rates and the median latencies of
    ``explore-apps``, ``monitor-si-engine`` and ``monitor-rc-fresh`` within
    an interquartile spread of 2-7%; by the first half alone,
    ``monitor-rc-fresh``'s median latency spread by 15%; by the second half
    alone, its rate spread by 13%."""
    table_loop()
    total = 0
    scatter = _SCATTER
    for i in _PROBES:
        total += scatter[scatter[i]]
    return total


class Speedometer:
    """Calibration-loop samples taken around and inside timed work.

    Use it as a context manager: it samples on entry and on exit and, with
    an ``interval``, every ``interval`` seconds in between from
    ``SIGALRM``.  A sample times ``loop``, which takes ``reference``
    seconds on the reference CPU.  The signal handler runs in the main thread between
    bytecodes, so a sample never overlaps a ``clock()`` reading of the
    work: each sample lies wholly inside or wholly outside a timed unit.
    Forked processes do not inherit the timer."""

    def __init__(self, interval: Optional[float] = None,
                 loop: Callable[[], object] = calibration_loop,
                 reference: float = REF_LOOP_S):
        self.interval = interval
        self.loop = loop
        self.reference = reference
        self.ends: List[float] = []
        self.loops: List[float] = []
        self._sums: List[float] = []
        self._previous = None
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired inside a sample that stalled
            return
        self._sampling = True
        t0 = clock()
        self.loop()
        t1 = clock()
        self.ends.append(t1)
        self.loops.append(t1 - t0)
        self._sampling = False

    def __enter__(self) -> "Speedometer":
        self.sample()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self._sums = list(itertools.accumulate(self.loops, initial=0.0))

    def sampled(self, t0: float, t1: float) -> float:
        """Time spent in samples between ``t0`` and ``t1``."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return self._sums[hi] - self._sums[lo]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The work timed from ``t0`` to ``t1``, in reference seconds."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        window = self.loops[max(lo - 1, 0):hi + 1]
        work = t1 - t0 - (self._sums[hi] - self._sums[lo])
        return work * self.reference * len(window) / sum(window)
