"""Timings at a reference speed of the machine.

On a shared machine the speed the processor gives one process changes from
second to second and between regimes lasting minutes (by 25-40% on the
2-core box this was tuned on), so the same operations timed in two runs
differ by as much. To take that out, a Pace samples the machine's speed
with a fixed reference unit while the benchmark measures, and reports each
measured call's time scaled by the unit's nominal time over its time
measured around the call: the time the call would have taken at the speed
at which the unit takes exactly its nominal time.

Calls in this process are sampled with ``unit``, row reduction of a fixed
6x7 rational matrix -- the same kind of Fraction arithmetic splicefan does,
without importing splicefan. Every INTERVAL_S of wall time a timer signal
runs one unit. A call's time, less the time its own samples took, is
scaled by REF_UNIT_S over the mean of the samples taken during it (or, for
a call too short to hold one, the samples just before and just after it).
The unit runs with the garbage collector off, so that the collector's work
on the program's objects is charged to the program, not to the reference.

Calls that wait on a child process are sampled with ``child_unit``, an
interpreter that imports numpy (``python -c "import numpy"``): the
children spend most of their time starting an interpreter and importing
numpy, whose speed -- process start, file lookups, loading native
libraries -- changes apart from that of Python arithmetic (and of an
empty interpreter), and a sample taken while a child runs competes with
it for the processor. So after each such call, child units take about
SHARE of its time, and the call is scaled by REF_CHILD_S over the mean of
the child units just before and just after it. numpy is a dependency, not
splicefan: a change to splicefan, such as importing numpy lazily, moves
the children but not the unit.
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REF_UNIT_S = 0.001   # one unit takes 1 ms at the reference speed
REF_CHILD_S = 0.2    # one child unit takes 200 ms at the reference speed
INTERVAL_S = 0.01    # a unit every 10 ms of wall time (about a tenth of it)
SHARE = 0.1          # child-unit time after each call, per second of the call
WARMUP_UNITS = 20

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 4, 1 + (i * j) % 5) for j in range(7)]
           for i in range(6)]


def unit():
    """Row-reduce the fixed matrix; returns its reduced row echelon form."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


def child_unit():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Pace:
    """Samples a reference unit and times calls.

    Use as a context manager around the calls made through ``call``; read
    the results with ``scaled`` or ``speeds`` after it has ended. With
    ``children`` the calls wait on child processes (see above).
    """

    def __init__(self, children=False):
        self.children = children
        self.unit, self.ref_s = (child_unit, REF_CHILD_S) if children else (unit, REF_UNIT_S)
        self.samples = []   # time of each unit, in order
        self.marks = []     # (start, end, samples before the call, samples at its end)
        self._sampling = False
        for _ in range(2 if children else WARMUP_UNITS):
            self.unit()

    def _sample(self, *_):
        if self._sampling:   # a tick during a tick's own unit is dropped
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self.unit()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self._sampling = False

    def __enter__(self):
        self._debt = 0.0
        self._sample()   # a sample before the first call
        if not self.children:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if not self.children:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()   # and one after the last
        return False

    def call(self, fn, *args, **kwargs):
        """Call fn, recording when it ran and which samples fell inside it."""
        first = len(self.samples)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.marks.append((start, end, first, len(self.samples)))
            if self.children:
                self._debt += SHARE * (end - start)
                while self._debt > 0:
                    self._sample()
                    self._debt -= self.samples[-1]

    def speeds(self):
        """For each call: (its time less its own samples, the mean unit time
        during it, or just before and after it)."""
        out = []
        for start, end, first, last in self.marks:
            inside = self.samples[first:last]
            near = inside or self.samples[max(first - 1, 0):last + 1]
            out.append((end - start - sum(inside), sum(near) / len(near)))
        return out

    def scaled(self):
        """Each call's time at the reference speed, in call order."""
        return [t * self.ref_s / unit_s for t, unit_s in self.speeds()]

    def mean_unit_s(self):
        return sum(self.samples) / len(self.samples)
