"""Times scaled to a reference host speed, and the per-call time cap.

Identical work on the shared 2-core VM this benchmark was built on took
from 0.7 to 1.2 times its usual time from one minute to the next, as the
host's other tenants came and went: the user CPU time of one homology
call moved by as much as wall time did.  A run of a minute cannot average
that out, so every time the benchmark reports is scaled to a reference
host speed.

While a run is timed, SIGALRM fires every ``PERIOD_S`` of wall time and
runs ``probe``, a fixed pure-Python loop that touches no pmcat code and
allocates nothing, so that it never sets off a garbage collection of
pmcat's objects.  For an interval of work, a call or a set-up, the clock
takes the wall time less the probes' own time, and multiplies it by
``REFERENCE_PROBE_S`` over the mean time of the probes that ran during
the interval, widened on both sides to at least ``MIN_PROBES`` for a
short one.  The result reads as seconds on a host on which the probe
takes ``REFERENCE_PROBE_S``.  The probes fire at even steps of wall
time, so their mean follows the host's speed over the interval.  The
unscaled times are printed beside the scaled ones.
"""

import signal
import statistics
import time

PERIOD_S = 0.05
PROBE_ROUNDS = 60
MIN_PROBES = 20
# The probe's typical time on the 2-core Xeon VM the benchmark was built
# on; a constant, so that scaled times of different runs compare.
REFERENCE_PROBE_S = 1.0e-3


class CallTimeout(BaseException):
    """Raised by the clock's tick in the middle of a call that exceeded
    its cap.  A BaseException, so that ``except Exception`` inside pmcat
    cannot swallow it."""


_NEXT = tuple((i * 167 + 13) & 255 for i in range(256))


def probe():
    """PROBE_ROUNDS x 250 steps through ``_NEXT``; every integer stays
    below 257, so Python takes them all from its small-int cache."""
    x = rounds = 0
    while rounds < PROBE_ROUNDS:
        i = 0
        while i < 250:
            x = _NEXT[x ^ (x >> 3)]
            i += 1
        rounds += 1
    return x


class Clock:
    """Ticks every ``PERIOD_S`` from construction to ``close``.  Each tick
    enforces ``deadline`` (a ``perf_counter`` value, or None) by raising
    ``CallTimeout``, then runs a probe unless ``probing`` is off, as in
    traced runs, whose spans would otherwise hold the probes."""

    def __init__(self, probing=True):
        self.probing = probing
        self.probes = []
        self.deadline = None
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise CallTimeout()
        if self.probing:
            start = time.perf_counter()
            probe()
            self.probes.append(time.perf_counter() - start)

    def mark(self):
        return time.perf_counter(), len(self.probes)

    def net(self, a, b):
        """Wall seconds from mark ``a`` to mark ``b``, less the probes
        that ran in between."""
        return b[0] - a[0] - sum(self.probes[a[1]:b[1]])

    def scaled(self, a, b, lo, hi):
        """Net seconds from mark ``a`` to mark ``b`` at the reference
        speed.  The probes used are those between the two marks, widened
        to ``MIN_PROBES`` but kept between marks ``lo`` and ``hi``, the
        bounds of the phase the interval belongs to (a pass, or a series
        of set-ups).  Unscaled when not probing."""
        seconds = self.net(a, b)
        if not self.probing:
            return seconds
        middle = (a[1] + b[1]) // 2
        first = max(lo[1], min(a[1], middle - MIN_PROBES // 2))
        last = min(hi[1], max(b[1], first + MIN_PROBES))
        first = max(lo[1], min(first, last - MIN_PROBES))
        return seconds * REFERENCE_PROBE_S / statistics.fmean(self.probes[first:last])
