"""Wall time adjusted for CPU contention from other tenants.

On a shared machine the same command can take twice as long, for minutes
at a time, when other tenants' work runs on the same physical cores.
Taking the fastest of a few repetitions does not remove that: a command of
a second or more seldom runs entirely in one of the sub-second stretches
when the core is free.

So while a timed call runs, a SIGALRM every ``INTERVAL_S`` seconds runs
the probe, a fixed pure-Python ``Fraction`` loop like the arithmetic the
program spends its time in, and records how long it took.  The probe slows
down with the machine as the call does.  A call's adjusted time is its
wall time less the probes, divided by the mean probe time during the
call, times ``REFERENCE_PROBE_S``: about the time the call would take on
an idle machine whose probe runs in that time.  The fastest probe of a
run is no substitute, since a run may see no idle moment at all.

On the machine this was written on, the probe slowed by up to 1.9x in
busy stretches while the adjusted times of single commands varied by 3-6%
(coefficient of variation), against 17-23% for their wall times.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
PROBE_STEPS = 200
# The fastest of 20 000 probes on an idle 2-vCPU Intel Xeon at 2.1 GHz
# under Python 3.11.7.
REFERENCE_PROBE_S = 0.36e-3


def probe() -> float:
    """Seconds taken by the fixed reference loop."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_STEPS):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return perf_counter() - start


class Timing:
    """One timed call: wall time less the probes run during it, and the
    mean probe time during it (one probe runs just before the call, so
    there is always one)."""

    __slots__ = ("seconds", "probe_s")

    def __init__(self, seconds: float, probe_s: float):
        self.seconds = seconds
        self.probe_s = probe_s


class Clock:
    """Times calls with probes; ``slowdowns`` holds, per timed call, its
    mean probe time over ``REFERENCE_PROBE_S``.

    The SIGALRM handler stays installed for the clock's life and does
    nothing between timed calls, so an alarm that lands late is harmless.
    """

    def __init__(self) -> None:
        self.slowdowns: list[float] = []
        self._probes: list[float] | None = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._probes is not None:
            self._probes.append(probe())

    def time(self, fn) -> tuple[object, Timing]:
        """``fn()`` and its timing; the timer is disarmed however ``fn`` ends."""
        probes = self._probes = [probe()]
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._probes = None
            wall = perf_counter() - start
        timing = Timing(wall - sum(probes[1:]), sum(probes) / len(probes))
        self.slowdowns.append(timing.probe_s / REFERENCE_PROBE_S)
        return result, timing


def adjusted(timing: Timing) -> float:
    """The timed call's duration at the reference probe speed."""
    return timing.seconds / timing.probe_s * REFERENCE_PROBE_S
