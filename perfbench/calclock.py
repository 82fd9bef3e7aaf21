"""Calibrated clock: wall and CPU time rescaled by a periodic speed probe.

On a shared virtual machine the speed of the CPU itself drifts by tens of
percent over minutes while no process waits, so raw seconds of the same work
spread widely.  This clock runs a fixed unit of stdlib-only work (a small
sparse product with ``Fraction`` coefficients, the same kind of arithmetic the
program does) every ``period_s`` seconds from a ``SIGALRM`` handler, and lets
time run at rate ``ref_unit_s / u`` until the next probe, where ``u`` is the
unit time just observed.  A calibrated second is therefore a second on a
machine where the unit takes ``ref_unit_s``.  The handler's own time is
excluded: the clock stands still while the probe runs.

The unit imports nothing from the program, so no change to the program can
move it, and ``REF_UNIT_S`` is a constant of the benchmark.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from fractions import Fraction

# Median probe time measured on the reference machine (2 vCPU, Python 3.11).
REF_UNIT_S = 0.000700
PERIOD_S = 0.1
PROBE_REPS = 5

_A = [((i, (3 * i) % 5, (7 * i) % 4, i % 3), Fraction(i + 1, 2 * i + 3)) for i in range(12)]
_B = [((i % 4, i % 3, (5 * i) % 7, (2 * i) % 5), Fraction(3 * i + 1, i + 2)) for i in range(12)]


def calibration_unit() -> int:
    """Fixed work: a 12x12-term sparse product over four exponents."""
    acc: dict = {}
    for ea, ca in _A:
        for eb, cb in _B:
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    return len(acc)


def probe_unit(timer=time.perf_counter) -> float:
    """Median of a few runs of the unit, so one interrupted run does not count."""
    runs = []
    for _ in range(PROBE_REPS):
        t0 = timer()
        calibration_unit()
        runs.append(timer() - t0)
    return statistics.median(runs)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class CalibratedClock:
    """Piecewise-linear clock whose rate is reset at every probe.

    ``read()`` returns ``(calibrated wall, calibrated cpu, raw wall, raw cpu)``
    in seconds since ``start()``, raw meaning only that probes are excluded; differences of two readings give calibrated
    durations.  ``probe``, ``timer`` and ``cpu_timer`` are injectable so the
    calibration can be tested against a simulated slowdown.
    """

    def __init__(
        self,
        ref_unit_s: float = REF_UNIT_S,
        period_s: float = PERIOD_S,
        probe=probe_unit,
        timer=time.perf_counter,
        cpu_timer=cpu_seconds,
    ):
        self.ref_unit_s = ref_unit_s
        self.period_s = period_s
        self._probe = probe
        self._timer = timer
        self._cpu_timer = cpu_timer
        self.units: list = []
        self.probe_s = 0.0
        self._running = False
        self._old_handler = None

    def start(self, use_signal: bool = True) -> None:
        # state: (wall, cpu, raw wall, raw cpu, timer and cpu timer at slice
        # start, rate); replaced as one tuple so a reader interrupted by the
        # handler never mixes two slices
        self._state = (0.0, 0.0, 0.0, 0.0, self._timer(), self._cpu_timer(), 1.0)
        self.sample()
        self._running = use_signal
        if use_signal:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self._running = False

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Close the current slice at its rate, probe, and set the next rate."""
        t0 = self._timer()
        c0 = self._cpu_timer()
        wall, cpu, raw, raw_cpu, t, c, rate = self._state
        unit = self._probe()
        self.units.append(unit)
        t1 = self._timer()
        self.probe_s += t1 - t0
        self._state = (
            wall + (t0 - t) * rate,
            cpu + (c0 - c) * rate,
            raw + (t0 - t),
            raw_cpu + (c0 - c),
            t1,
            self._cpu_timer(),
            self.ref_unit_s / unit,
        )

    def read(self) -> tuple:
        while True:
            state = self._state
            t = self._timer()
            c = self._cpu_timer()
            if state is self._state:
                break
        wall, cpu, raw, raw_cpu, t0, c0, rate = state
        return (wall + (t - t0) * rate, cpu + (c - c0) * rate, raw + (t - t0), raw_cpu + (c - c0))

    def now(self) -> float:
        """Calibrated wall time only (the tracer's span clock)."""
        while True:
            state = self._state
            t = self._timer()
            if state is self._state:
                return state[0] + (t - state[4]) * state[6]

    def median_unit_s(self) -> float:
        return statistics.median(self.units)
