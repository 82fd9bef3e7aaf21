"""Tests of the calibrated clock.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import os
import signal
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calclock import CalibratedClock, calibration_unit  # noqa: E402

REF = 0.001


class SimulatedMachine:
    """A clock that advances only by work; ``speed`` scales every operation,
    program and probe alike, as a slower virtual CPU does."""

    def __init__(self):
        self.t = 0.0
        self.speed = 1.0

    def timer(self) -> float:
        return self.t

    def work(self, amount: float) -> None:
        self.t += amount / self.speed

    def probe(self) -> float:
        unit = REF / self.speed
        self.t += unit
        return unit


def simulated_clock(machine: SimulatedMachine) -> CalibratedClock:
    clock = CalibratedClock(ref_unit_s=REF, probe=machine.probe, timer=machine.timer, cpu_timer=machine.timer)
    clock.start(use_signal=False)
    return clock


class SimulatedSlowdown(unittest.TestCase):
    def test_fixed_work_reads_the_same_at_any_speed(self):
        readings = []
        for speed in (1.0, 0.5, 0.25):
            machine = SimulatedMachine()
            machine.speed = speed
            clock = simulated_clock(machine)
            start = clock.read()
            for _ in range(8):
                machine.work(0.2)
                clock.sample()
            end = clock.read()
            readings.append(end[0] - start[0])
            self.assertAlmostEqual(end[2] - start[2], 1.6 / speed)  # raw time grows
            self.assertAlmostEqual(end[1] - start[1], end[0] - start[0])  # cpu tracks wall
        for value in readings:
            self.assertAlmostEqual(value, 1.6)

    def test_slowdown_in_the_middle_of_an_interval(self):
        machine = SimulatedMachine()
        clock = simulated_clock(machine)
        start = clock.read()
        machine.work(1.0)
        machine.speed = 0.5  # the machine slows down; the next probe sees it
        clock.sample()
        machine.work(1.0)
        clock.sample()
        machine.speed = 1.0
        clock.sample()
        machine.work(1.0)
        end = clock.read()
        self.assertAlmostEqual(end[0] - start[0], 3.0)
        self.assertAlmostEqual(end[2] - start[2], 4.0)

    def test_probe_time_is_excluded(self):
        machine = SimulatedMachine()
        clock = simulated_clock(machine)
        start, probed = clock.read(), clock.probe_s
        for _ in range(100):
            clock.sample()  # probes only, no work
        end = clock.read()
        self.assertEqual(end[0] - start[0], 0.0)
        self.assertEqual(end[2] - start[2], 0.0)
        self.assertAlmostEqual(clock.probe_s - probed, 100 * REF)

    def test_now_agrees_with_read(self):
        machine = SimulatedMachine()
        clock = simulated_clock(machine)
        machine.work(0.3)
        machine.speed = 2.0
        clock.sample()
        machine.work(0.4)
        self.assertEqual(clock.now(), clock.read()[0])


class RealSignals(unittest.TestCase):
    def test_sampler_runs_and_is_excluded(self):
        previous = signal.getsignal(signal.SIGALRM)
        clock = CalibratedClock(period_s=0.02)
        t0 = time.perf_counter()
        clock.start()
        try:
            start = clock.read()
            while time.perf_counter() - t0 < 0.4:
                calibration_unit()
            end = clock.read()
        finally:
            clock.stop()
        elapsed = time.perf_counter() - t0
        self.assertGreater(len(clock.units), 5)
        self.assertGreater(clock.probe_s, 0.0)
        raw = end[2] - start[2]
        self.assertLess(raw, elapsed - 0.5 * clock.probe_s)
        self.assertGreater(end[0] - start[0], 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)


if __name__ == "__main__":
    unittest.main()
