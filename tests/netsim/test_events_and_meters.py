"""Tests for the event loop and clocks.  (The §7 measurements are
registry reads: tests/test_harness.py pins the replay window.)"""

import pytest

from repro.netsim.clock import SimClock, SkewedClock
from repro.netsim.events import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_cannot_rewind(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_skewed_view(self):
        base = SimClock(100.0)
        skewed = SkewedClock(base, skew=-2.5)
        assert skewed.now == 97.5
        base.advance_to(200.0)
        assert skewed.now == 197.5


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(3.0, lambda: log.append("c"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.at(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_after_is_relative(self):
        sim = Simulator(start=10.0)
        fired = []
        sim.after(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [15.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start=10.0)
        with pytest.raises(ValueError):
            sim.at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(2.0, lambda: log.append(2))
        sim.run_until(1.5)
        assert log == [1]
        assert sim.now == 1.5
        assert sim.pending == 1

    def test_every_fires_periodically(self):
        sim = Simulator()
        fired = []
        sim.every(60.0, lambda: fired.append(sim.now), until=300.0)
        sim.run()
        assert fired == [60.0, 120.0, 180.0, 240.0, 300.0]

    def test_every_with_custom_start(self):
        sim = Simulator()
        fired = []
        sim.every(10.0, lambda: fired.append(sim.now), until=35.0,
                  start=5.0)
        sim.run()
        assert fired == [5.0, 15.0, 25.0, 35.0]

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Simulator().every(0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.after(1.0, lambda: log.append(("inner", sim.now)))

        sim.at(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_runaway_guard(self):
        sim = Simulator()

        def forever():
            sim.after(1.0, forever)

        sim.after(1.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.at(float(i + 1), lambda: None)
        sim.run()
        assert sim.processed == 5
