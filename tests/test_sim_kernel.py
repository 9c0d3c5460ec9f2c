"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    EV_CANCELLED,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    SimulationError,
    Simulator,
    format_ns,
)


def test_time_starts_at_zero():
    assert Simulator().now == 0


def test_schedule_after_advances_time():
    sim = Simulator()
    fired = []
    sim.schedule_after(150, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [150]
    assert sim.now == 150


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(42, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [42]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule_after(100, order.append, (tag,))
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_same_time_ties():
    sim = Simulator()
    order = []
    sim.schedule_after(100, order.append, ("low",), priority=5)
    sim.schedule_after(100, order.append, ("high",), priority=-5)
    sim.run()
    assert order == ["high", "low"]


def test_events_fire_in_time_order_regardless_of_insertion():
    sim = Simulator()
    times = []
    for delay in (500, 100, 300, 200, 400):
        sim.schedule_after(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    token = sim.schedule_after(10, lambda: fired.append(1))
    sim.cancel(token)
    sim.run()
    assert fired == []
    assert token[EV_CANCELLED] is True


def test_cancel_is_idempotent():
    sim = Simulator()
    token = sim.schedule_after(10, lambda: None)
    sim.cancel(token)
    sim.cancel(token)
    assert token[EV_CANCELLED] is True
    assert sim.pending == 0


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule_after(100, lambda: fired.append("a"))
    sim.schedule_after(2_000, lambda: fired.append("b"))
    sim.run(until=1_000)
    assert fired == ["a"]
    assert sim.now == 1_000  # advanced exactly to the boundary
    sim.run(until=3_000)
    assert fired == ["a", "b"]


def test_run_until_exactly_on_event_time_includes_event():
    sim = Simulator()
    fired = []
    sim.schedule_after(1_000, lambda: fired.append(1))
    sim.run(until=1_000)
    assert fired == [1]


def test_events_can_schedule_more_events():
    sim = Simulator()
    trace = []

    def chain(depth):
        trace.append((sim.now, depth))
        if depth < 3:
            sim.schedule_after(10, chain, (depth + 1,))

    sim.schedule_after(0, chain, (0,))
    sim.run()
    assert trace == [(0, 0), (10, 1), (20, 2), (30, 3)]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule_after(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)
    with pytest.raises(SimulationError, match=r"cannot schedule at t=90 \(now is t=100\)"):
        sim.schedule_after(-10, lambda: None)


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule_after(1, lambda: (fired.append(1), sim.stop()))
    sim.schedule_after(2, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_max_events_bound():
    sim = Simulator()
    count = []

    def rearm():
        count.append(1)
        sim.schedule_after(1, rearm)

    sim.schedule_after(1, rearm)
    executed = sim.run(max_events=100)
    assert executed == 100


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def rearm():
        sim.schedule_after(1, rearm)

    sim.schedule_after(1, rearm)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=50)


def test_reentrant_run_rejected():
    sim = Simulator()

    def inner():
        sim.run()

    sim.schedule_after(1, inner)
    with pytest.raises(SimulationError):
        sim.run()


def test_trace_hook_sees_every_event():
    sim = Simulator()
    seen = []
    sim.add_trace_hook(lambda t, cb: seen.append(t))
    sim.schedule_after(5, lambda: None)
    sim.schedule_after(9, lambda: None)
    sim.run()
    assert seen == [5, 9]


def test_events_executed_counter_accumulates():
    sim = Simulator()
    for i in range(7):
        sim.schedule_after(i + 1, lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_unit_constants():
    assert MICROSECOND == 1_000
    assert MILLISECOND == 1_000_000
    assert SECOND == 1_000_000_000


def test_format_ns_ranges():
    assert format_ns(42) == "42ns"
    assert format_ns(1_500) == "1.500us"
    assert format_ns(2_500_000) == "2.500ms"
    assert format_ns(3 * SECOND) == "3.000000s"
