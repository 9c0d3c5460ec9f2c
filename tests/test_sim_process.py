"""Tests for components and timers."""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Component, Timer


def test_component_requires_name():
    sim = Simulator()
    with pytest.raises(ValueError):
        Component(sim, "")


def test_component_call_after_and_at():
    sim = Simulator()
    component = Component(sim, "c")
    fired = []
    component.call_after(10, fired.append, "after")
    component.call_at(25, fired.append, "at")
    sim.run()
    assert fired == ["after", "at"]
    assert component.now == 25


def test_call_after_returns_a_cancellable_token():
    sim = Simulator()
    component = Component(sim, "c")
    fired = []
    sim.cancel(component.call_after(10, fired.append, "after"))
    sim.cancel(component.call_at(25, fired.append, "at"))
    sim.run()
    assert fired == []
    assert sim.pending == 0


def test_component_start_is_idempotent():
    component = Component(Simulator(), "c")
    component.start()
    component.start()
    assert component._started


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(100)
    sim.run()
    assert fired == [100]
    assert not timer.armed


def test_timer_double_start_rejected():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(10)
    with pytest.raises(SimulationError):
        timer.start(10)


def test_timer_restart_supersedes_pending_expiry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(100)
    sim.schedule_after(50, lambda: timer.restart(100))
    sim.run()
    assert fired == [150]  # the original 100 expiry never fired


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(100)
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.armed


def test_timer_can_rearm_after_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(10)
    sim.run()
    timer.start(10)
    sim.run()
    assert fired == [10, 20]
