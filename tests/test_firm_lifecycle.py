"""Tests for the firm-stack lifecycle state machine and its watchdog."""

from repro.firm.lifecycle import (
    DEGRADED,
    READY,
    RECOVERED,
    TRANSITIONS,
    WARMING,
    FirmLifecycle,
    FleetView,
)
from repro.sim.kernel import MILLISECOND, Simulator


class FakeHandler:
    """Just enough of a FeedHandler: an open-gap set the watchdog can
    declare away."""

    def __init__(self):
        self.open_gaps = set()
        self.declared = []

    def gaps(self):
        return set(self.open_gaps)

    def declare_loss(self, group):
        self.declared.append(group)
        self.open_gaps.discard(group)


def _machine(sim=None, grace_ns=1 * MILLISECOND):
    sim = sim or Simulator(seed=1)
    handler = FakeHandler()
    return FirmLifecycle(sim, "lifecycle.test", handler, grace_ns), handler, sim


def test_warming_to_ready_on_first_clean_feed():
    machine, _, _ = _machine()
    assert machine.state == WARMING
    assert not machine.ready
    machine.on_feed(500, gap_open=False)
    assert machine.state == READY
    assert machine.ready and machine.order_safe
    assert machine.ready_after_ns == 500


def test_gap_degrades_then_fill_recovers():
    machine, handler, _ = _machine()
    machine.on_feed(100, gap_open=False)
    handler.open_gaps = {"g"}
    machine.on_feed(200, gap_open=True)
    assert machine.state == DEGRADED
    assert not machine.order_safe
    handler.open_gaps = set()
    machine.on_feed(900, gap_open=False)
    assert machine.state == RECOVERED
    assert machine.ready and machine.order_safe
    assert machine.recovery_ns == 700
    assert machine.degraded_windows == 1


def test_recovery_waits_for_every_gap_to_close():
    machine, handler, _ = _machine()
    machine.on_feed(100, gap_open=False)
    handler.open_gaps = {"g1", "g2"}
    machine.on_feed(200, gap_open=True)
    handler.open_gaps = {"g2"}  # one arbiter whole, the other still gapped
    machine.on_feed(300, gap_open=False)
    assert machine.state == DEGRADED
    handler.open_gaps = set()
    machine.on_feed(400, gap_open=False)
    assert machine.state == RECOVERED


def test_watchdog_declares_loss_after_grace():
    sim = Simulator(seed=1)
    machine, handler, _ = _machine(sim, grace_ns=1 * MILLISECOND)
    machine.on_feed(0, gap_open=False)
    handler.open_gaps = {"stuck"}

    def open_gap():
        machine.on_feed(sim.now, gap_open=True)

    sim.schedule_at(100, open_gap)
    sim.run_until_idle()
    assert handler.declared == ["stuck"]
    assert machine.state == RECOVERED
    assert machine.recovery_ns == 1 * MILLISECOND


def test_watchdog_stands_down_when_the_gap_already_filled():
    sim = Simulator(seed=1)
    machine, handler, _ = _machine(sim)
    machine.on_feed(0, gap_open=False)
    handler.open_gaps = {"g"}
    sim.schedule_at(100, lambda: machine.on_feed(100, gap_open=True))

    def fill():
        handler.open_gaps = set()
        machine.on_feed(sim.now, gap_open=False)

    sim.schedule_at(500, fill)
    sim.run_until_idle()
    assert handler.declared == []  # the watchdog found nothing to declare
    assert machine.state == RECOVERED
    assert machine.recovery_ns == 400


def test_observed_transitions_stay_inside_the_legal_relation():
    sim = Simulator(seed=1)
    machine, handler, _ = _machine(sim, grace_ns=1 * MILLISECOND)
    machine.on_feed(0, gap_open=False)
    for start in (100, 3_000_000):
        handler.open_gaps = {"g"}
        sim.schedule_at(start, lambda: machine.on_feed(sim.now, gap_open=True))
    sim.run_until_idle()
    states = [state for state, _ in machine.transitions]
    times = [t for _, t in machine.transitions]
    assert states[0] == WARMING
    assert times == sorted(times)
    for prev, nxt in zip(states, states[1:]):
        assert nxt in TRANSITIONS[prev], f"illegal edge {prev} -> {nxt}"
    assert machine.degraded_windows == 2
    summary = machine.summary()
    assert summary["degraded_windows"] == 2
    assert summary["transitions"] == [[s, t] for s, t in machine.transitions]


def test_fleet_view_gates_orders_on_any_degraded_machine():
    sim = Simulator(seed=1)
    healthy, _, _ = _machine(sim)
    sick, sick_handler, _ = _machine(sim)
    healthy.on_feed(0, gap_open=False)
    sick.on_feed(0, gap_open=False)
    fleet = FleetView([healthy, sick])
    assert fleet.order_safe
    sick_handler.open_gaps = {"g"}
    sick.on_feed(100, gap_open=True)
    assert not fleet.order_safe
    sick_handler.open_gaps = set()
    sick.on_feed(200, gap_open=False)
    assert fleet.order_safe
