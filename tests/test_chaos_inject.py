"""Tests for the chaos controller: kernel-driven fault windows."""

import pytest

from repro.chaos.inject import ChaosController
from repro.chaos.spec import parse_faults
from repro.net.addressing import EndpointAddress
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.switch import SWITCH_GENERATIONS, CommoditySwitch
from repro.sim.kernel import Simulator


class Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def handle_packet(self, packet, ingress):
        self.received.append(packet)


def _packet(src="a", dst="b", wire=1000):
    return Packet(
        src=EndpointAddress(src), dst=EndpointAddress(dst),
        wire_bytes=wire, payload_bytes=wire - 100,
    )


def _link(sim, **kwargs):
    a, b = Sink("a"), Sink("b")
    defaults = dict(bandwidth_bps=10e9, propagation_delay_ns=100)
    defaults.update(kwargs)
    return Link(sim, "wire", a, b, **defaults), a, b


def _faults(*dicts):
    return parse_faults(dicts)


def test_controller_resolves_targets_in_the_registry_it_is_given():
    """Devices register with their simulator as they are built; the
    controller filters that registry by device class and name."""
    sim = Simulator(seed=1)
    link, _, _ = _link(sim)
    switch = CommoditySwitch(sim, "spine0", SWITCH_GENERATIONS[0])
    nic = Nic(sim, "nic.a", EndpointAddress("a"))
    assert sim.components == [link, switch, nic]
    controller = ChaosController(
        sim, sim.components,
        _faults(
            {"kind": "link_down", "target": "*", "at_ns": 0, "duration_ns": 1},
            {"kind": "switch_fail", "target": "*", "at_ns": 0, "duration_ns": 1},
            {"kind": "nic_drop", "target": "*", "magnitude": 0.5,
             "at_ns": 0, "duration_ns": 1},
        ),
    )
    assert [w.device for w in controller.windows] == [link, switch, nic]


def test_unmatched_target_is_a_loud_error_naming_known_devices():
    sim = Simulator(seed=1)
    link, _, _ = _link(sim)
    with pytest.raises(ValueError) as excinfo:
        ChaosController(
            sim, sim.components,
            _faults({"kind": "link_down", "target": "wrie",
                     "at_ns": 0, "duration_ns": 10}),
        )
    message = str(excinfo.value)
    assert "wrie" in message and "wire" in message


def test_link_down_window_drops_then_restores():
    sim = Simulator(seed=1)
    link, a, b = _link(sim)
    ChaosController(
        sim, sim.components,
        _faults({"kind": "link_down", "target": "wire",
                 "at_ns": 1_000, "duration_ns": 10_000}),
    )
    # One frame inside the window, one after it closes.
    sim.schedule_at(2_000, lambda: link.send(_packet(), a))
    sim.schedule_at(20_000, lambda: link.send(_packet(), a))
    sim.run_until_idle()
    assert len(b.received) == 1
    assert link.loss_prob == 0.0  # restored


def test_link_rate_window_scales_and_restores_bandwidth():
    sim = Simulator(seed=1)
    link, _, _ = _link(sim, bandwidth_bps=10e9)
    controller = ChaosController(
        sim, sim.components,
        _faults({"kind": "link_rate", "target": "wire", "magnitude": 0.1,
                 "at_ns": 1_000, "duration_ns": 1_000}),
    )
    observed = []
    saved_ns = link.serialization_ns(1000)  # memoised at the saved rate
    sim.schedule_at(
        1_500,
        lambda: observed.append((link.bandwidth_bps, link.serialization_ns(1000))),
    )
    sim.run_until_idle()
    assert observed == [(pytest.approx(1e9), pytest.approx(10 * saved_ns, rel=0.01))]
    assert link.bandwidth_bps == pytest.approx(10e9)
    assert link.serialization_ns(1000) == saved_ns
    summary = controller.summary()
    assert summary["fault_windows"][0]["applied"] is True


def test_switch_fail_window_blackholes_then_restores():
    sim = Simulator(seed=1)
    switch = CommoditySwitch(sim, "spine0", SWITCH_GENERATIONS[0])
    ChaosController(
        sim, sim.components,
        _faults({"kind": "switch_fail", "target": "spine*",
                 "at_ns": 500, "duration_ns": 1_000}),
    )
    states = []
    for t in (400, 600, 2_000):
        sim.schedule_at(t, lambda: states.append(switch.failed))
    sim.run_until_idle()
    assert states == [False, True, False]


def test_nic_drop_draws_from_its_own_stream_and_restores():
    sim = Simulator(seed=1)
    nic_a = Nic(sim, "nic.a", EndpointAddress("a"))
    nic_b = Nic(sim, "nic.b", EndpointAddress("b"))
    link = Link(sim, "wire", nic_a, nic_b, propagation_delay_ns=10)
    nic_a.attach(link)
    nic_b.attach(link)
    got = []
    nic_b.bind(got.append)
    ChaosController(
        sim, sim.components,
        _faults({"kind": "nic_drop", "target": "nic.b", "magnitude": 0.5,
                 "at_ns": 0, "duration_ns": 10_000_000}),
    )
    for i in range(200):
        sim.schedule_at(1_000 + i * 10_000, lambda: nic_a.send(_packet(dst="b")))
    sim.run_until_idle()
    dropped = nic_b.stats.packets_chaos_dropped
    assert dropped > 0
    assert len(got) + dropped == 200
    assert nic_b.chaos_drop_prob == 0.0  # restored after the window


def test_same_seed_same_chaos_drops():
    def run():
        sim = Simulator(seed=9)
        nic_a = Nic(sim, "nic.a", EndpointAddress("a"))
        nic_b = Nic(sim, "nic.b", EndpointAddress("b"))
        link = Link(sim, "wire", nic_a, nic_b, propagation_delay_ns=10)
        nic_a.attach(link)
        nic_b.attach(link)
        nic_b.bind(lambda payload: None)
        ChaosController(
            sim, sim.components,
            _faults({"kind": "nic_drop", "target": "nic.b",
                     "magnitude": 0.3, "at_ns": 0,
                     "duration_ns": 10_000_000}),
        )
        for i in range(100):
            sim.schedule_at(1_000 + i * 10_000, lambda: nic_a.send(_packet(dst="b")))
        sim.run_until_idle()
        return nic_b.stats.packets_chaos_dropped

    assert run() == run()


def test_glob_target_matches_every_device_in_sorted_order():
    sim = Simulator(seed=1)
    links = [_link(sim)[0] for _ in range(1)]
    switches = [
        CommoditySwitch(sim, f"spine{i}", SWITCH_GENERATIONS[0])
        for i in range(3)
    ]
    controller = ChaosController(
        sim, sim.components,
        _faults({"kind": "switch_fail", "target": "spine*",
                 "at_ns": 0, "duration_ns": 10}),
    )
    names = [w.device.name for w in controller.windows]
    assert names == ["spine0", "spine1", "spine2"]
