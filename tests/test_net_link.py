"""Tests for the link model: serialization, queueing, loss, propagation."""

import sys

import pytest

from repro.chaos.inject import ChaosController
from repro.chaos.spec import parse_faults
from repro.net.addressing import EndpointAddress
from repro.net.link import (
    ETHERNET_OVERHEAD_BYTES,
    Link,
    SPEED_IN_FIBER,
    SPEED_MICROWAVE,
    fiber_link,
    microwave_link,
    propagation_ns,
)
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams


class Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def handle_packet(self, packet, ingress):
        self.received.append(packet)


def _packet(wire=1000, payload=900):
    return Packet(
        src=EndpointAddress("a"), dst=EndpointAddress("b"),
        wire_bytes=wire, payload_bytes=payload,
    )


def _wire(sim, **kwargs):
    a, b = Sink("a"), Sink("b")
    defaults = dict(bandwidth_bps=10e9, propagation_delay_ns=100)
    defaults.update(kwargs)
    link = Link(sim, "l", a, b, **defaults)
    return link, a, b


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    link, a, b = _wire(sim)
    packet = _packet(wire=1000)
    arrivals = []
    b.handle_packet = lambda p, i: arrivals.append(sim.now)
    link.send(packet, a)
    sim.run()
    expected_ser = round((1000 + ETHERNET_OVERHEAD_BYTES) * 8 / 10e9 * 1e9)
    assert arrivals == [expected_ser + 100]


def test_serialization_scales_with_bandwidth():
    sim = Simulator()
    slow, a, _ = _wire(sim, bandwidth_bps=1e9)
    fast, c, _ = _wire(sim, bandwidth_bps=100e9)
    assert slow.serialization_ns(1000) == pytest.approx(
        100 * fast.serialization_ns(1000), rel=0.01
    )


def test_back_to_back_frames_queue_behind_transmitter():
    sim = Simulator()
    link, a, b = _wire(sim, propagation_delay_ns=0)
    arrivals = []
    b.handle_packet = lambda p, i: arrivals.append(sim.now)
    for _ in range(3):
        link.send(_packet(wire=1000), a)
    sim.run()
    ser = link.serialization_ns(1000)
    assert arrivals == [ser, 2 * ser, 3 * ser]
    stats = link.stats_from(a)
    assert stats.packets_sent == 3
    # The second and third frames waited in the queue.
    assert stats.queue_delay_total_ns == ser + 2 * ser
    assert stats.queue_delay_max_ns == 2 * ser


def test_full_duplex_directions_are_independent():
    sim = Simulator()
    link, a, b = _wire(sim)
    a_got, b_got = [], []
    a.handle_packet = lambda p, i: a_got.append(sim.now)
    b.handle_packet = lambda p, i: b_got.append(sim.now)
    link.send(_packet(), a)
    link.send(_packet(), b)
    sim.run()
    # Both directions delivered at the same time: no shared contention.
    assert a_got == b_got


def test_queue_limit_drops_tail():
    sim = Simulator()
    link, a, b = _wire(sim, queue_limit_bytes=2500)
    accepted = [link.send(_packet(wire=1000), a) for _ in range(4)]
    # First starts transmitting immediately (still counted in queue until
    # started); two more fit in 2500B; the fourth is tail-dropped.
    assert accepted.count(False) >= 1
    stats = link.stats_from(a)
    assert stats.packets_dropped_queue >= 1
    sim.run()
    assert len(b.received) + stats.packets_dropped_queue == 4


def test_lossy_link_drops_at_configured_rate():
    sim = Simulator(seed=42)
    link, a, b = _wire(sim, loss_prob=0.3, propagation_delay_ns=1)
    n = 2000
    for _ in range(n):
        link.send(_packet(wire=100, payload=50), a)
    sim.run()
    loss_rate = link.stats_from(a).packets_lost / n
    assert 0.25 < loss_rate < 0.35
    assert len(b.received) == n - link.stats_from(a).packets_lost


def test_zero_loss_link_delivers_everything():
    sim = Simulator()
    link, a, b = _wire(sim)
    for _ in range(50):
        link.send(_packet(), a)
    sim.run()
    assert len(b.received) == 50


def test_utilization_reflects_busy_time():
    sim = Simulator()
    link, a, b = _wire(sim, propagation_delay_ns=0)
    link.send(_packet(wire=1000), a)
    sim.run()
    ser = link.serialization_ns(1000)
    assert link.stats_from(a).utilization(2 * ser) == pytest.approx(0.5)


def test_propagation_physics():
    # 50 km of fiber is ~250 us; microwave over the same path is faster.
    fiber_ns = propagation_ns(50_000, SPEED_IN_FIBER)
    microwave_ns = propagation_ns(50_000, SPEED_MICROWAVE)
    assert 240_000 < fiber_ns < 260_000
    assert microwave_ns < fiber_ns * 0.7


def test_microwave_vs_fiber_link_factories():
    sim = Simulator()
    a, b = Sink("a"), Sink("b")
    mw = microwave_link(sim, "mw", a, b, distance_m=50_000)
    fb = fiber_link(sim, "fb", Sink("c"), Sink("d"), distance_m=50_000)
    # Microwave wins on latency (straight path + air) despite loss.
    assert mw.propagation_delay_ns < fb.propagation_delay_ns
    assert mw.loss_prob > 0.0
    assert fb.loss_prob == 0.0
    assert mw.bandwidth_bps < fb.bandwidth_bps


def test_send_from_unattached_device_rejected():
    sim = Simulator()
    link, a, b = _wire(sim)
    with pytest.raises(ValueError):
        link.send(_packet(), Sink("stranger"))
    with pytest.raises(ValueError):
        link.stats_from(Sink("stranger"))
    assert link.other_end(a) is b


def test_link_validation():
    sim = Simulator()
    a, b = Sink("a"), Sink("b")
    with pytest.raises(ValueError):
        Link(sim, "bad", a, b, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, "bad", a, b, loss_prob=1.5)
    with pytest.raises(ValueError):
        Link(sim, "bad", a, a)


def test_assigning_bandwidth_discards_memoised_serialization_times():
    sim = Simulator()
    link, _, _ = _wire(sim, bandwidth_bps=10e9)
    at_10g = link.serialization_ns(1000)
    assert link.serialization_ns(1000) == at_10g  # memo hit
    link.bandwidth_bps = 1e9
    assert link.serialization_ns(1000) == round(
        (1000 + ETHERNET_OVERHEAD_BYTES) * 8 / 1e9 * 1e9
    )
    link.bandwidth_bps = 10e9
    assert link.serialization_ns(1000) == at_10g


def test_idle_and_queued_frames_account_the_same_way():
    """A frame sent to an idle transmitter skips the queue; its stats and
    the timing of the frames queued behind it are what the queue gives."""
    sim = Simulator()
    link, a, b = _wire(sim)
    arrivals = []
    b.handle_packet = lambda p, i: arrivals.append(sim.now)
    for _ in range(3):
        assert link.send(_packet(wire=1000), a)
    assert link.queued_bytes_from(a) == 2000  # the first is on the wire
    sim.run()
    ser = link.serialization_ns(1000)
    assert arrivals == [ser + 100, 2 * ser + 100, 3 * ser + 100]
    stats = link.stats_from(a)
    assert (stats.packets_sent, stats.bytes_sent, stats.busy_ns) == (3, 3000, 3 * ser)
    assert stats.queue_delay_total_ns == ser + 2 * ser
    assert stats.queue_delay_max_ns == 2 * ser


def test_dark_idle_hop_is_one_event_and_five_python_calls():
    """Serialization and propagation of a frame that meets an idle,
    lossless transmitter are one kernel event: the delivery."""
    sim = Simulator()
    link, a, b = _wire(sim)
    arrivals = []
    b.handle_packet = lambda p, i: arrivals.append(sim.now)
    link.serialization_ns(1000)  # memo warm, as on every hop but a size's first
    sim.schedule_at(1_000, link.send, (_packet(wire=1000), a))
    sim.run(until=999)
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    ser = link.serialization_ns(1000)
    assert arrivals == [1_000 + ser + 100]
    link_calls = [c for c in calls if c not in ("run", "<lambda>")]
    assert len(link_calls) <= 5, link_calls
    assert sim.events_executed == 2  # the send, then one event for the hop


def test_back_to_back_frames_arrive_one_serialization_apart():
    sim = Simulator()
    link, a, b = _wire(sim, propagation_delay_ns=250)
    arrivals = []
    b.handle_packet = lambda p, i: arrivals.append(sim.now)
    n, t = 5, 3_000

    def burst():
        for _ in range(n):
            assert link.send(_packet(wire=1000), a)

    sim.schedule_at(t, burst)
    sim.run()
    ser = link.serialization_ns(1000)
    assert arrivals == [t + k * ser + 250 for k in range(1, n + 1)]
    stats = link.stats_from(a)
    assert stats.packets_delivered == n
    assert stats.busy_ns == n * ser
    assert stats.queue_delay_total_ns == sum(k * ser for k in range(n))
    assert stats.queue_delay_max_ns == (n - 1) * ser
    assert link.queued_bytes_from(a) == 0


@pytest.mark.parametrize(
    "opens_at, closes_at, delivered",
    [
        (400, 10_400, False),  # opens while the frame serializes: lost
        (816, 10_816, False),  # opens the instant serialization ends: lost
        (817, 10_817, True),  # opens while the frame propagates: kept
        (0, 400, True),  # closes before serialization ends: kept
    ],
)
def test_link_down_window_loses_a_frame_only_while_it_serializes(
    opens_at, closes_at, delivered
):
    """Loss is decided when the last bit leaves the transmitter, as it
    was when serialization and propagation were separate events."""
    sim = Simulator(seed=1)
    link, a, b = _wire(sim)
    ChaosController(
        sim, sim.components,
        parse_faults([{"kind": "link_down", "target": "l", "at_ns": opens_at,
                       "duration_ns": closes_at - opens_at}]),
    )
    assert link.serialization_ns(1000) == 816
    sim.schedule_at(0 if opens_at else 100, link.send, (_packet(wire=1000), a))
    sim.run_until_idle()
    stats = link.stats_from(a)
    assert (len(b.received), stats.packets_lost) == (
        (1, 0) if delivered else (0, 1)
    )
    assert link.loss_prob == 0.0


def test_lossy_link_draws_in_end_of_serialization_order():
    """Both directions share the link's ``link.loss.<name>`` stream and
    draw from it in the order their frames finish serializing."""
    seed, loss = 3, 0.5
    sim = Simulator(seed=seed)
    link, a, b = _wire(sim, loss_prob=loss)
    ab = [_packet(wire=1000) for _ in range(6)]  # 816 ns each
    ba = [_packet(wire=500, payload=400) for _ in range(9)]  # 416 ns each
    for packet in ab:
        link.send(packet, a)
    for packet in ba:
        link.send(packet, b)
    sim.run()
    ends = sorted(
        [(k * link.serialization_ns(1000), "ab", p) for k, p in enumerate(ab, 1)]
        + [(k * link.serialization_ns(500), "ba", p) for k, p in enumerate(ba, 1)],
        key=lambda end: end[0],
    )
    assert len({end for end, _, _ in ends}) == len(ends)  # no ties
    rng = RngStreams(seed).stream("link.loss.l")
    kept = {"ab": [], "ba": []}
    for _end, direction, packet in ends:
        if not rng.random() < loss:
            kept[direction].append(packet)
    assert b.received == kept["ab"]
    assert a.received == kept["ba"]
    assert 0 < len(b.received) + len(a.received) < len(ends)
