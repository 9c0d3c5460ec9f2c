"""Tests for the reliable channel (the simulation's TCP)."""

import pytest

from repro.exchange.colo import default_nj_metro
from repro.net.addressing import EndpointAddress
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.reliable import (
    MAX_RETRIES,
    STORM_IN_FLIGHT,
    ReliableChannel,
    connect,
)
from repro.sim.kernel import MICROSECOND, MILLISECOND, Simulator


def _wire(sim, loss_prob=0.0, propagation_ns=1_000, rto_ns=200 * MICROSECOND):
    nic_a = Nic(sim, "nic.a", EndpointAddress("a", "orders"))
    nic_b = Nic(sim, "nic.b", EndpointAddress("b", "orders"))
    link = Link(
        sim, "wan", nic_a, nic_b,
        propagation_delay_ns=propagation_ns, loss_prob=loss_prob,
        queue_limit_bytes=10**9,
    )
    nic_a.attach(link)
    nic_b.attach(link)
    got_a, got_b = [], []
    a, b = connect(
        sim, nic_a, nic_b,
        on_message_a=got_a.append, on_message_b=got_b.append, rto_ns=rto_ns,
    )
    return a, b, got_a, got_b


def test_lossless_delivery_in_order():
    sim = Simulator(seed=1)
    a, b, got_a, got_b = _wire(sim)
    for i in range(20):
        a.send(("order", i))
    sim.run_until_idle()
    assert got_b == [("order", i) for i in range(20)]
    assert a.stats.retransmits == 0
    assert a.in_flight == 0


def test_bidirectional_with_piggybacked_acks():
    sim = Simulator(seed=1)
    a, b, got_a, got_b = _wire(sim)
    a.send("ping")
    sim.schedule_after(50_000, lambda: b.send("pong"))
    sim.run_until_idle()
    assert got_b == ["ping"]
    assert got_a == ["pong"]


def test_loss_triggers_retransmission_and_full_delivery():
    sim = Simulator(seed=7)
    a, b, got_a, got_b = _wire(sim, loss_prob=0.25)
    n = 200
    for i in range(n):
        sim.schedule_at(i * 20_000, lambda i=i: a.send(("m", i)))
    sim.run_until_idle()
    assert got_b == [("m", i) for i in range(n)]  # exactly once, in order
    assert a.stats.retransmits > 10  # the loss was real
    assert b.stats.duplicates >= 0
    assert a.in_flight == 0


def test_heavy_loss_still_converges():
    sim = Simulator(seed=3)
    a, b, got_a, got_b = _wire(sim, loss_prob=0.5)
    for i in range(50):
        sim.schedule_at(i * 100_000, lambda i=i: a.send(i))
    sim.run_until_idle()
    assert got_b == list(range(50))


def test_total_blackout_reports_failure():
    sim = Simulator(seed=1)
    failures = []
    nic_a = Nic(sim, "nic.a", EndpointAddress("a", "o"))
    nic_b = Nic(sim, "nic.b", EndpointAddress("b", "o"))
    link = Link(sim, "dead", nic_a, nic_b, loss_prob=1.0)
    nic_a.attach(link)
    nic_b.attach(link)
    channel = ReliableChannel(
        sim, "rel", nic_a, nic_b.address, on_failure=failures.append,
        rto_ns=50 * MICROSECOND,
    )
    channel.send("doomed")
    sim.run_until_idle()
    assert failures == ["doomed"]
    assert channel.stats.failures == 1
    assert channel.stats.retransmits == MAX_RETRIES
    assert channel.in_flight == 0


def test_rto_backoff_doubles():
    sim = Simulator(seed=1)
    nic_a = Nic(sim, "nic.a", EndpointAddress("a", "o"))
    nic_b = Nic(sim, "nic.b", EndpointAddress("b", "o"))
    link = Link(sim, "dead", nic_a, nic_b, loss_prob=1.0)
    nic_a.attach(link)
    nic_b.attach(link)
    sends = []
    original = nic_a.send

    def spy(packet):
        sends.append(sim.now)
        return original(packet)

    nic_a.send = spy
    channel = ReliableChannel(
        sim, "rel", nic_a, nic_b.address, rto_ns=100_000,
    )
    channel.send("x")
    sim.run_until_idle()
    gaps = [b - a for a, b in zip(sends, sends[1:])]
    # Each retransmission waits twice as long (up to the backoff cap).
    for earlier, later in zip(gaps, gaps[1:3]):
        assert later == 2 * earlier


def test_order_entry_over_lossy_metro_wan():
    """The realistic §2 case: orders from a Mahwah strategy to a
    Carteret venue over microwave, with rain. Everything arrives."""
    sim = Simulator(seed=9)
    metro = default_nj_metro()
    nic_a = Nic(sim, "nic.a", EndpointAddress("mahwah-gw", "orders"))
    nic_b = Nic(sim, "nic.b", EndpointAddress("carteret-oe", "orders"))
    link = metro.wan_link(
        sim, "mahwah", "carteret", nic_a, nic_b,
        medium="microwave", loss_prob=0.1,
    )
    nic_a.attach(link)
    nic_b.attach(link)
    got = []
    a, b = connect(sim, nic_a, nic_b, on_message_b=got.append,
                   rto_ns=600 * MICROSECOND)
    for i in range(100):
        sim.schedule_at(i * 500_000, lambda i=i: a.send(("order", i)))
    sim.run_until_idle()
    assert got == [("order", i) for i in range(100)]
    assert a.stats.retransmits > 0


def test_pure_acks_do_not_deliver():
    sim = Simulator(seed=1)
    a, b, got_a, got_b = _wire(sim)
    a.send("only-one")
    sim.run_until_idle()
    assert got_b == ["only-one"]
    assert got_a == []  # the ACK back to A carries no message
    assert a.stats.pure_acks >= 1


def test_storm_retransmits_count_timeouts_with_a_full_window():
    """A blackout with >= STORM_IN_FLIGHT unacked frames is a *storm*:
    every timeout in that state bumps the dedicated counter (and the
    chaos scenarios' storm metric rides it)."""
    sim = Simulator(seed=1)
    nic_a = Nic(sim, "nic.a", EndpointAddress("a", "o"))
    nic_b = Nic(sim, "nic.b", EndpointAddress("b", "o"))
    link = Link(sim, "dead", nic_a, nic_b, loss_prob=1.0)
    nic_a.attach(link)
    nic_b.attach(link)
    channel = ReliableChannel(
        sim, "rel", nic_a, nic_b.address, rto_ns=50 * MICROSECOND,
    )
    for i in range(STORM_IN_FLIGHT):
        channel.send(("m", i))
    sim.run_until_idle()
    assert channel.stats.storm_retransmits > 0
    assert channel.stats.storm_retransmits <= channel.stats.retransmits


def test_single_frame_blackout_is_not_a_storm():
    sim = Simulator(seed=1)
    nic_a = Nic(sim, "nic.a", EndpointAddress("a", "o"))
    nic_b = Nic(sim, "nic.b", EndpointAddress("b", "o"))
    link = Link(sim, "dead", nic_a, nic_b, loss_prob=1.0)
    nic_a.attach(link)
    nic_b.attach(link)
    channel = ReliableChannel(
        sim, "rel", nic_a, nic_b.address, rto_ns=50 * MICROSECOND,
    )
    channel.send("lonely")
    sim.run_until_idle()
    assert channel.stats.retransmits == MAX_RETRIES
    assert channel.stats.storm_retransmits == 0
