"""E6 — §3 multicast trends: table growth vs data growth, and overflow.

Two measurements:

1. the capability gap — multicast group capacity grew ~80% across switch
   generations while market data grew ~500%;
2. the failure mode — driving a switch past its mroute capacity pushes
   groups onto the software path, which is both slow and lossy
   ("cripples performance and induces heavy packet loss").
"""

import numpy as np
import pytest

from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import (
    CommoditySwitch,
    CURRENT_GENERATION,
    DECADE_AGO_GENERATION,
    SwitchProfile,
)
from repro.sim.kernel import MILLISECOND, Simulator
from repro.workload.growth import daily_event_counts, measured_growth_factor

PAPER_GROUP_GROWTH = 1.80  # "only 80% more multicast groups"
PAPER_DATA_GROWTH = 5.0  # "increased 500% over the last 5 years"


def test_capability_gap(benchmark, experiment_log):
    _, counts = benchmark.pedantic(daily_event_counts, rounds=1, iterations=1)
    data_growth = measured_growth_factor(counts)
    group_growth = (
        CURRENT_GENERATION.mroute_capacity / DECADE_AGO_GENERATION.mroute_capacity
    )
    experiment_log.add("E6/mcast-trend", "mroute capacity growth x",
                       PAPER_GROUP_GROWTH, group_growth, rel_band=0.05)
    experiment_log.add("E6/mcast-trend", "market data growth x",
                       PAPER_DATA_GROWTH, data_growth, rel_band=0.25)
    assert group_growth == pytest.approx(1.8, abs=0.05)
    assert data_growth > 2 * group_growth  # the gap the paper warns about


def _overflow_experiment() -> dict:
    """Blast traffic at hardware- and software-resident groups."""
    sim = Simulator(seed=3)
    profile = SwitchProfile(
        "tiny", 2024, 10e9, 500, mroute_capacity=1, fib_capacity=1000,
        software_latency_ns=20_000, software_queue_packets=32,
    )
    switch = CommoditySwitch(sim, "sw", profile)

    class Host:
        def __init__(self, name):
            self.name = name
            self.arrivals = []

        def handle_packet(self, packet, ingress):
            self.arrivals.append(sim.now)

    src, hw_rx, sw_rx = Host("src"), Host("hw"), Host("sw")
    l_in = Link(sim, "in", src, switch, propagation_delay_ns=0)
    l_hw = Link(sim, "hw", switch, hw_rx, propagation_delay_ns=0)
    l_sw = Link(sim, "sw", switch, sw_rx, propagation_delay_ns=0)
    for link in (l_in, l_hw, l_sw):
        switch.attach_link(link)
    hw_group = MulticastGroup("hw", 0)
    sw_group = MulticastGroup("sw", 0)
    assert switch.install_mroute(hw_group, {l_hw})
    assert not switch.install_mroute(sw_group, {l_sw})  # spilled

    n = 2_000
    rng = np.random.default_rng(0)
    for t in np.sort(rng.integers(0, 10 * MILLISECOND, size=n)):
        for group in (hw_group, sw_group):
            sim.schedule_at(
                int(t),
                lambda g=group: l_in.send(
                    Packet(src=EndpointAddress("src"), dst=g,
                           wire_bytes=100, payload_bytes=50),
                    src,
                ),
            )
    sim.run_until_idle()
    return {
        "hw_delivered": len(hw_rx.arrivals),
        "sw_delivered": len(sw_rx.arrivals),
        "sw_dropped": switch.stats.software_dropped,
        "offered": n,
    }


def test_mroute_overflow_collapse(benchmark, experiment_log):
    result = benchmark.pedantic(_overflow_experiment, rounds=1, iterations=1)
    hw_loss = 1 - result["hw_delivered"] / result["offered"]
    sw_loss = 1 - result["sw_delivered"] / result["offered"]
    experiment_log.add("E6/mcast-trend", "hardware group loss rate",
                       0.0, hw_loss, rel_band=0.01)
    experiment_log.add("E6/mcast-trend", "software-fallback loss (heavy)",
                       0.75, sw_loss, rel_band=0.35)
    assert hw_loss == 0.0
    assert sw_loss > 0.5  # "heavy packet loss"
    assert result["sw_dropped"] > 0
