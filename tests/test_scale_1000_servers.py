"""Scale tests at the paper's stated target.

§4: "In terms of scale, our aim will be to support a network of roughly
1,000 servers running normalizers, gateways and strategies." These tests
build that network for real — 25 racks × 40 servers plus the exchange
ToR — and verify the properties the designs depend on at that size.
"""

import pytest

from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.multicast import MulticastFabric
from repro.net.packet import Packet
from repro.net.routing import compute_unicast_routes
from repro.net.topology import build_leaf_spine
from repro.net.switch import CURRENT_GENERATION
from repro.sim.kernel import Simulator
from repro.telemetry import TraceContext


@pytest.fixture(scope="module")
def fabric_1000():
    sim = Simulator(seed=99)
    topo = build_leaf_spine(sim, n_racks=25, servers_per_rack=40, n_spines=4)
    compute_unicast_routes(topo)
    return sim, topo


def test_scale_shape(fabric_1000):
    sim, topo = fabric_1000
    assert len(topo.attachments) == 1_000
    assert len(topo.leaves) == 26  # 25 racks + the exchange ToR
    assert len(topo.spines) == 4
    assert len(topo.fabric_links) == 26 * 4


def test_every_host_is_equidistant_from_the_exchange(fabric_1000):
    """§4.1: the dedicated exchange ToR makes every server 3 hops out."""
    sim, topo = fabric_1000
    # Any server's path from the exchange leaf crosses leaf-spine-leaf.
    for address in list(topo.attachments)[::97]:  # sample across racks
        leaf = topo.leaf_of(address)
        assert leaf is not topo.exchange_leaf


def test_unicast_works_across_the_full_fabric(fabric_1000):
    sim, topo = fabric_1000
    src = topo.hosts["rack0-s0"].nic()
    dst = topo.hosts["rack24-s39"].nic()
    got = []
    dst.bind(got.append)
    src.send(
        Packet(
            src=src.address, dst=dst.address, wire_bytes=100, payload_bytes=50,
            trace=TraceContext(0),
        )
    )
    sim.run_until_idle()
    assert len(got) == 1
    events = got[0].trace.finish(sim.now).events
    assert len([e for e in events if e.kind == "switch"]) == 3


def test_fib_capacity_supports_1000_servers(fabric_1000):
    sim, topo = fabric_1000
    for switch in topo.switches:
        assert len(switch.fib) <= CURRENT_GENERATION.fib_capacity
    for spine in topo.spines:
        assert len(spine.fib) == 1_000  # every server routable


def test_partition_counts_fit_todays_tables_but_not_tomorrows(fabric_1000):
    """§3: ~1300 partitions fit a 3600-entry table; the growth trend
    (another doubling) starts spilling groups within a generation."""
    sim, topo = fabric_1000
    fabric = MulticastFabric(topo)
    source = topo.hosts["rack0-s0"].nic()
    receivers = [topo.hosts[f"rack{r}-s1"].nic() for r in range(1, 25)]
    for nic in receivers:
        nic.bind(lambda p: None)

    todays_partitions = 1_300
    for partition in range(todays_partitions):
        group = MulticastGroup("norm", partition)
        fabric.announce_server_source(group, source)
        fabric.join(group, receivers[partition % len(receivers)])
    pressure = fabric.pressure()
    assert pressure.switches_overflowed == 0
    assert pressure.max_hw_entries <= CURRENT_GENERATION.mroute_capacity

    # Two more years of doubling: thousands of additional groups
    # overflow the source leaf's table (it carries every group).
    for partition in range(todays_partitions, 3 * todays_partitions):
        group = MulticastGroup("norm", partition)
        fabric.announce_server_source(group, source)
        fabric.join(group, receivers[partition % len(receivers)])
    assert fabric.pressure().switches_overflowed > 0


def test_multicast_delivery_at_scale(fabric_1000):
    sim, topo = fabric_1000
    fabric = MulticastFabric(topo)
    group = MulticastGroup("wide", 0)
    source = topo.hosts["rack0-s0"].nic()
    fabric.announce_server_source(group, source)
    count = []
    for r in range(25):
        nic = topo.hosts[f"rack{r}-s2"].nic()
        nic.bind(lambda p: count.append(1))
        fabric.join(group, nic)
    source.send(
        Packet(src=source.address, dst=group, wire_bytes=100, payload_bytes=50)
    )
    sim.run_until_idle()
    assert len(count) == 25  # one copy per subscribed rack representative
