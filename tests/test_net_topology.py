"""Tests for leaf-spine construction and unicast routing."""

import pytest

from repro.net.addressing import EndpointAddress
from repro.net.nic import HostStack
from repro.net.packet import Packet
from repro.net.routing import compute_unicast_routes, routed_path
from repro.net.topology import build_leaf_spine
from repro.sim.kernel import Simulator
from repro.telemetry import TraceContext


def _built(n_racks=3, servers_per_rack=2, n_spines=2):
    sim = Simulator(seed=1)
    topo = build_leaf_spine(sim, n_racks, servers_per_rack, n_spines)
    return sim, topo


def test_shape_counts():
    sim, topo = _built(n_racks=4, servers_per_rack=3, n_spines=3)
    assert len(topo.spines) == 3
    assert len(topo.leaves) == 5  # 4 racks + the dedicated exchange ToR
    assert len(topo.attachments) == 12
    # Full leaf-spine mesh.
    assert len(topo.fabric_links) == 5 * 3


def test_dedicated_exchange_tor_has_no_servers():
    sim, topo = _built()
    exchange_servers = [
        a for a, (leaf, _) in topo.attachments.items()
        if leaf is topo.exchange_leaf
    ]
    assert exchange_servers == []


def test_switch_hops_same_rack_vs_cross_rack():
    sim, topo = _built()
    a = EndpointAddress("rack0-s0")
    b = EndpointAddress("rack0-s1")
    c = EndpointAddress("rack2-s0")
    assert topo.switch_hops(a, b) == 1
    assert topo.switch_hops(a, c) == 3


def test_attach_server_creates_wired_nic():
    sim, topo = _built()
    host = HostStack("extra")
    nic = topo.attach_server(host, topo.leaves[1], "md")
    assert nic.link is not None
    assert topo.leaf_of(nic.address) is topo.leaves[1]
    assert "extra" in topo.hosts


def test_invalid_dimensions_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_leaf_spine(sim, 0, 1)
    with pytest.raises(ValueError):
        build_leaf_spine(sim, 1, 1, n_spines=0)


def test_routes_installed_for_every_server_on_every_layer():
    sim, topo = _built(n_racks=2, servers_per_rack=2, n_spines=2)
    installed = compute_unicast_routes(topo)
    # Per server: 1 (own leaf) + n_spines + (n_leaves - 1) other leaves.
    per_server = 1 + 2 + (3 - 1)
    assert installed == 4 * per_server
    for spine in topo.spines:
        assert len(spine.fib) == 4


def test_routed_path_is_leaf_spine_leaf():
    sim, topo = _built()
    compute_unicast_routes(topo)
    path = routed_path(topo, EndpointAddress("rack0-s0"), EndpointAddress("rack1-s0"))
    assert len(path) == 3
    assert path[0] is topo.leaf_of(EndpointAddress("rack0-s0"))
    assert path[2] is topo.leaf_of(EndpointAddress("rack1-s0"))
    assert path[1] in topo.spines


def test_routed_path_same_leaf_is_single_hop():
    sim, topo = _built()
    path = routed_path(topo, EndpointAddress("rack0-s0"), EndpointAddress("rack0-s1"))
    assert len(path) == 1


def test_ecmp_spreads_destinations_across_spines():
    sim, topo = _built(n_racks=2, servers_per_rack=8, n_spines=2)
    compute_unicast_routes(topo)
    spine_usage = {s.name: 0 for s in topo.spines}
    for dst in topo.attachments:
        path = routed_path(topo, EndpointAddress("rack0-s0"), dst)
        if len(path) == 3:
            spine_usage[path[1].name] += 1
    # Both spines carry some destinations.
    assert all(count > 0 for count in spine_usage.values())


def test_end_to_end_delivery_cross_rack():
    sim, topo = _built()
    compute_unicast_routes(topo)
    src_nic = topo.hosts["rack0-s0"].nic()
    dst_nic = topo.hosts["rack2-s1"].nic()
    got = []
    dst_nic.bind(got.append)
    src_nic.send(
        Packet(
            src=src_nic.address, dst=dst_nic.address,
            wire_bytes=100, payload_bytes=50, trace=TraceContext(0),
        )
    )
    sim.run()
    assert len(got) == 1
    # The trace records exactly 3 switch traversals.
    events = got[0].trace.finish(sim.now).events
    assert len([e for e in events if e.kind == "switch"]) == 3


def test_paper_round_trip_is_twelve_switch_hops():
    """§4.1: exchange->normalizer->strategy->gateway->exchange crosses
    12 switch hops when functions are grouped by rack."""
    sim, topo = _built(n_racks=3, servers_per_rack=1)
    norm = EndpointAddress("rack0-s0")
    strat = EndpointAddress("rack1-s0")
    gw = EndpointAddress("rack2-s0")
    # Exchange legs always cross leaf-spine-leaf via the exchange ToR (3),
    # as do the cross-rack internal legs.
    hops = 3 + topo.switch_hops(norm, strat) + topo.switch_hops(strat, gw) + 3
    assert hops == 12
