"""Incast on the leaf-spine fabric: the congestion §4.1's design inherits.

When many strategies react to the same market-data event (they do — it's
the same event), their orders converge on one gateway within
nanoseconds of each other. On a leaf-spine fabric this is classic
incast: the gateway's access link serializes the burst and the tail
order eats the whole queue. L1S fabrics hit the same physics at the
merge unit — the bottleneck is the shared egress, not the switch type.
"""

import pytest

from repro.net.addressing import EndpointAddress
from repro.net.packet import Packet
from repro.net.routing import compute_unicast_routes
from repro.net.topology import build_leaf_spine
from repro.sim.kernel import Simulator

N_STRATEGIES = 24
ORDER_WIRE_BYTES = 128


def _rig():
    sim = Simulator(seed=6)
    topo = build_leaf_spine(sim, n_racks=2, servers_per_rack=0, n_spines=2)
    strat_leaf, gw_leaf = topo.leaves[1], topo.leaves[2]
    from repro.net.nic import HostStack

    strategies = []
    for i in range(N_STRATEGIES):
        host = HostStack(f"s{i}")
        strategies.append(topo.attach_server(host, strat_leaf, "orders"))
    gw_host = HostStack("gw")
    gateway = topo.attach_server(gw_host, gw_leaf, "strat")
    compute_unicast_routes(topo)
    arrivals = []
    gateway.bind(lambda p: arrivals.append(sim.now))
    return sim, topo, strategies, gateway, arrivals


def _order(src, dst):
    return Packet(
        src=src.address, dst=dst.address,
        wire_bytes=ORDER_WIRE_BYTES, payload_bytes=64,
    )


def test_simultaneous_orders_serialize_at_the_shared_egress():
    sim, topo, strategies, gateway, arrivals = _rig()
    for nic in strategies:
        nic.send(_order(nic, gateway))  # all at t=0: the incast
    sim.run_until_idle()
    assert len(arrivals) == N_STRATEGIES
    spread = arrivals[-1] - arrivals[0]
    # The access link serializes one ~148 B frame every ~118 ns; the
    # last order waits for all the others.
    access = topo.access_link_of(gateway.address)
    per_frame = access.serialization_ns(ORDER_WIRE_BYTES)
    assert spread == pytest.approx((N_STRATEGIES - 1) * per_frame, rel=0.3)
    # Queue delay was real at the gateway-side egress.
    gw_leaf = topo.leaf_of(gateway.address)
    stats = access.stats_from(gw_leaf)
    assert stats.queue_delay_max_ns > 10 * per_frame


def test_staggered_orders_see_no_queueing():
    sim, topo, strategies, gateway, arrivals = _rig()
    access = topo.access_link_of(gateway.address)
    per_frame = access.serialization_ns(ORDER_WIRE_BYTES)
    gap = 5 * per_frame
    for i, nic in enumerate(strategies):
        sim.schedule_at(i * gap, lambda n=nic: n.send(_order(n, gateway)))
    sim.run_until_idle()
    assert len(arrivals) == N_STRATEGIES
    gw_leaf = topo.leaf_of(gateway.address)
    stats = access.stats_from(gw_leaf)
    assert stats.queue_delay_max_ns == 0  # spaced arrivals never queue


def test_incast_tail_grows_linearly_with_fan_in():
    """Double the synchronized senders, double the tail."""

    def tail(n):
        sim = Simulator(seed=6)
        topo = build_leaf_spine(sim, n_racks=2, servers_per_rack=0, n_spines=2)
        from repro.net.nic import HostStack

        nics = []
        for i in range(n):
            host = HostStack(f"s{i}")
            nics.append(topo.attach_server(host, topo.leaves[1], "orders"))
        gw = topo.attach_server(HostStack("gw"), topo.leaves[2], "strat")
        compute_unicast_routes(topo)
        arrivals = []
        gw.bind(lambda p: arrivals.append(sim.now))
        for nic in nics:
            nic.send(_order(nic, gw))
        sim.run_until_idle()
        return arrivals[-1] - arrivals[0]

    assert tail(32) == pytest.approx(2 * tail(16), rel=0.15)
