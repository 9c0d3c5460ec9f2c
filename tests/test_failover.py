"""Spine failure and reconvergence — and why A/B feeds make it hitless."""

import pytest

from repro.exchange.publisher import FeedPublisher, alphabetical_scheme
from repro.firm.feedhandler import FeedHandler
from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.multicast import MulticastFabric
from repro.net.nic import HostStack
from repro.net.packet import Packet
from repro.net.routing import compute_unicast_routes, routed_path
from repro.net.topology import build_leaf_spine
from repro.protocols.pitch import DeleteOrder
from repro.sim.kernel import MILLISECOND, Simulator


def _fabric(n_spines=2):
    sim = Simulator(seed=7)
    topo = build_leaf_spine(sim, n_racks=2, servers_per_rack=2, n_spines=n_spines)
    compute_unicast_routes(topo)
    return sim, topo


class TestUnicastFailover:
    def test_failed_spine_blackholes_until_reconvergence(self):
        sim, topo = _fabric()
        src = topo.hosts["rack0-s0"].nic()
        dst = topo.hosts["rack1-s0"].nic()
        got = []
        dst.bind(lambda p: got.append(sim.now))

        def send():
            src.send(Packet(src=src.address, dst=dst.address,
                            wire_bytes=100, payload_bytes=50))

        # Find and fail the spine this destination routes through.
        spine = routed_path(topo, src.address, dst.address)[1]
        send()
        sim.run_until_idle()
        assert len(got) == 1

        spine.failed = True
        send()
        sim.run_until_idle()
        assert len(got) == 1  # blackholed
        assert spine.stats.blackholed == 1

        compute_unicast_routes(topo)  # the routing protocol reconverges
        send()
        sim.run_until_idle()
        assert len(got) == 2
        # The new path avoids the dead spine.
        assert routed_path(topo, src.address, dst.address)[1] is not spine

    def test_total_spine_loss_is_an_error(self):
        sim, topo = _fabric(n_spines=1)
        topo.spines[0].failed = True
        with pytest.raises(RuntimeError):
            compute_unicast_routes(topo)


class TestMulticastFailover:
    def test_tree_recomputes_around_dead_spine(self):
        sim, topo = _fabric()
        fabric = MulticastFabric(topo)
        group = MulticastGroup("feed", 0)
        source = topo.hosts["rack0-s0"].nic()
        receiver = topo.hosts["rack1-s0"].nic()
        got = []
        receiver.bind(lambda p: got.append(sim.now))
        fabric.announce_server_source(group, source)
        fabric.join(group, receiver)

        def blast():
            source.send(Packet(src=source.address, dst=group,
                               wire_bytes=100, payload_bytes=50))

        blast()
        sim.run_until_idle()
        assert len(got) == 1

        tree_spine = fabric._spine_for(group)
        tree_spine.failed = True
        blast()
        sim.run_until_idle()
        assert len(got) == 1  # dead spine ate it

        fabric.reinstall_all()  # PIM reconverges
        blast()
        sim.run_until_idle()
        assert len(got) == 2
        assert fabric._spine_for(group) is not tree_spine


class TestHitlessAbFeeds:
    def test_spine_failure_is_hitless_with_disjoint_legs(self):
        """The operational payoff of A/B feeds: when the legs' trees ride
        different spines, losing either spine loses zero messages —
        before any protocol reconverges."""
        sim, topo = _fabric()
        exch = HostStack("exch")
        nic_a = topo.attach_server(exch, topo.exchange_leaf, "feedA")
        nic_b = topo.attach_server(exch, topo.exchange_leaf, "feedB")
        compute_unicast_routes(topo)
        fabric = MulticastFabric(topo)
        publisher = FeedPublisher(
            sim, "pub", "X.PITCH", alphabetical_scheme(1),
            nic_a=nic_a, nic_b=nic_b, coalesce_window_ns=500,
            distinct_leg_groups=True,
        )
        group_a = MulticastGroup("X.PITCH.A", 0)
        group_b = MulticastGroup("X.PITCH.B", 0)
        fabric.announce_server_source(group_a, nic_a)
        fabric.announce_server_source(group_b, nic_b)
        received = []
        handler = FeedHandler(
            sim, "fh", topo.hosts["rack0-s0"].nic(),
            sink=lambda g, m: received.append(m.order_id),
        )
        handler.subscribe(group_a, fabric)
        handler.subscribe(group_b, fabric)

        spine_a = fabric._spine_for(group_a)
        spine_b = fabric._spine_for(group_b)
        assert spine_a is not spine_b  # disjoint by group-hash design

        # Publish, then kill the A-leg's spine mid-stream, keep publishing.
        for i in range(100):
            sim.schedule_at(
                i * 20_000,
                lambda i=i: publisher.publish(
                    "AAPL", [DeleteOrder(0, i + 1)]
                ),
            )
        sim.schedule_at(1 * MILLISECOND, lambda: setattr(spine_a, "failed", True))
        sim.run(until=10 * MILLISECOND)

        # Zero loss, zero gaps, no reconvergence needed: the B leg carried
        # everything the moment A's spine died.
        assert received == list(range(1, 101))
        assert handler.gaps() == {}
        assert spine_a.stats.blackholed > 0  # A leg really was dying
