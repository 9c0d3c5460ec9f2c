"""Leaf-spine topology construction (Design 1's substrate).

§4.1 considers "a standard leaf-and-spine topology, where each rack of
servers has a top-of-rack (ToR) switch and there is another layer of
switches to connect the ToRs", with **one ToR dedicated to the exchange
cross-connects** so that every host is equidistant from the exchange (and
as a policy enforcement point).

:func:`build_leaf_spine` produces a :class:`LeafSpineTopology` that the
routing and multicast layers, and the Design 1 evaluation in
:mod:`repro.core.designs`, all operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addressing import EndpointAddress
from repro.net.link import Link
from repro.net.nic import HostStack, Nic
from repro.net.switch import CommoditySwitch, SwitchProfile, CURRENT_GENERATION
from repro.sim.kernel import Simulator

# In-colo cabling: a few tens of metres of fiber, ~5 ns/m.
ACCESS_LINK_PROPAGATION_NS = 25
FABRIC_LINK_PROPAGATION_NS = 50


@dataclass
class LeafSpineTopology:
    """A built leaf-spine fabric plus its attached servers.

    ``exchange_leaf`` is the dedicated ToR where exchange cross-connects
    land; it has no servers of its own unless callers attach them.
    """

    sim: Simulator
    leaves: list[CommoditySwitch]
    spines: list[CommoditySwitch]
    exchange_leaf: CommoditySwitch
    hosts: dict[str, HostStack] = field(default_factory=dict)
    # Server attachment: address -> (leaf switch, access link).
    attachments: dict[EndpointAddress, tuple[CommoditySwitch, Link]] = field(
        default_factory=dict
    )
    # Fabric links keyed by (leaf name, spine name).
    fabric_links: dict[tuple[str, str], Link] = field(default_factory=dict)

    @property
    def switches(self) -> list[CommoditySwitch]:
        return [*self.leaves, *self.spines]

    def leaf_of(self, address: EndpointAddress) -> CommoditySwitch:
        """The ToR a server address hangs off."""
        return self.attachments[address][0]

    def access_link_of(self, address: EndpointAddress) -> Link:
        return self.attachments[address][1]

    def fabric_link(self, leaf: CommoditySwitch, spine: CommoditySwitch) -> Link:
        """The link between ``leaf`` and ``spine`` (order-insensitive)."""
        link = self.fabric_links.get((leaf.name, spine.name))
        if link is None:
            link = self.fabric_links.get((spine.name, leaf.name))
        if link is None:
            raise KeyError(f"no fabric link {leaf.name}<->{spine.name}")
        return link

    def attach_server(
        self,
        host: HostStack,
        leaf: CommoditySwitch,
        nic_name: str = "eth0",
        bandwidth_bps: float = 10e9,
    ) -> Nic:
        """Create a NIC on ``host``, cable it to ``leaf``, register it."""
        address = EndpointAddress(host.host, nic_name)
        nic = Nic(self.sim, f"nic.{address}", address)
        return self.attach_nic(host, nic, leaf, bandwidth_bps)

    def attach_nic(
        self,
        host: HostStack,
        nic: Nic,
        leaf: CommoditySwitch,
        bandwidth_bps: float = 10e9,
    ) -> Nic:
        """Cable an existing, uncabled ``nic`` of ``host`` to ``leaf``."""
        address = nic.address
        host.add_nic(nic)
        link = Link(
            self.sim,
            f"access.{address}",
            nic,
            leaf,
            bandwidth_bps=bandwidth_bps,
            propagation_delay_ns=ACCESS_LINK_PROPAGATION_NS,
        )
        nic.attach(link)
        leaf.attach_link(link)
        self.hosts.setdefault(host.host, host)
        self.attachments[address] = (leaf, link)
        return nic

    def switch_hops(self, src: EndpointAddress, dst: EndpointAddress) -> int:
        """Switch hops on the routed path between two servers.

        Same leaf → 1 hop (the shared ToR); different leaves → 3 hops
        (leaf, spine, leaf). This is the arithmetic behind the paper's
        12-hop round trip.
        """
        src_leaf = self.leaf_of(src)
        dst_leaf = self.leaf_of(dst)
        return 1 if src_leaf is dst_leaf else 3


def build_leaf_spine(
    sim: Simulator,
    n_racks: int,
    servers_per_rack: int,
    n_spines: int = 2,
    profile: SwitchProfile = CURRENT_GENERATION,
    host_function_latency_ns: int = 2_000,
    access_bandwidth_bps: float = 10e9,
    fabric_bandwidth_bps: float | None = None,
    rack_prefix: str = "rack",
) -> LeafSpineTopology:
    """Build a leaf-spine fabric with a dedicated exchange ToR.

    Creates ``n_racks`` server racks (each with its own leaf) plus one
    extra exchange-facing leaf, all meshed to ``n_spines`` spines. Servers
    are named ``{rack_prefix}{r}-s{i}`` and get one NIC each; callers can
    attach more NICs (orders, management) via
    :meth:`LeafSpineTopology.attach_server`.
    """
    if n_racks < 1 or servers_per_rack < 0 or n_spines < 1:
        raise ValueError("topology dimensions must be positive")
    if fabric_bandwidth_bps is None:
        fabric_bandwidth_bps = profile.port_bandwidth_bps

    spines = [
        CommoditySwitch(sim, f"spine{s}", profile) for s in range(n_spines)
    ]
    exchange_leaf = CommoditySwitch(sim, "leaf-exchange", profile)
    leaves = [exchange_leaf]
    leaves += [CommoditySwitch(sim, f"leaf{r}", profile) for r in range(n_racks)]

    topo = LeafSpineTopology(
        sim=sim, leaves=leaves, spines=spines, exchange_leaf=exchange_leaf
    )

    for leaf in leaves:
        for spine in spines:
            link = Link(
                sim,
                f"fabric.{leaf.name}-{spine.name}",
                leaf,
                spine,
                bandwidth_bps=fabric_bandwidth_bps,
                propagation_delay_ns=FABRIC_LINK_PROPAGATION_NS,
            )
            leaf.attach_link(link)
            spine.attach_link(link)
            topo.fabric_links[(leaf.name, spine.name)] = link

    for r, leaf in enumerate(leaves[1:]):
        for i in range(servers_per_rack):
            host = HostStack(
                host=f"{rack_prefix}{r}-s{i}",
                function_latency_ns=host_function_latency_ns,
            )
            topo.attach_server(host, leaf, bandwidth_bps=access_bandwidth_bps)

    return topo
