"""The fabrics: what is actually different between the designs.

:func:`~repro.core.api.build_system` builds the role graph — exchange →
normalizers → strategies → gateway → exchange — once, the same way for
every design. What it does not know is how those roles' NICs are cabled
together; that is a *fabric function*: it receives the :class:`Roles`
(every role NIC, uncabled, plus the exchanges) and wires them — leaf-spine
access links and multicast routes, cloud registrations, L1S nets, FPGA
group tables, WAN legs — returning the :class:`~repro.core.system.System`
handle fields it contributes (``topology``, ``fabric``, ``metro``, …).

:data:`FABRICS` is the whole catalog: design name → (fabric function,
the knobs that design pins). A pinned knob is how "this design ignores
that spec field" is said — as data next to the fabric, never as a branch
in the shared builder — so unused knobs stay ignored, never rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace

from repro.core.cloud import CloudFabric
from repro.core.ticktotrade import FPGA_NIC_LATENCY_NS, HardwareStrategy
from repro.exchange.colo import default_nj_metro
from repro.exchange.exchange import Exchange
from repro.exchange.order_entry import DEFAULT_MATCHING_LATENCY_NS
from repro.firm.nbbo import NbboBuilder
from repro.firm.risk import PositionTracker, RiskChecker
from repro.firm.strategy import ArbitrageStrategy, MomentumStrategy
from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.fpga_l1s import FilteringL1Switch
from repro.net.headers import frame_bytes_tcp
from repro.net.l1switch import Layer1Switch, MergeUnit
from repro.net.link import Link
from repro.net.multicast import MulticastFabric
from repro.net.nic import HostStack, Nic
from repro.net.packet import Packet
from repro.net.reliable import ReliableChannel
from repro.net.routing import compute_unicast_routes
from repro.net.topology import build_leaf_spine
from repro.protocols.itf import ItfCodec
from repro.sim.kernel import MICROSECOND, Simulator
from repro.sim.process import Component

FIRM_FEED = "norm"  # the firm's internal (normalized) feed name


def given(**kwargs) -> dict:
    """``kwargs`` minus the ``None``s: a knob pinned to ``None`` means
    "each device keeps its own default"."""
    return {key: value for key, value in kwargs.items() if value is not None}


@dataclass
class Roles:
    """The role graph's NICs, handed to a fabric function to be cabled.

    ``knobs`` is the design's effective configuration: the
    :class:`~repro.core.config.SystemSpec` fields and the role-graph
    defaults (:data:`ROLE_DEFAULTS`), overlaid with what the design pins.
    """

    sim: Simulator
    knobs: SimpleNamespace
    exchange_nics: list[tuple[Nic, Nic]] = field(default_factory=list)  # feed, orders
    norm_nics: list[tuple[Nic, Nic]] = field(default_factory=list)  # md, pub
    strat_nics: list[tuple[Nic, Nic]] = field(default_factory=list)  # md, orders
    gw_nics: tuple[Nic, Nic] | None = None  # strat, exch
    exchanges: list[Exchange] = field(default_factory=list)
    # The firm's one ITF decoder: every consumer of the normalized feed
    # shares it, so a multicast payload is decoded once, not per receiver.
    itf_codec: ItfCodec = field(default_factory=ItfCodec)

    def nic(self, host: str, name: str) -> Nic:
        """An uncabled NIC: the fabric attaches its link (or registration)."""
        latency_ns = self.knobs.nic_latency_ns
        return Nic(
            self.sim, f"nic.{host}:{name}", EndpointAddress(host, name),
            **given(rx_latency_ns=latency_ns, tx_latency_ns=latency_ns),
        )

    def pair(self, host: str, first: str, second: str) -> tuple[Nic, Nic]:
        """One host's two NICs (every role server has an in and an out)."""
        return self.nic(host, first), self.nic(host, second)

    def firm_groups(self) -> list[MulticastGroup]:
        """The firm feed's multicast groups, one per firm partition."""
        return [
            MulticastGroup(FIRM_FEED, partition)
            for partition in range(self.knobs.firm_partitions)
        ]


# -- strategy tiers ---------------------------------------------------------------


def momentum_strategies(roles: Roles, universe, recorder, order_address) -> list:
    """One momentum strategy per server, each on a hot symbol."""
    hot = universe.most_active(len(roles.strat_nics))
    return [
        MomentumStrategy(
            roles.sim, f"strat{i}", md, orders, order_address,
            recorder=recorder, itf_codec=roles.itf_codec,
            symbol=hot[i % len(hot)].name, trigger_ticks=1,
            **given(decision_latency_ns=roles.knobs.function_latency_ns),
        )
        for i, (md, orders) in enumerate(roles.strat_nics)
    ]


def arbitrage_strategies(roles: Roles, universe, recorder, order_address) -> list:
    """Cross-venue arbitrage: watches every venue through the firm feed
    and sends IOC pairs through the gateway's per-venue sessions."""
    return [
        ArbitrageStrategy(
            roles.sim, f"arb{i}", md, orders, order_address,
            recorder=recorder, itf_codec=roles.itf_codec,
            min_edge_ticks=roles.knobs.min_edge_ticks,
            **given(decision_latency_ns=roles.knobs.function_latency_ns),
        )
        for i, (md, orders) in enumerate(roles.strat_nics)
    ]


def hardware_strategies(roles: Roles, universe, recorder, order_address) -> list:
    """The tick-to-trade pipeline: raw PITCH in, BOE out, no software."""
    return [
        HardwareStrategy(
            roles.sim, f"hft{i}", md, orders, order_address, universe.names[0]
        )
        for i, (md, orders) in enumerate(roles.strat_nics)
    ]


# Role-graph knobs no SystemSpec field carries. A design overrides them
# next to its fabric exactly as it pins the spec knobs it ignores.
ROLE_DEFAULTS = dict(
    venues=(1,),  # exchange ids; exchange v is "exch{v}"
    gateway=True,
    ambient_flow=True,  # False: the fabric drives the book itself
    tenant_multicast=True,  # False: normalizers unicast to each strategy
    coalesce_window_ns=MICROSECOND,
    nic_latency_ns=None,
    strategies=momentum_strategies,
    exchange_host="exchange",
    norm_host="norm{i}",
    norm_name="norm{i}",
    strat_host="strat{i}",
    gw_host="gw0",
    flow_name="flow",
)


# -- cabling vocabulary -----------------------------------------------------------


def cable(sim: Simulator, name: str, end_a, end_b, **link_kwargs) -> Link:
    """A link from ``end_a`` to ``end_b``, attached to whichever are NICs."""
    link = Link(sim, name, end_a, end_b, **link_kwargs)
    for end in (end_a, end_b):
        if isinstance(end, Nic):
            end.attach(link)
    return link


def fanout(sim, name, source, sinks, duplex=False, **link_kwargs) -> None:
    """One L1S: the source's link replicated onto every sink's.

    ``source`` and each of ``sinks`` is ``(link name, nic)``; sink order
    is replication order. ``duplex`` also connects the sinks back to the
    source (an order port, whose responses return the way they came).
    """
    switch = Layer1Switch(sim, name)
    in_link = cable(sim, source[0], source[1], switch, **link_kwargs)
    legs = [
        cable(sim, leg_name, switch, nic, **link_kwargs)
        for leg_name, nic in sinks
    ]
    switch.set_fanout(in_link, legs)
    if duplex:
        for leg in legs:
            switch.set_fanout(leg, [in_link])


def merge_net(sim, name, sink, sources) -> None:
    """One merge unit: every source's link funnelled onto the sink's
    (§4.3's N:1 direction; fills fan back out the same way)."""
    merge = MergeUnit(sim, name)
    merge.set_output(cable(sim, sink[0], merge, sink[1]))
    for leg_name, nic in sources:
        merge.add_input(cable(sim, leg_name, nic, merge))


def order_nets(roles: Roles) -> None:
    """Nets C and D, shared by both L1S designs: strategies → gateway
    through a merge unit, gateway ↔ exchange order port 1:1."""
    gw_strat, gw_exch = roles.gw_nics
    ((_feed, exchange_orders),) = roles.exchange_nics
    merge_net(
        roles.sim, "merge-c", ("c.gw", gw_strat),
        [(f"c.strat{i}", orders) for i, (_md, orders) in enumerate(roles.strat_nics)],
    )
    fanout(
        roles.sim, "l1s-d", ("d.gw", gw_exch),
        [("d.exchange", exchange_orders)], duplex=True,
    )


# -- the fabric functions ------------------------------------------------------------


def leaf_spine(roles: Roles, taps=()) -> dict:
    """Design 1: a leaf-spine fabric of commodity switches.

    Racks follow the §4.1 grouped-by-function layout: normalizers on one
    leaf, strategies on another, gateways on a third, with the exchange
    on its dedicated ToR — so every leg crosses 3 switch hops. ``taps``
    are extra NICs racked with the strategies.
    """
    sim = roles.sim
    topo = build_leaf_spine(sim, n_racks=3, servers_per_rack=0, n_spines=2)
    exchange_leaf, norm_leaf, strat_leaf, gw_leaf = topo.leaves
    racks = (
        (exchange_leaf, roles.exchange_nics),
        (norm_leaf, roles.norm_nics),
        (strat_leaf, [*roles.strat_nics, taps]),
        (gw_leaf, [roles.gw_nics]),
    )
    for leaf, servers in racks:
        for nic in chain.from_iterable(servers):
            host = topo.hosts.get(nic.address.host)
            topo.attach_nic(host or HostStack(nic.address.host), nic, leaf)
    compute_unicast_routes(topo)
    fabric = MulticastFabric(topo)
    for exchange, (feed, _orders) in zip(roles.exchanges, roles.exchange_nics):
        for group in exchange.publisher.groups:
            fabric.announce_server_source(group, feed)
    for _md, pub in roles.norm_nics:
        for group in roles.firm_groups():
            fabric.announce_server_source(group, pub)
    return {"topology": topo, "fabric": fabric}


def equalized_cloud(roles: Roles) -> dict:
    """Design 2: every NIC registered on the provider's equalized fabric.

    Exchange → normalizer rides provider multicast; normalizer →
    strategies is *unicast per recipient* (the §4.2 dissemination cost);
    orders flow unicast. Every leg pays the equalization bound.
    """
    cloud = CloudFabric(
        roles.sim, equalized_delivery_ns=roles.knobs.equalized_delivery_ns
    )
    for nic in chain.from_iterable(
        (*roles.exchange_nics, *roles.norm_nics, *roles.strat_nics, roles.gw_nics)
    ):
        cloud.register(nic)
    return {"fabric": cloud}


def l1s(roles: Roles) -> dict:
    """Design 3: four layer-1 switch networks.

    * net A: exchange feed → every normalizer (pure fan-out);
    * net B: normalizer feeds → every strategy (fan-out; with more than
      one normalizer, a per-strategy merge unit combines them onto the
      strategy's single market-data NIC — §4.3's interface problem);
    * net C: strategies → gateway (merge), fills fan back out;
    * net D: gateway ↔ exchange order port (1:1 cross-connect).

    L1S membership is physical: every NIC on a net sees every frame and
    the NIC filter keeps its share, so there is no membership manager.
    """
    sim = roles.sim
    ((exchange_feed, _orders),) = roles.exchange_nics
    strat_md = [md for md, _orders in roles.strat_nics]
    fanout(
        sim, "l1s-a", ("a.exchange", exchange_feed),
        [(f"a.norm{i}", md) for i, (md, _pub) in enumerate(roles.norm_nics)],
    )
    if len(roles.norm_nics) == 1:
        ((_md, pub),) = roles.norm_nics
        fanout(
            sim, "l1s-b", ("b.norm0", pub),
            [(f"b.strat{i}", md) for i, md in enumerate(strat_md)],
        )
    else:
        l1s_b = Layer1Switch(sim, "l1s-b")
        pub_ins = [
            cable(sim, f"b.norm{n}", pub, l1s_b)
            for n, (_md, pub) in enumerate(roles.norm_nics)
        ]
        legs: list[list[Link]] = []  # [strategy][normalizer]
        for s, md in enumerate(strat_md):
            merge = MergeUnit(sim, f"merge-b.strat{s}")
            merge.set_output(cable(sim, f"b.merge{s}.out", merge, md))
            legs.append(
                [cable(sim, f"b.n{n}.s{s}", l1s_b, merge) for n in range(len(pub_ins))]
            )
            for leg in legs[s]:
                merge.add_input(leg)
        for n, pub_in in enumerate(pub_ins):
            l1s_b.set_fanout(pub_in, [strategy_legs[n] for strategy_legs in legs])
    order_nets(roles)
    return {}


def fpga_l1s(roles: Roles) -> dict:
    """Design 4: §5's FPGA-enhanced L1S, market data forwarded *by group*.

    Unlike the pure L1S of Design 3, each strategy's link carries only
    the partitions that strategy subscribed to (in-fabric filtering), and
    membership changes are table updates rather than re-cabling — so this
    fabric has a membership manager: a join is a NIC filter entry plus a
    group-table entry on the FPGA behind the NIC.
    ``subscriptions_per_strategy`` limits each strategy to its first N
    firm partitions: the fabric then demonstrably delivers only
    subscribed traffic to each link. Orders ride Design 3's nets C and D
    (the FPGA pipeline here models multicast forwarding only).
    """
    sim = roles.sim
    ((exchange_feed, _orders),) = roles.exchange_nics
    ((norm_md, norm_pub),) = roles.norm_nics
    strat_md = [md for md, _orders in roles.strat_nics]
    fpga_a = FilteringL1Switch(sim, "fpga-a")
    cable(sim, "a.exchange", exchange_feed, fpga_a)
    cable(sim, "a.norm0", fpga_a, norm_md)
    fpga_b = FilteringL1Switch(sim, "fpga-b")
    fpga_b.attach_link(cable(sim, "b.norm0", norm_pub, fpga_b))
    for i, md in enumerate(strat_md):
        cable(sim, f"b.strat{i}", fpga_b, md)
    order_nets(roles)
    limit = roles.knobs.subscriptions_per_strategy

    def join(group: MulticastGroup, nic: Nic) -> None:
        if limit is not None and nic in strat_md and group.partition >= limit:
            return
        nic.join_group(group)
        nic.link.other_end(nic).add_egress(group, nic.link)

    return {"fabric": SimpleNamespace(join=join)}


class WanOrderBridge(Component):
    """Tunnels BOE bytes into a reliable cross-metro channel.

    One bridge sits at each end of the order path, cabled to the local
    order NIC: whatever BOE frame reaches it locally is shipped over
    ``channel_out``; bytes that crossed the metro the other way are
    handed to :meth:`reemit`, which surfaces them on the local link as if
    the remote sender were local.
    """

    def __init__(self, sim, name, channel_out, link_name, local_nic, remote_nic):
        super().__init__(sim, name)
        self.channel_out = channel_out
        self.link = cable(sim, link_name, local_nic, self)
        self.src = remote_nic.address
        self.dst = local_nic.address

    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        if isinstance(packet.message, (bytes, bytearray)):
            self.channel_out.send(bytes(packet.message),
                                  payload_bytes=packet.payload_bytes)

    def reemit(self, payload: bytes) -> None:
        self.link.send(
            Packet(
                src=self.src,
                dst=self.dst,
                wire_bytes=frame_bytes_tcp(len(payload)),
                payload_bytes=len(payload),
                message=payload,
                created_at=self.now,
            ),
            self,
        )


def metro_wan(roles: Roles) -> dict:
    """Cross-colo: exchange in Carteret; normalizer, strategies, gateway
    in Mahwah (the §2 metro-WAN story).

    "Strategies often analyze market data from different exchanges, many
    of which are in remote colos. To transport data between colos,
    trading firms operate private WANs ... Some firms employ microwave or
    laser links to reduce latency further." Market data crosses the metro twice-redundantly — a fast, lossy
    microwave leg and a slow, lossless fiber leg, arbitrated at the Mahwah
    normalizer — and orders return over the microwave path on a reliable
    (TCP-model) channel. The measured remote round trip is dominated by
    two metro traversals, and its composition is checkable against the
    colo geometry.
    """
    sim, loss = roles.sim, roles.knobs.microwave_loss
    metro = default_nj_metro()
    ((exchange_feed, exchange_orders),) = roles.exchange_nics
    ((norm_md, norm_pub),) = roles.norm_nics
    gw_strat, gw_exch = roles.gw_nics

    # Market data: an L1S in Carteret taps the feed cross-connect onto
    # both WAN legs.
    tap = Layer1Switch(sim, "carteret-tap")
    feed_in = cable(sim, "feed-in", exchange_feed, tap)
    norm_md.promiscuous = True  # WAN legs carry everything; filter in software
    microwave = metro.wan_link(
        sim, "carteret", "mahwah", tap, norm_md,
        medium="microwave", loss_prob=loss,
    )
    fiber = metro.wan_link(sim, "carteret", "mahwah", tap, norm_md)
    tap.set_fanout(feed_in, [microwave, fiber])

    # Mahwah: normalizer → strategies over a local L1S, strategies →
    # gateway through a merge unit.
    fanout(
        sim, "mahwah-l1s", ("pub-in", norm_pub),
        [(f"md{i}", md) for i, (md, _orders) in enumerate(roles.strat_nics)],
    )
    merge_net(
        sim, "mahwah-merge", ("gw-in", gw_strat),
        [(f"ord{i}", orders) for i, (_md, orders) in enumerate(roles.strat_nics)],
    )

    # Orders: the gateway's exchange-side NIC talks to a WAN bridge,
    # which tunnels BOE bytes over a reliable channel on the microwave
    # path; its twin in Carteret faces the exchange's order port.
    wan_firm = Nic(sim, "wan.firm", EndpointAddress("mahwah-wan", "mw"))
    wan_exch = Nic(sim, "wan.exch", EndpointAddress("carteret-wan", "mw"))
    wan_link = metro.wan_link(
        sim, "mahwah", "carteret", wan_firm, wan_exch,
        medium="microwave", loss_prob=loss,
    )
    wan_firm.attach(wan_link)
    wan_exch.attach(wan_link)
    rto_ns = 3 * metro.microwave_latency_ns("mahwah", "carteret")  # 1.5x the RTT
    channel_firm = ReliableChannel(
        sim, "rel.firm", wan_firm, wan_exch.address, rto_ns=rto_ns
    )
    channel_exch = ReliableChannel(
        sim, "rel.exch", wan_exch, wan_firm.address, rto_ns=rto_ns
    )
    firm_bridge = WanOrderBridge(
        sim, "bridge.mahwah", channel_firm, "gw-wan", gw_exch, exchange_orders
    )
    exch_bridge = WanOrderBridge(
        sim, "bridge.carteret", channel_exch, "exch-wan", exchange_orders, gw_exch
    )
    # Bytes the firm tunnels arrive at the exchange-side channel and
    # surface in Carteret toward the exchange; tunneled responses arrive
    # at the firm-side channel and surface in Mahwah toward the gateway.
    channel_exch.on_message = exch_bridge.reemit
    channel_firm.on_message = firm_bridge.reemit
    return {"metro": metro}


def two_venue_leaf_spine(roles: Roles) -> dict:
    """Multi-venue: the §4.2 aggregation workload on Design 1's fabric.

    Two exchanges share the colo (as Secaucus venues do); one normalizer
    per venue republishes into a common internal feed; the arbitrage
    strategy watches both through it. On top of the leaf-spine wiring, a
    passive compliance tap rebuilds the NBBO from the same internal feed
    (and counts locked/crossed markets), optionally gating the gateway's
    orders through the firm's NBBO-aware risk check. This is the "broad
    internal communication" §4.2 says pure-cloud designs cannot yet serve.
    """
    sim = roles.sim
    compliance_nic = roles.nic("compliance", "md")
    handles = leaf_spine(roles, taps=[compliance_nic])
    nbbo = NbboBuilder()
    codec = roles.itf_codec

    def compliance_sink(packet):
        message = packet.message
        if not (isinstance(message, tuple) and message and message[0] == "itf"):
            return
        _tag, _mode, data, exchange_id = message
        for update in codec.decode_batch(data, exchange_id, sim.now):
            nbbo.on_update(update)

    compliance_nic.bind(compliance_sink)
    for group in roles.firm_groups():
        handles["fabric"].join(group, compliance_nic)
    risk = None
    if roles.knobs.with_risk_gate:
        risk = RiskChecker(PositionTracker(), nbbo)
    return {**handles, "nbbo": nbbo, "risk": risk}


def hardware_l1s(roles: Roles) -> dict:
    """Tick-to-trade: two L1S hops on 1 m cables, and the tick source.

    Feed: exchange → L1S → strategy. Orders: strategy → L1S → exchange.
    The ambient workload walks the best bid upward in 1-cent steps (the
    far-away resting ask never crosses, so every step prints a real
    AddOrder for the strategy to react to).
    """
    sim = roles.sim
    ((exchange_feed, exchange_orders),) = roles.exchange_nics
    ((strat_md, strat_orders),) = roles.strat_nics
    (exchange,) = roles.exchanges
    fanout(
        sim, "l1s-feed", ("f.in", exchange_feed), [("f.out", strat_md)],
        propagation_delay_ns=5,
    )
    fanout(
        sim, "l1s-orders", ("o.in", strat_orders), [("o.out", exchange_orders)],
        duplex=True, propagation_delay_ns=5,  # responses flow back
    )

    symbol = exchange.symbols[0]
    rng = sim.rng.stream("ambient")
    price = [10_000]
    exchange.inject_order(symbol, "S", 100_000, 10_000)

    def improve_bid():
        price[0] += 100
        exchange.inject_order(symbol, "B", price[0], 100)
        sim.schedule_after(int(rng.integers(30_000, 80_000)), improve_bid)

    sim.schedule_after(MICROSECOND, improve_bid)
    return {}


# design -> (fabric function, the knobs it pins).
FABRICS = {
    "design1": (leaf_spine, {}),
    # The provider offers no tenant multicast (§4.2): one normalizer
    # unicasts to every strategy, so partitioning buys nothing.
    "design2": (equalized_cloud, dict(
        n_normalizers=1, firm_partitions=1, tenant_multicast=False,
    )),
    "design3": (l1s, {}),
    "design4": (fpga_l1s, dict(n_normalizers=1)),
    # Fixes its own exchange side; every firm host lives in Mahwah.
    "wan": (metro_wan, dict(
        n_normalizers=1, exchange_partitions=2,
        matching_latency_ns=DEFAULT_MATCHING_LATENCY_NS,
        exchange_host="carteret-exch", norm_host="mahwah-norm",
        strat_host="mahwah-strat{i}", gw_host="mahwah-gw",
    )),
    # One normalizer per venue, one arb; devices keep their own latencies.
    "multivenue": (two_venue_leaf_spine, dict(
        venues=(1, 2), n_normalizers=1, n_strategies=1, exchange_partitions=4,
        function_latency_ns=None,
        matching_latency_ns=DEFAULT_MATCHING_LATENCY_NS, telemetry=False,
        strategies=arbitrage_strategies, exchange_host="venue{v}",
        norm_host="norm{v}", norm_name="norm{v}", strat_host="arb{i}",
        flow_name="flow{f}",
    )),
    # The hardware pipeline fixes its own topology and workload; only
    # the seed maps. HFT venue ports do not batch (coalesce window 0).
    "ticktotrade": (hardware_l1s, dict(
        n_symbols=1, n_normalizers=0, n_strategies=1, exchange_partitions=1,
        matching_latency_ns=DEFAULT_MATCHING_LATENCY_NS, telemetry=False,
        gateway=False, ambient_flow=False, coalesce_window_ns=0,
        nic_latency_ns=FPGA_NIC_LATENCY_NS, strategies=hardware_strategies,
        strat_host="hft",
    )),
}
