"""The public construction facade: one builder for every design.

Seven fully-wired systems come out of this module — Design 1
(leaf-spine), Design 2 (equalized cloud), Design 3 (L1S), Design 4
(FPGA-enhanced L1S), the cross-colo WAN deployment, and two auxiliary
testbeds (the multi-venue aggregation build and the hardware
tick-to-trade pipeline) — and all seven are the same role graph,
exchange → normalizers → strategies → gateway → exchange, over a
different fabric. :func:`build_system` builds that role graph once and
hands its NICs to the design's *fabric function*
(:data:`repro.core.fabrics.FABRICS`) to be cabled; every design returns
the same :class:`~repro.core.system.System`::

    from repro.core import build_system
    from repro.core.config import SystemSpec

    system = build_system(SystemSpec(design="design3", seed=7))
    # or, equivalently:
    system = build_system(design="design3", seed=7)
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

from repro.core.config import ALL_DESIGNS, SystemSpec
from repro.core.fabrics import FABRICS, FIRM_FEED, ROLE_DEFAULTS, Roles, given
from repro.core.system import System
from repro.exchange.exchange import Exchange
from repro.exchange.publisher import alphabetical_scheme, hashed_scheme
from repro.firm.gateway import OrderGateway
from repro.firm.normalizer import Normalizer
from repro.sim.kernel import Simulator
from repro.timing.latency import LatencyRecorder
from repro.workload.orderflow import OrderFlowGenerator
from repro.workload.symbols import make_universe


def available_designs() -> tuple[str, ...]:
    """The design names :func:`build_system` accepts."""
    return ALL_DESIGNS


def build_system(spec: SystemSpec | None = None, **overrides) -> System:
    """Build any of the seven designs from one spec.

    ``spec`` may be omitted and the system described entirely by keyword
    overrides (``build_system(design="design4", seed=3)``); when both
    are given, overrides are applied on top of the spec with
    :func:`dataclasses.replace`, re-running validation.

    Returns the built (not yet run) :class:`~repro.core.system.System`.
    Knobs a design does not consume are ignored, never rejected: the
    design's entry in :data:`~repro.core.fabrics.FABRICS` pins them.
    """
    if spec is None:
        spec = SystemSpec(**overrides)
    elif overrides:
        spec = replace(spec, **overrides)
    wire, pinned = FABRICS[spec.design]
    k = SimpleNamespace(**{**ROLE_DEFAULTS, **vars(spec), **pinned})
    sim = Simulator(seed=k.seed, telemetry=k.telemetry)
    universe = make_universe(k.n_symbols, seed=k.seed)
    recorder = LatencyRecorder()

    # Role NICs, uncabled, in rack order: exchange(s), normalizers,
    # strategies, gateway.
    roles = Roles(sim, k)
    for v in k.venues:
        roles.exchange_nics.append(
            roles.pair(k.exchange_host.format(v=v), "feed", "orders")
        )
        for i in range(k.n_normalizers):
            roles.norm_nics.append(
                roles.pair(k.norm_host.format(v=v, i=i), "md", "pub")
            )
    for i in range(k.n_strategies):
        roles.strat_nics.append(roles.pair(k.strat_host.format(i=i), "md", "orders"))
    if k.gateway:
        roles.gw_nics = roles.pair(k.gw_host, "strat", "exch")

    roles.exchanges = exchanges = [
        Exchange(
            sim, f"exch{v}", list(universe.names),
            alphabetical_scheme(k.exchange_partitions),
            feed_nic_a=feed, orders_nic=orders,
            matching_latency_ns=k.matching_latency_ns,
            coalesce_window_ns=k.coalesce_window_ns,
        )
        for v, (feed, orders) in zip(k.venues, roles.exchange_nics)
    ]

    handles = wire(roles)
    membership = handles.get("fabric")
    software = given(function_latency_ns=k.function_latency_ns)

    firm_scheme = hashed_scheme(k.firm_partitions)
    md_addresses = [md.address for md, _orders in roles.strat_nics]
    normalizers = []
    for v, exchange in zip(k.venues, exchanges):
        for i in range(k.n_normalizers):
            rx, tx = roles.norm_nics[len(normalizers)]
            normalizer = Normalizer(
                sim, k.norm_name.format(v=v, i=i), v, rx, tx, FIRM_FEED,
                firm_scheme,
                unicast_recipients=None if k.tenant_multicast else md_addresses,
                **software,
            )
            # Normalizers split their venue's feed: each owns a subset
            # of the exchange's partitions (the partitioned-workload
            # model of §3). Where membership is physical wiring the NIC
            # filter keeps exactly that share.
            for group in exchange.publisher.groups:
                if group.partition % k.n_normalizers == i:
                    normalizer.feed.subscribe(group, membership)
            normalizers.append(normalizer)

    gateway = None
    order_address = exchanges[0].order_entry.nic.address
    if roles.gw_nics:
        gateway = OrderGateway(
            sim, "gw0", *roles.gw_nics,
            risk_checker=handles.get("risk"), **software,
        )
        for exchange in exchanges:
            gateway.connect_exchange(exchange.name, exchange.order_entry.nic.address)
        order_address = roles.gw_nics[0].address

    # Strategies listen to the normalized feed when there is a
    # normalizer tier, to the raw exchange feed when there is none.
    strategies = k.strategies(roles, universe, recorder, order_address)
    if k.tenant_multicast:
        upstream = roles.firm_groups() if normalizers else exchanges[0].publisher.groups
        for strategy in strategies:
            for group in upstream:
                strategy.subscribe(group, membership)

    flows = []
    if k.ambient_flow:
        flows = [
            OrderFlowGenerator(
                sim, k.flow_name.format(f=f), exchange, universe, k.flow_rate_per_s
            )
            for f, exchange in enumerate(exchanges)
        ]

    # The registry is filled where devices are born (Component and Link
    # register with their simulator); a reused name would make a chaos
    # target, an instrument name and an RNG stream ambiguous, so it is
    # an error here, where name -> device is made.
    devices: dict[str, object] = {}
    for device in sim.components:
        if devices.setdefault(device.name, device) is not device:
            raise ValueError(
                f"duplicate device name {device.name!r} in design {spec.design}"
            )
    return System(
        sim=sim, exchanges=exchanges, normalizers=normalizers,
        strategies=strategies, gateway=gateway, flows=flows,
        recorder=recorder, universe=universe, devices=devices, **handles,
    )
