"""The one system type: what :func:`~repro.core.api.build_system` returns.

Every design — the paper's four, the cross-colo WAN deployment, the
multi-venue aggregation build and the hardware tick-to-trade pipeline —
is the same role graph (exchange → normalizer → strategy → gateway →
exchange) over a different fabric, so every design builds into the same
:class:`System`: the role handles, plus a flat name → device registry
holding everything the fabric is made of.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exchange.colo import MetroRegion
from repro.exchange.exchange import Exchange
from repro.firm.gateway import OrderGateway
from repro.firm.nbbo import NbboBuilder
from repro.firm.normalizer import Normalizer
from repro.firm.risk import RiskChecker
from repro.net.topology import LeafSpineTopology
from repro.sim.kernel import MILLISECOND, Simulator
from repro.timing.latency import LatencyRecorder, LatencyStats, summarize
from repro.workload.orderflow import OrderFlowGenerator
from repro.workload.symbols import SymbolUniverse


@dataclass
class System:
    """Handles to every role of a built system, and its device registry.

    Roles a design does not have are empty or ``None`` (tick-to-trade
    has no normalizer, gateway or flow generator). ``devices`` maps each
    name to the :class:`~repro.sim.process.Component` or
    :class:`~repro.net.link.Link` built under it — NICs, links, switches,
    merge units, the cloud fabric, reliable channels, and the roles
    themselves — so a chaos target, a test, or a report reaches any
    device by name (``devices["l1s-d"]``, ``devices["rel.firm"]``) or by
    kind (:meth:`of`).
    """

    sim: Simulator
    exchanges: list[Exchange]
    normalizers: list[Normalizer]
    strategies: list
    gateway: OrderGateway | None
    flows: list[OrderFlowGenerator]
    recorder: LatencyRecorder
    universe: SymbolUniverse
    devices: dict[str, object]
    topology: LeafSpineTopology | None = None
    # The multicast membership manager subscribers join through —
    # anything with ``join(group, nic)`` — or None where membership is
    # physical wiring (pure L1S) and the NIC filter is all there is.
    fabric: object | None = None
    metro: MetroRegion | None = None
    nbbo: NbboBuilder | None = None
    risk: RiskChecker | None = None

    @property
    def exchange(self) -> Exchange:
        """The venue (the first one, on a multi-venue build)."""
        return self.exchanges[0]

    @property
    def flow(self) -> OrderFlowGenerator:
        """The ambient flow generator driving :attr:`exchange`."""
        return self.flows[0]

    def of(self, cls) -> list:
        """Every registered device that is a ``cls``, in build order."""
        return [d for d in self.devices.values() if isinstance(d, cls)]

    def run(self, duration_ns: int = 50 * MILLISECOND) -> None:
        """Start the flows and run the simulation for ``duration_ns``."""
        for flow in self.flows:
            flow.start()
        self.sim.run(until=self.sim.now + duration_ns)

    def roundtrip_samples(self) -> list[int]:
        """Exchange-edge round-trip samples (event time → order arrival),
        venue by venue."""
        samples: list[int] = []
        for exchange in self.exchanges:
            samples.extend(exchange.order_entry.roundtrip_samples)
        return samples

    def roundtrip_stats(self) -> LatencyStats:
        return summarize(self.roundtrip_samples())
