"""A simulated latency-equalized cloud (Design 2's substrate).

§4.2's model, implemented: (i) the provider manages the network, so
there is no topology to wire — every host connects to one fabric;
(ii) connections to/from the *exchange* support multicast and are
latency-equalized; (iii) all tenants see the same delivery bound.

The catch the paper identifies is also implemented: the fabric offers
**no multicast for tenant-internal traffic**. A normalizer fanning its
feed to N strategies must send N unicast copies, each paying the full
equalized delivery bound — which is what ``design2``'s fabric function
(:mod:`repro.core.fabrics`) wires so the cloud round trip can be
*measured* next to Designs 1 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addressing import (
    Address,
    EndpointAddress,
    MulticastGroup,
    is_multicast,
)
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import Component

DEFAULT_EQUALIZED_NS = 50_000  # a DBO-class delivery guarantee


class UnsupportedMulticast(RuntimeError):
    """Tenant-internal multicast is not offered by the provider."""


@dataclass
class CloudStats:
    frames_in: int = 0
    delivered: int = 0
    exchange_multicast_copies: int = 0
    unroutable: int = 0
    internal_multicast_rejected: int = 0


class CloudFabric(Component):
    """The provider's network: one hop, equalized to a fixed bound.

    Every registered NIC hangs off the fabric on a fast access link;
    whatever arrives is delivered to its destination exactly
    ``equalized_delivery_ns`` after ingress — fast tenants gain nothing,
    slow ones lose nothing (assumption (iii)). Multicast groups whose
    feed name starts with ``exchange_feed_prefix`` are provider-managed
    (assumption (ii)); any other group is rejected and counted.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cloud",
        equalized_delivery_ns: int = DEFAULT_EQUALIZED_NS,
        exchange_feed_prefix: str = "exch",
    ):
        super().__init__(sim, name)
        if equalized_delivery_ns <= 0:
            raise ValueError("the equalization bound must be positive")
        self.equalized_delivery_ns = int(equalized_delivery_ns)
        self.exchange_feed_prefix = exchange_feed_prefix
        self.stats = CloudStats()
        self._links: dict[EndpointAddress, Link] = {}
        self._members: dict[MulticastGroup, list[EndpointAddress]] = {}
        # Precomputed trace-point name: the datapath must not build it.
        self._trace_point = f"cloud.{name}"

    # -- provisioning ------------------------------------------------------------

    def register(self, nic: Nic) -> Link:
        """Connect ``nic`` to the fabric; returns its access link."""
        if nic.address in self._links:
            raise ValueError(f"{nic.address} already registered")
        link = Link(
            self.sim,
            f"cloud.{nic.address}",
            nic,
            self,
            propagation_delay_ns=0,
            queue_limit_bytes=None,
        )
        nic.attach(link)
        self._links[nic.address] = link
        return link

    def join(self, group: MulticastGroup, nic: Nic) -> None:
        """Subscribe to a provider-managed (exchange) multicast group."""
        if not group.feed.startswith(self.exchange_feed_prefix):
            raise UnsupportedMulticast(
                f"the provider offers no multicast for tenant feed "
                f"{group.feed!r} (§4.2)"
            )
        self._members.setdefault(group, []).append(nic.address)
        nic.join_group(group)

    # -- datapath ------------------------------------------------------------

    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        self.stats.frames_in += 1
        if packet.trace is not None:
            packet.trace.record(self._trace_point, "wire", self.now)
        self.sim.schedule_after(self.equalized_delivery_ns, self._deliver, (packet,))

    def _deliver(self, packet: Packet) -> None:
        dst: Address = packet.dst
        if is_multicast(dst):
            assert isinstance(dst, MulticastGroup)
            members = self._members.get(dst)
            if members is None:
                self.stats.internal_multicast_rejected += 1
                return
            for address in members:
                self.stats.exchange_multicast_copies += 1
                self._send_to(address, packet.clone())
            return
        self._send_to(dst, packet)  # type: ignore[arg-type]

    def _send_to(self, address: EndpointAddress, packet: Packet) -> None:
        link = self._links.get(address)
        if link is None:
            self.stats.unroutable += 1
            return
        self.stats.delivered += 1
        if packet.trace is not None:
            packet.trace.record(self._trace_point, "cloud", self.now)
        link.send(packet, self)
