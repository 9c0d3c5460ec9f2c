"""NICs and host stacks.

Figure 1(d) of the paper shows the server layout trading firms use:
separate NICs for management, market data, and orders, and dedicated cores
per function. :class:`Nic` models one interface — hardware receive/transmit
latency, multicast group filtering, and — on traced packets — a hardware
receive timestamp (trading NICs timestamp in hardware), recorded as the
``nic.rx.<name>`` trace event. :class:`HostStack` models the software side:
a per-message processing delay standing in for the application work done
on a dedicated core, defaulting to the paper's "<1 µs per software hop".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import Component

# Kernel-bypass (Onload-style) per-side latencies: a full software
# "ping-pong" hop lands under 1 us, per §3 of the paper.
DEFAULT_RX_LATENCY_NS = 250
DEFAULT_TX_LATENCY_NS = 250


@dataclass
class NicStats:
    packets_received: int = 0
    packets_delivered: int = 0
    packets_filtered: int = 0
    packets_chaos_dropped: int = 0
    packets_sent: int = 0
    send_failures: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0


class Nic(Component):
    """One network interface on a host.

    The NIC filters multicast frames for groups the host has not joined
    (the hardware MAC filter), records the hardware receive time on the
    packet's trace context (when it carries one), and delivers to the
    bound handler after ``rx_latency_ns``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: EndpointAddress,
        rx_latency_ns: int = DEFAULT_RX_LATENCY_NS,
        tx_latency_ns: int = DEFAULT_TX_LATENCY_NS,
    ):
        super().__init__(sim, name)
        self.address = address
        self.rx_latency_ns = int(rx_latency_ns)
        self.tx_latency_ns = int(tx_latency_ns)
        self.link: Link | None = None
        self.stats = NicStats()
        self._handler: Callable[[Packet], None] | None = None
        self._groups: set[MulticastGroup] = set()
        self.promiscuous = False
        # Precomputed instrument names for the telemetry-on fast path.
        # rx_inflight tracks packets between hardware receive and
        # application delivery — the NIC's rx ring occupancy.
        self._rx_inflight_series = f"nic.{name}.rx_inflight"
        self._send_failures_series = f"nic.{name}.send_failures"
        self._chaos_drops_series = f"nic.{name}.chaos_drops"
        # Receive-side fault injection (repro.chaos): probability a
        # delivered-to-us frame is dropped, read per packet so the chaos
        # controller can open/close drop windows mid-run. The loss draw
        # rides a named substream, like Link's wire loss, so faulted
        # runs stay deterministic.
        self.chaos_drop_prob = 0.0
        self._chaos_rng = None
        self._chaos_stream_name = f"chaos.nic.{name}"
        self._rx_stamp = f"nic.rx.{name}"
        self._trace_point = f"nic.{name}"

    # -- wiring ------------------------------------------------------------

    def attach(self, link: Link) -> None:
        """Connect this NIC to a link. One link per NIC."""
        if self.link is not None:
            raise RuntimeError(f"NIC {self.name} already attached to a link")
        self.link = link

    def bind(self, handler: Callable[[Packet], None]) -> None:
        """Set the application callback invoked on each delivered packet."""
        self._handler = handler

    # -- multicast membership ------------------------------------------------

    def join_group(self, group: MulticastGroup) -> None:
        self._groups.add(group)

    def leave_group(self, group: MulticastGroup) -> None:
        self._groups.discard(group)

    @property
    def joined_groups(self) -> frozenset[MulticastGroup]:
        return frozenset(self._groups)

    # -- datapath ------------------------------------------------------------

    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        """Link-side entry point (PacketSink protocol)."""
        stats = self.stats
        stats.packets_received += 1
        stats.bytes_received += packet.wire_bytes
        if not self.promiscuous:
            # The hardware MAC filter: joined groups and our own address.
            dst = packet.dst
            if type(dst) is MulticastGroup:
                accepted = dst in self._groups
            else:
                accepted = dst == self.address
            if not accepted:
                stats.packets_filtered += 1
                return
        sim = self.sim
        now = sim.now
        telemetry = sim.telemetry
        if self.chaos_drop_prob > 0.0:
            rng = self._chaos_rng
            if rng is None:
                rng = self._chaos_rng = sim.rng.stream(self._chaos_stream_name)
            if rng.random() < self.chaos_drop_prob:
                stats.packets_chaos_dropped += 1
                if telemetry is not None:
                    telemetry.count(self._chaos_drops_series, now)
                return
        if packet.trace is not None:
            packet.trace.record(self._rx_stamp, "wire", now)
        if telemetry is not None:
            telemetry.gauge_add(self._rx_inflight_series, now, 1)
        sim.schedule_after(self.rx_latency_ns, self._deliver, (packet,))

    def _deliver(self, packet: Packet) -> None:
        self.stats.packets_delivered += 1
        sim = self.sim
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.gauge_add(self._rx_inflight_series, sim.now, -1)
        if packet.trace is not None:
            packet.trace.record(self._trace_point, "nic", sim.now)
        if self._handler is not None:
            self._handler(packet)

    def send(self, packet: Packet) -> bool:
        """Transmit ``packet`` after the NIC's TX latency.

        Returns True if the packet was queued for transmission. The return
        value reflects NIC acceptance, not eventual delivery: a tail drop
        at the link queue is counted in ``stats.send_failures`` when it
        occurs at enqueue time.
        """
        if self.link is None:
            raise RuntimeError(f"NIC {self.name} is not attached to a link")
        sim = self.sim
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += packet.wire_bytes
        sim.schedule_after(self.tx_latency_ns, self._transmit, (packet,))
        return True

    def _transmit(self, packet: Packet) -> None:
        assert self.link is not None
        sim = self.sim
        if packet.trace is not None:
            packet.trace.record(self._trace_point, "nic", sim.now)
        ok = self.link.send(packet, self)
        if not ok:
            self.stats.send_failures += 1
            telemetry = sim.telemetry
            if telemetry is not None:
                telemetry.count(self._send_failures_series, sim.now)


@dataclass
class HostStack:
    """The software side of a server: NICs plus a processing-time model.

    ``function_latency_ns`` is the paper's "average latency of each
    function is less than 2 microseconds" — the time a normalizer,
    strategy, or gateway spends between receiving an input and emitting
    its output, excluding NIC and wire time.
    """

    host: str
    function_latency_ns: int = 2_000
    nics: dict[str, Nic] = field(default_factory=dict)

    def add_nic(self, nic: Nic) -> None:
        if nic.address.host != self.host:
            raise ValueError(
                f"NIC {nic.address} does not belong to host {self.host}"
            )
        if nic.address.nic in self.nics:
            raise ValueError(f"duplicate NIC name {nic.address.nic} on {self.host}")
        self.nics[nic.address.nic] = nic

    def nic(self, name: str = "eth0") -> Nic:
        return self.nics[name]
