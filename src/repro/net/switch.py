"""Commodity Ethernet switches with finite multicast route tables.

§3 of the paper makes two hardware observations this module encodes:

* **Latency.** Commodity switch latency has crept *up* as pipelines grew
  more flexible — today's parts sit near 500 ns even in cut-through mode,
  about 20% above the generation deployed a decade ago.
* **Multicast.** The mroute table lives in dedicated ASIC memory. When it
  overflows, switches fall back to software forwarding, which "cripples
  performance and induces heavy packet loss". We model the software path
  as a slow, finite-rate queue so overload produces loss organically
  rather than via a hard-coded loss probability.

:data:`SWITCH_GENERATIONS` captures the trend the paper describes: each
generation roughly doubles bandwidth, while latency slowly rises and
multicast group capacity grows only ~80% end to end against a 500% growth
in market data volume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import Component


@dataclass(frozen=True)
class SwitchProfile:
    """Capability envelope of one switch generation."""

    model: str
    year: int
    port_bandwidth_bps: float
    hop_latency_ns: int  # cut-through forwarding latency
    mroute_capacity: int  # hardware multicast route entries
    fib_capacity: int  # unicast forwarding entries
    store_and_forward: bool = False
    # Software (CPU) forwarding path, used on mroute overflow.
    software_latency_ns: int = 20_000  # per-packet service time, 50k pps
    software_queue_packets: int = 256

    def __post_init__(self) -> None:
        if self.hop_latency_ns <= 0 or self.mroute_capacity < 0:
            raise ValueError("invalid switch profile parameters")


# The generational trend of §3. Bandwidth doubles per generation; latency
# rises ~20% decade-over-decade; mroute capacity rises only ~80% total.
SWITCH_GENERATIONS: tuple[SwitchProfile, ...] = (
    SwitchProfile("gen2014-10g", 2014, 10e9, 415, 2000, 32_000),
    SwitchProfile("gen2016-25g", 2016, 25e9, 430, 2200, 48_000),
    SwitchProfile("gen2018-50g", 2018, 50e9, 450, 2600, 64_000),
    SwitchProfile("gen2020-100g", 2020, 100e9, 465, 3000, 96_000),
    SwitchProfile("gen2022-200g", 2022, 200e9, 480, 3300, 128_000),
    SwitchProfile("gen2024-400g", 2024, 400e9, 500, 3600, 192_000),
)

CURRENT_GENERATION = SWITCH_GENERATIONS[-1]
DECADE_AGO_GENERATION = SWITCH_GENERATIONS[0]


@dataclass
class SwitchStats:
    packets_forwarded: int = 0
    blackholed: int = 0
    unicast_forwarded: int = 0
    multicast_forwarded: int = 0
    software_forwarded: int = 0
    software_dropped: int = 0
    unroutable: int = 0
    egress_send_failures: int = 0


class MrouteOverflow(RuntimeError):
    """Raised by strict-mode installs when the hardware table is full."""


class CommoditySwitch(Component):
    """A store-everything Ethernet switch with unicast FIB and mroute table.

    Forwarding model:

    * unicast — FIB lookup → one egress link; miss counts as unroutable
      (trading networks pin routes; flooding would be a config error);
    * multicast in hardware — mroute lookup → copy to every egress except
      the ingress, at :attr:`SwitchProfile.hop_latency_ns`;
    * multicast in software — entries that did not fit the hardware table
      are serviced by a single software queue at
      :attr:`SwitchProfile.software_latency_ns` per packet, dropping when
      its queue fills.
    """

    def __init__(self, sim: Simulator, name: str, profile: SwitchProfile):
        super().__init__(sim, name)
        self.profile = profile
        self.failed = False  # a failed switch blackholes everything
        self.links: list[Link] = []
        self.fib: dict[EndpointAddress, Link] = {}
        self._mroute_hw: dict[MulticastGroup, set[Link]] = {}
        self._mroute_sw: dict[MulticastGroup, set[Link]] = {}
        self.stats = SwitchStats()
        self._sw_queue: deque[tuple[Packet, Link]] = deque()
        self._sw_busy = False
        # Precomputed instrument names keep the telemetry-on datapath
        # free of per-packet string formatting.
        self._sw_drops_series = f"switch.{name}.software_drops"
        self._sw_depth_series = f"switch.{name}.software_queue_depth"
        self._trace_point = f"switch.{name}"
        # Cut-through forwarding latency does not depend on the frame;
        # 0 (store-and-forward) means "compute it per packet".
        self._cut_through_ns = 0 if profile.store_and_forward else profile.hop_latency_ns

    # -- wiring ------------------------------------------------------------

    def attach_link(self, link: Link) -> None:
        if link not in self.links:
            self.links.append(link)

    def install_route(self, dst: EndpointAddress, egress: Link) -> None:
        """Install a unicast FIB entry."""
        if len(self.fib) >= self.profile.fib_capacity and dst not in self.fib:
            raise MrouteOverflow(
                f"{self.name}: FIB capacity {self.profile.fib_capacity} exceeded"
            )
        self.fib[dst] = egress

    def install_mroute(
        self, group: MulticastGroup, egress: set[Link], strict: bool = False
    ) -> bool:
        """Install a multicast route.

        Returns True when the entry landed in the hardware table. When the
        table is full the entry spills to the software path (or raises,
        with ``strict=True``). Updating an existing entry never changes
        which table holds it.
        """
        if group in self._mroute_hw:
            self._mroute_hw[group] = set(egress)
            return True
        if group in self._mroute_sw:
            self._mroute_sw[group] = set(egress)
            return False
        if len(self._mroute_hw) < self.profile.mroute_capacity:
            self._mroute_hw[group] = set(egress)
            return True
        if strict:
            raise MrouteOverflow(
                f"{self.name}: mroute capacity {self.profile.mroute_capacity} exceeded"
            )
        self._mroute_sw[group] = set(egress)
        return False

    def remove_mroute(self, group: MulticastGroup) -> None:
        self._mroute_hw.pop(group, None)
        self._mroute_sw.pop(group, None)

    @property
    def mroute_hw_entries(self) -> int:
        return len(self._mroute_hw)

    @property
    def mroute_sw_entries(self) -> int:
        return len(self._mroute_sw)

    def mroute_egress(self, group: MulticastGroup) -> set[Link] | None:
        """Current egress set for ``group`` in either table, or None."""
        entry = self._mroute_hw.get(group)
        if entry is None:
            entry = self._mroute_sw.get(group)
        return set(entry) if entry is not None else None

    # -- datapath ------------------------------------------------------------

    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        """PacketSink entry point: classify and forward.

        The two hardware paths (unicast FIB hit, hardware mroute hit) are
        handled here in one frame; only multicast groups that spilled to
        the software table leave it.
        """
        stats = self.stats
        if self.failed:
            stats.blackholed += 1
            return
        stats.packets_forwarded += 1
        sim = self.sim
        trace = packet.trace
        if trace is not None:
            trace.record(self._trace_point, "wire", sim.now)
        dst = packet.dst
        delay_ns = self._cut_through_ns or self._forward_latency_ns(packet)
        if type(dst) is not MulticastGroup:
            egress = self.fib.get(dst)
            if egress is None or egress is ingress:
                stats.unroutable += 1
                return
            stats.unicast_forwarded += 1
            sim.schedule_after(delay_ns, self._emit, (packet, egress))
            return
        hw_entry = self._mroute_hw.get(dst)
        if hw_entry is None:
            self._forward_software(packet, ingress)
            return
        stats.multicast_forwarded += 1
        schedule_after = sim.schedule_after
        emit = self._emit
        for egress in hw_entry:
            if egress is not ingress:
                schedule_after(delay_ns, emit, (packet.clone(), egress))

    def _forward_software(self, packet: Packet, ingress: Link) -> None:
        if packet.dst not in self._mroute_sw:
            self.stats.unroutable += 1
            return
        # Software path: one slow service queue shared by all spilled groups.
        if len(self._sw_queue) >= self.profile.software_queue_packets:
            self.stats.software_dropped += 1
            telemetry = self.sim.telemetry
            if telemetry is not None:
                telemetry.count(self._sw_drops_series, self.now)
            return
        self._sw_queue.append((packet, ingress))
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.gauge_set(self._sw_depth_series, self.now, len(self._sw_queue))
        if not self._sw_busy:
            self._sw_busy = True
            self.sim.schedule_after(
                self.profile.software_latency_ns, self._software_service
            )

    def _software_service(self) -> None:
        packet, ingress = self._sw_queue.popleft()
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.gauge_set(self._sw_depth_series, self.now, len(self._sw_queue))
        entry = self._mroute_sw.get(packet.dst, ())
        self.stats.software_forwarded += 1
        for egress in entry:
            if egress is ingress:
                continue
            self._emit(packet.clone(), egress)
        if self._sw_queue:
            self.sim.schedule_after(
                self.profile.software_latency_ns, self._software_service
            )
        else:
            self._sw_busy = False

    def _forward_latency_ns(self, packet: Packet) -> int:
        latency_ns = self.profile.hop_latency_ns
        if self.profile.store_and_forward:
            # Must buffer the full frame before the forwarding decision.
            bits = packet.wire_bytes * 8
            latency_ns += int(round(bits / self.profile.port_bandwidth_bps * 1e9))
        return latency_ns

    def _emit(self, packet: Packet, egress: Link) -> None:
        now = self.sim.now
        if packet.trace is not None:
            packet.trace.record(self._trace_point, "switch", now)
        if not egress.send(packet, self):
            self.stats.egress_send_failures += 1
