"""Passive packet taps and capture appliances.

Firms record network traffic with precise timestamps for monitoring and
research (§2). A :class:`CaptureTap` sits inline on a path (in practice a
passive optical splitter or an L1S fan-out — an L1S can mirror any input
to a capture port for free), stamps every frame with its local clock, and
forwards with negligible added latency. A :class:`CaptureAppliance`
aggregates records from many taps and answers the queries research needs:
per-packet one-way delays between taps and event-ordering reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import Component
from repro.timing.clock import DriftingClock


@dataclass(frozen=True, slots=True)
class CaptureRecord:
    """One captured frame at one tap."""

    tap: str
    packet_id: int
    timestamp_ns: int  # tap-local clock indication
    wire_bytes: int
    src: str
    dst: str


class CaptureAppliance:
    """Collects capture records and supports cross-tap latency queries."""

    def __init__(self, name: str = "capture"):
        self.name = name
        self.records: list[CaptureRecord] = []

    def ingest(self, record: CaptureRecord) -> None:
        self.records.append(record)

    def by_tap(self, tap: str) -> list[CaptureRecord]:
        return [r for r in self.records if r.tap == tap]

    def one_way_delays(self, tap_from: str, tap_to: str) -> list[int]:
        """Per-packet delays between two taps, matched by packet id.

        The result mixes in both taps' clock errors — which is precisely
        why capture infrastructure needs synchronized clocks.
        """
        first: dict[int, int] = {}
        for record in self.records:
            if record.tap == tap_from and record.packet_id not in first:
                first[record.packet_id] = record.timestamp_ns
        delays = []
        for record in self.records:
            if record.tap == tap_to and record.packet_id in first:
                delays.append(record.timestamp_ns - first[record.packet_id])
        return delays

    def ordering(self, taps: Iterable[str] | None = None) -> list[CaptureRecord]:
        """Records sorted by (claimed) timestamp — the research view.

        With imperfect clocks this order can disagree with true order;
        tests use this to show why sync quality matters.
        """
        wanted = set(taps) if taps is not None else None
        records = [
            r for r in self.records if wanted is None or r.tap in wanted
        ]
        return sorted(records, key=lambda r: (r.timestamp_ns, r.packet_id))


class CaptureTap(Component):
    """An inline tap between two links: records then forwards.

    Wire it by creating two links that both terminate at the tap and
    calling :meth:`set_through`. ``forward_latency_ns`` defaults to 5 ns —
    an L1S-grade passive hop.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        appliance: CaptureAppliance,
        clock: DriftingClock | None = None,
        forward_latency_ns: int = 5,
    ):
        super().__init__(sim, name)
        self.appliance = appliance
        self.clock = clock
        self.forward_latency_ns = int(forward_latency_ns)
        self._through: dict[int, Link] = {}
        self.frames_seen = 0

    def set_through(self, side_a: Link, side_b: Link) -> None:
        """Frames arriving on either side forward out the other."""
        self._through[id(side_a)] = side_b
        self._through[id(side_b)] = side_a

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        timestamp = self.clock.read() if self.clock is not None else self.now
        self.frames_seen += 1
        self.appliance.ingest(
            CaptureRecord(
                tap=self.name,
                packet_id=packet.packet_id,
                timestamp_ns=timestamp,
                wire_bytes=packet.wire_bytes,
                src=str(packet.src),
                dst=str(packet.dst),
            )
        )
        egress = self._through.get(id(ingress))
        if egress is None:
            return  # capture-only port (e.g. mirrored feed)
        self.sim.schedule_after(
            self.forward_latency_ns, self._forward, (packet, egress)
        )

    def _forward(self, packet: Packet, egress: Link) -> None:
        egress.send(packet, self)
