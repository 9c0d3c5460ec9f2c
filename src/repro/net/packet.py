"""The simulated packet.

A :class:`Packet` carries an application-level ``message`` (any object —
usually a decoded PITCH/BOE message or a raw frame payload) plus the
metadata the datapath models need: wire size, source/destination address,
and a timestamp trail. The wire size is what drives serialization delay
and queue occupancy; the timestamp trail is what taps and the latency
accounting layer read.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.net.addressing import Address, EndpointAddress

_packet_ids = itertools.count(1)

# Minimum and maximum Ethernet frame sizes (including the 14 B Ethernet
# header and 4 B FCS, excluding preamble/IFG which live in the link model).
MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1518


class Packet:
    """One frame on the wire.

    ``wire_bytes`` is the full on-the-wire frame length, inclusive of
    Ethernet/IP/UDP (or TCP) headers, matching how the paper's Table 1
    reports frame lengths. ``payload_bytes`` is the application payload
    carried, so ``wire_bytes - payload_bytes`` is header overhead.

    ``trace`` is the telemetry trace context
    (``repro.telemetry.TraceContext``) or ``None`` — always ``None`` when
    telemetry is disabled, so the per-device hooks cost one attribute
    check on the hot path.
    """

    __slots__ = (
        "src", "dst", "wire_bytes", "payload_bytes", "message", "seqno",
        "created_at", "packet_id", "trace", "_trail",
    )

    def __init__(
        self,
        src: EndpointAddress,
        dst: Address,
        wire_bytes: int,
        payload_bytes: int,
        message: Any = None,
        seqno: int | None = None,
        created_at: int = 0,
        trace: Any = None,
    ):
        if wire_bytes < MIN_FRAME_BYTES:
            # Ethernet pads runt frames up to the 64-byte minimum.
            wire_bytes = MIN_FRAME_BYTES
        if wire_bytes > MAX_FRAME_BYTES:
            raise ValueError(
                f"frame of {wire_bytes} B exceeds Ethernet maximum "
                f"({MAX_FRAME_BYTES} B); fragment at a higher layer"
            )
        if payload_bytes < 0 or payload_bytes > wire_bytes:
            raise ValueError("payload_bytes must be within [0, wire_bytes]")
        self.src = src
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.payload_bytes = payload_bytes
        self.message = message
        self.seqno = seqno
        self.created_at = created_at
        self.packet_id = next(_packet_ids)
        self.trace = trace
        # Timestamp trail, newest first: a persistent list of
        # (where, when_ns, older) cells. Cells are immutable, so fan-out
        # copies share their common history instead of copying it.
        self._trail: tuple | None = None

    @property
    def header_bytes(self) -> int:
        """Bytes of protocol overhead (everything that is not payload)."""
        return self.wire_bytes - self.payload_bytes

    @property
    def header_fraction(self) -> float:
        """Header overhead as a fraction of the frame. Paper: 25–40%."""
        return self.header_bytes / self.wire_bytes

    def stamp(self, where: str, when: int) -> None:
        """Append a trail entry; used by taps and latency accounting."""
        self._trail = (where, when, self._trail)

    @property
    def trail(self) -> list[tuple[str, int]]:
        """The ``(where, when_ns)`` pairs stamped by NICs, switches and
        capture taps as the packet traversed them, oldest first."""
        entries = []
        cell = self._trail
        while cell is not None:
            where, when, cell = cell
            entries.append((where, when))
        entries.reverse()
        return entries

    def first_stamp(self, prefix: str) -> int | None:
        """Earliest trail time whose location starts with ``prefix``."""
        for where, when in self.trail:
            if where.startswith(prefix):
                return when
        return None

    def last_stamp(self, prefix: str) -> int | None:
        """Latest trail time whose location starts with ``prefix``."""
        found = None
        for where, when in self.trail:
            if where.startswith(prefix):
                found = when
        return found

    def clone(self) -> "Packet":
        """Copy for multicast fan-out: fresh id, shared history, forked trace."""
        copy = Packet.__new__(Packet)  # not __init__: the original was validated
        copy.src = self.src
        copy.dst = self.dst
        copy.wire_bytes = self.wire_bytes
        copy.payload_bytes = self.payload_bytes
        copy.message = self.message
        copy.seqno = self.seqno
        copy.created_at = self.created_at
        copy.packet_id = next(_packet_ids)
        trace = self.trace
        copy.trace = trace.fork() if trace is not None else None
        copy._trail = self._trail
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.wire_bytes}B seq={self.seqno}>"
        )
