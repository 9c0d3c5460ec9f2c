"""The simulated packet.

A :class:`Packet` carries an application-level ``message`` (any object —
usually a decoded PITCH/BOE message or a raw frame payload) plus the
metadata the datapath models need: wire size, source/destination address,
and an optional trace context. The wire size is what drives serialization
delay and queue occupancy; the trace context
(``repro.telemetry.TraceContext``) is the one record of which devices the
packet passed and when — a packet in a run without telemetry carries no
per-hop state at all.
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
    check on the hot path and a dark run records nothing per hop.
    """

    __slots__ = (
        "src", "dst", "wire_bytes", "payload_bytes", "message", "seqno",
        "created_at", "packet_id", "trace",
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

    @property
    def header_bytes(self) -> int:
        """Bytes of protocol overhead (everything that is not payload)."""
        return self.wire_bytes - self.payload_bytes

    @property
    def header_fraction(self) -> float:
        """Header overhead as a fraction of the frame. Paper: 25–40%."""
        return self.header_bytes / self.wire_bytes

    def clone(self) -> "Packet":
        """Copy for multicast fan-out: fresh id, forked trace."""
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
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.wire_bytes}B seq={self.seqno}>"
        )
