"""A reliable, in-order message channel — the TCP of this simulation.

§2: orders travel over "long-lived (e.g., 6+ hours) TCP connections".
In-colo cross-connects never drop frames, so most simulations can treat
order packets as reliable; but order flow *between colos* rides the same
lossy WAN circuits as market data, and there reliability machinery is
load-bearing.

:class:`ReliableChannel` implements the standard machinery at message
granularity: sequence numbers, cumulative acknowledgements (piggybacked
on data when possible, pure ACK frames otherwise), retransmission on a
doubling RTO, duplicate suppression, and in-order delivery with
out-of-order buffering. Two channels bound to NICs at either end of any
path form a connection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addressing import EndpointAddress
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.headers import frame_bytes_tcp
from repro.sim.kernel import MICROSECOND, Simulator
from repro.sim.process import Component

DEFAULT_RTO_NS = 200 * MICROSECOND
MAX_RETRIES = 8
PURE_ACK_BYTES = 0  # payload bytes of an ACK-only frame

# A retransmit that fires while this many messages sit unacked is part of
# a *storm* (a gap-replay burst), not an isolated tail-drop recovery.
STORM_IN_FLIGHT = 4


@dataclass
class ReliableStats:
    sent: int = 0
    retransmits: int = 0
    storm_retransmits: int = 0  # retransmits fired with >= STORM_IN_FLIGHT unacked
    delivered: int = 0
    duplicates: int = 0
    pure_acks: int = 0
    failures: int = 0  # messages abandoned after MAX_RETRIES


@dataclass
class _Outstanding:
    seq: int
    payload: object
    payload_bytes: int
    retries: int = 0
    # Raw fast-path event token for the pending retransmit timeout.
    # Every data message arms one and nearly every ACK cancels one, so
    # this is the workload heap compaction exists for.
    timer: list | None = None


class ReliableChannel(Component):
    """One endpoint of a reliable message connection.

    ``on_message(payload)`` fires for each peer message, exactly once,
    in send order. ``payload`` may be any object; ``payload_bytes``
    (given per send, defaulting to a small frame) drives wire sizing.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        nic: Nic,
        peer: EndpointAddress,
        on_message=None,
        rto_ns: int = DEFAULT_RTO_NS,
        on_failure=None,
    ):
        super().__init__(sim, name)
        self.nic = nic
        self.peer = peer
        self.on_message = on_message
        self.on_failure = on_failure
        self.rto_ns = int(rto_ns)
        self.stats = ReliableStats()
        self._next_seq = 1
        self._outstanding: dict[int, _Outstanding] = {}
        self._recv_next = 1
        self._recv_buffer: dict[int, object] = {}
        self._ack_owed = False
        # Instrument names keyed by endpoint (host.nic), precomputed off
        # the hot path. in_flight is the retransmit queue: messages sent
        # but not yet cumulatively acked.
        endpoint = f"{nic.address.host}.{nic.address.nic}"
        self._retransmits_series = f"rel.{endpoint}.retransmits"
        self._inflight_series = f"rel.{endpoint}.in_flight"
        nic.bind(self._on_packet)

    # -- sending -----------------------------------------------------------

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def send(self, payload: object, payload_bytes: int = 64) -> int:
        """Queue ``payload`` for reliable delivery; returns its seq."""
        seq = self._next_seq
        self._next_seq += 1
        entry = _Outstanding(seq, payload, payload_bytes)
        self._outstanding[seq] = entry
        self.stats.sent += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.gauge_set(self._inflight_series, self.now, len(self._outstanding))
        self._transmit(entry)
        return seq

    def _transmit(self, entry: _Outstanding) -> None:
        self._emit(entry.seq, entry.payload, entry.payload_bytes)
        backoff = self.rto_ns << min(entry.retries, 6)
        entry.timer = self.sim.schedule_after(
            backoff, self._on_timeout, (entry.seq,)
        )

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _emit(self, seq: int, payload: object, payload_bytes: int) -> None:
        ack = self._recv_next - 1
        self._ack_owed = False
        self.nic.send(
            Packet(
                src=self.nic.address,
                dst=self.peer,
                wire_bytes=frame_bytes_tcp(payload_bytes),
                payload_bytes=payload_bytes,
                message=("rel", seq, ack, payload),
                created_at=self.now,
            )
        )

    def _on_timeout(self, seq: int) -> None:
        entry = self._outstanding.get(seq)
        if entry is None:
            return  # acked in the meantime
        if entry.retries >= MAX_RETRIES:
            self._outstanding.pop(seq, None)
            self.stats.failures += 1
            if self.on_failure is not None:
                self.on_failure(entry.payload)
            return
        entry.retries += 1
        self.stats.retransmits += 1
        in_flight = len(self._outstanding)
        storm = in_flight >= STORM_IN_FLIGHT
        if storm:
            self.stats.storm_retransmits += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.count(self._retransmits_series, self.now)
            # Re-gauge during replay so the storm's in-flight plateau (and
            # its high watermark) is visible even with no sends landing.
            telemetry.gauge_set(self._inflight_series, self.now, in_flight)
            if storm:
                telemetry.count("reliable.storm_retransmits", self.now)
        self._transmit(entry)

    @property
    def in_flight(self) -> int:
        return len(self._outstanding)

    # -- receiving -----------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        message = packet.message
        if not (isinstance(message, tuple) and message and message[0] == "rel"):
            return
        _tag, seq, ack, payload = message
        self._handle_ack(ack)
        if seq == 0:
            self.stats.pure_acks += 1
            return
        if seq < self._recv_next:
            self.stats.duplicates += 1
            self._schedule_ack()  # re-ack so the sender stops resending
            return
        if seq in self._recv_buffer:
            self.stats.duplicates += 1
            return
        self._recv_buffer[seq] = payload
        self._drain()
        self._schedule_ack()

    def _drain(self) -> None:
        while self._recv_next in self._recv_buffer:
            payload = self._recv_buffer.pop(self._recv_next)
            self._recv_next += 1
            self.stats.delivered += 1
            if self.on_message is not None:
                self.on_message(payload)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _handle_ack(self, ack: int) -> None:
        acked = [s for s in self._outstanding if s <= ack]
        for seq in acked:
            entry = self._outstanding.pop(seq)
            if entry.timer is not None:
                self.sim.cancel(entry.timer)
        if acked:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                telemetry.gauge_set(
                    self._inflight_series, self.now, len(self._outstanding)
                )

    def _schedule_ack(self) -> None:
        """Delayed-ack: coalesce; a data send in the window piggybacks."""
        if self._ack_owed:
            return
        self._ack_owed = True
        self.sim.schedule_after(10 * MICROSECOND, self._flush_ack)

    def _flush_ack(self) -> None:
        if not self._ack_owed:
            return  # piggybacked on data in the meantime
        self._emit(0, None, PURE_ACK_BYTES)


def connect(
    sim: Simulator,
    nic_a: Nic,
    nic_b: Nic,
    on_message_a=None,
    on_message_b=None,
    rto_ns: int = DEFAULT_RTO_NS,
) -> tuple[ReliableChannel, ReliableChannel]:
    """Create both endpoints of a connection between two NICs."""
    a = ReliableChannel(
        sim, f"rel.{nic_a.address}", nic_a, nic_b.address,
        on_message=on_message_a, rto_ns=rto_ns,
    )
    b = ReliableChannel(
        sim, f"rel.{nic_b.address}", nic_b, nic_a.address,
        on_message=on_message_b, rto_ns=rto_ns,
    )
    return a, b
