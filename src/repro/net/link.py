"""Full-duplex links with serialization, propagation, queueing, and loss.

A link is where latency physically accrues:

* **serialization** — wire bits divided by line rate (plus the 20 B
  Ethernet preamble + inter-frame gap per frame);
* **propagation** — distance over signal speed; in-colo cross-connects are
  tens of ns, metro fiber is tens–hundreds of µs, microwave beats fiber on
  the same path because air propagation (~c) outruns glass (~2c/3);
* **queueing** — a drop-tail FIFO per direction, sized in bytes, standing
  in for the egress buffer of whatever device feeds the link;
* **loss** — i.i.d. frame loss, used for microwave links where rain fade
  makes loss a first-class design consideration (§2 of the paper).

A frame that meets an idle transmitter on a lossless link costs one
kernel event: its delivery, scheduled at serialization plus propagation
when it starts. Queued frames are started by one drain event each, at
the instant the previous frame's last bit leaves. Loss is drawn at that
same instant, so a frame that starts on a lossy link (or is still
serializing when ``Link.loss_prob`` turns it lossy) keeps a separate
end-of-serialization event. Every arrival time, drop and loss draw is
the one a link with separate serialization and propagation events gives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol

from repro.net.packet import Packet
from repro.sim.kernel import EV_ARGS, EV_CANCELLED, Simulator

# Ethernet preamble (8 B) + inter-frame gap (12 B) occupy line time per
# frame but are not part of the frame length that Table 1 reports.
ETHERNET_OVERHEAD_BYTES = 20

# Propagation speeds, metres per second.
SPEED_OF_LIGHT_VACUUM = 299_792_458.0
SPEED_IN_FIBER = SPEED_OF_LIGHT_VACUUM * 2.0 / 3.0  # refractive index ~1.5
SPEED_MICROWAVE = SPEED_OF_LIGHT_VACUUM * 0.99  # near-c through air


def propagation_ns(distance_m: float, speed_m_per_s: float = SPEED_IN_FIBER) -> int:
    """Propagation delay in ns for ``distance_m`` at ``speed_m_per_s``."""
    if distance_m < 0:
        raise ValueError("distance must be >= 0")
    return int(round(distance_m / speed_m_per_s * 1e9))


class PacketSink(Protocol):
    """Anything that can terminate a link end: a NIC, switch, or tap."""

    name: str

    def handle_packet(self, packet: Packet, ingress: "Link") -> None:
        """Deliver ``packet`` arriving over ``ingress``."""
        ...


@dataclass
class LinkStats:
    """Per-direction counters, exposed for analysis and tests."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_delivered: int = 0
    packets_dropped_queue: int = 0
    packets_lost: int = 0
    queue_delay_total_ns: int = 0
    queue_delay_max_ns: int = 0
    busy_ns: int = 0

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the transmitter was serializing."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)


class _Direction:
    """One transmit direction of a full-duplex link.

    The transmitter is busy until :attr:`busy_until`, the nanosecond the
    current frame's last bit leaves it, or while frames are queued.
    """

    def __init__(self, link: "Link", label: str, sink: PacketSink):
        self.link = link
        self.sim = link.sim  # one hop instead of two on the datapath
        self.label = label
        self.sink = sink
        self.queue: deque[tuple[Packet, int]] = deque()  # (packet, enqueue time)
        self.queued_bytes = 0
        self.busy_until = 0
        # The delivery event of the frame last started on the one-event
        # path: the frame on the wire, which a loss change splits again.
        self._on_wire: list | None = None
        self.stats = LinkStats()
        # Instrument names are precomputed so the telemetry-on hot path
        # pays no per-packet string formatting. Drops and losses are
        # per-link (both directions share the counter); queue depth is
        # per-direction — the two transmit queues are distinct buffers.
        slug = "a2b" if label == "a->b" else "b2a"
        self._drops_series = f"link.{link.name}.queue_drops"
        self._losses_series = f"link.{link.name}.wire_losses"
        self._depth_series = f"link.{link.name}.{slug}.queue_bytes"
        # Loss stream resolved on first lossy frame and cached: the name
        # lookup (and its f-string) must not run per packet.
        self._loss_stream_name = f"link.loss.{link.name}"
        self._loss_rng = None

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission. Returns False if dropped."""
        sim = self.sim
        now = sim.now
        wire_bytes = packet.wire_bytes
        limit = self.link.queue_limit_bytes
        telemetry = sim.telemetry
        if limit is not None and self.queued_bytes + wire_bytes > limit:
            self.stats.packets_dropped_queue += 1
            if telemetry is not None:
                telemetry.count(self._drops_series, now)
            return False
        queue = self.queue
        idle = not queue and now >= self.busy_until
        if idle and telemetry is None:
            # The frame would leave the queue in the instant it entered,
            # waiting 0 ns. Only a telemetry session observes that round
            # trip (two depth-gauge writes).
            self._transmit(packet)
            return True
        queue.append((packet, now))
        self.queued_bytes += wire_bytes
        if telemetry is not None:
            telemetry.gauge_set(self._depth_series, now, self.queued_bytes)
        if idle:
            self._start_next()
        elif len(queue) == 1:
            sim.schedule_after(self.busy_until - now, self._drain)
        return True

    def _drain(self) -> None:
        """The transmitter went idle with frames queued: start the next."""
        self._start_next()
        if self.queue:
            self.sim.schedule_after(self.busy_until - self.sim.now, self._drain)

    def _start_next(self) -> None:
        sim = self.sim
        stats = self.stats
        packet, enqueued_at = self.queue.popleft()
        self.queued_bytes -= packet.wire_bytes
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.gauge_set(self._depth_series, sim.now, self.queued_bytes)
        wait = sim.now - enqueued_at
        stats.queue_delay_total_ns += wait
        if wait > stats.queue_delay_max_ns:
            stats.queue_delay_max_ns = wait
        self._transmit(packet)

    def _transmit(self, packet: Packet) -> None:
        sim = self.sim
        link = self.link
        stats = self.stats
        wire_bytes = packet.wire_bytes
        ser = link._serialization_memo.get(wire_bytes)
        if ser is None:
            ser = link.serialization_ns(wire_bytes)
        self.busy_until = sim.now + ser
        stats.busy_ns += ser
        stats.packets_sent += 1
        stats.bytes_sent += wire_bytes
        if link._loss_prob > 0.0:
            self._on_wire = None
            sim.schedule_after(ser, self._serialization_done, (packet,))
        else:
            self._on_wire = sim.schedule_after(
                ser + link.propagation_delay_ns, self._deliver, (packet,)
            )

    def _split_frame_on_wire(self) -> None:
        """Split a one-event frame that is still serializing back into
        two events, so that a loss probability set now decides its fate
        when its last bit leaves."""
        frame = self._on_wire
        sim = self.sim
        if frame is None or frame[EV_CANCELLED] or sim.now > self.busy_until:
            return
        sim.cancel(frame)
        self._on_wire = None
        sim.schedule_after(
            self.busy_until - sim.now, self._serialization_done, frame[EV_ARGS]
        )

    def _serialization_done(self, packet: Packet) -> None:
        sim = self.sim
        link = self.link
        loss_prob = link._loss_prob
        if loss_prob > 0.0:
            rng = self._loss_rng
            if rng is None:
                rng = self._loss_rng = sim.rng.stream(self._loss_stream_name)
            if rng.random() < loss_prob:
                self.stats.packets_lost += 1
                telemetry = sim.telemetry
                if telemetry is not None:
                    telemetry.count(self._losses_series, sim.now)
                return
        sim.schedule_after(link.propagation_delay_ns, self._deliver, (packet,))

    def _deliver(self, packet: Packet) -> None:
        self.stats.packets_delivered += 1
        self.sink.handle_packet(packet, self.link)


class Link:
    """A full-duplex point-to-point link between two packet sinks.

    Devices transmit with :meth:`send`, naming themselves so the link can
    pick the direction. The conventional in-colo cross-connect is 10 Gb/s
    (§2: "usually via 10 Gbps Ethernet").
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        end_a: PacketSink,
        end_b: PacketSink,
        bandwidth_bps: float = 10e9,
        propagation_delay_ns: int = 50,
        loss_prob: float = 0.0,
        queue_limit_bytes: int | None = 512 * 1024,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss_prob <= 1.0:
            raise ValueError("loss_prob must be within [0, 1]")
        if end_a is end_b:
            raise ValueError("link endpoints must be distinct devices")
        self.sim = sim
        self.name = name
        self.end_a = end_a
        self.end_b = end_b
        # frame bytes -> line time at the current rate; see bandwidth_bps.
        self._serialization_memo: dict[int, int] = {}
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay_ns = int(propagation_delay_ns)
        self._loss_prob = float(loss_prob)
        self.queue_limit_bytes = queue_limit_bytes
        self._a_to_b = _Direction(self, "a->b", end_b)
        self._b_to_a = _Direction(self, "b->a", end_a)
        sim.components.append(self)  # a Link is a device but not a Component

    @property
    def bandwidth_bps(self) -> float:
        """Line rate. Assignable mid-run (chaos ``link_rate`` windows do);
        a new rate discards the memoised serialization times."""
        return self._bandwidth_bps

    @bandwidth_bps.setter
    def bandwidth_bps(self, value: float) -> None:
        self._bandwidth_bps = value
        self._serialization_memo.clear()

    @property
    def loss_prob(self) -> float:
        """I.i.d. frame loss probability. Assignable mid-run (chaos
        ``link_down`` / ``link_loss`` windows do); a frame still
        serializing when it turns lossy is lost or kept when its last bit
        leaves, as on a link that was lossy all along."""
        return self._loss_prob

    @loss_prob.setter
    def loss_prob(self, value: float) -> None:
        self._loss_prob = value
        if value > 0.0:
            self._a_to_b._split_frame_on_wire()
            self._b_to_a._split_frame_on_wire()

    def serialization_ns(self, frame_bytes: int) -> int:
        """Line time for one frame, including preamble + inter-frame gap."""
        ser = self._serialization_memo.get(frame_bytes)
        if ser is None:
            bits = (frame_bytes + ETHERNET_OVERHEAD_BYTES) * 8
            ser = max(1, int(round(bits / self._bandwidth_bps * 1e9)))
            self._serialization_memo[frame_bytes] = ser
        return ser

    def other_end(self, device: PacketSink) -> PacketSink:
        """The sink at the far end from ``device``."""
        if device is self.end_a:
            return self.end_b
        if device is self.end_b:
            return self.end_a
        raise ValueError(f"{device!r} is not attached to link {self.name}")

    def send(self, packet: Packet, sender: PacketSink) -> bool:
        """Transmit ``packet`` away from ``sender``. False if tail-dropped."""
        if sender is self.end_a:
            return self._a_to_b.send(packet)
        if sender is self.end_b:
            return self._b_to_a.send(packet)
        raise ValueError(f"{sender!r} is not attached to link {self.name}")

    def queued_bytes_from(self, sender: PacketSink) -> int:
        """Bytes currently waiting in ``sender``'s transmit queue."""
        if sender is self.end_a:
            return self._a_to_b.queued_bytes
        if sender is self.end_b:
            return self._b_to_a.queued_bytes
        raise ValueError(f"{sender!r} is not attached to link {self.name}")

    def stats_from(self, sender: PacketSink) -> LinkStats:
        """Transmit-direction statistics for traffic sent by ``sender``."""
        if sender is self.end_a:
            return self._a_to_b.stats
        if sender is self.end_b:
            return self._b_to_a.stats
        raise ValueError(f"{sender!r} is not attached to link {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.end_a.name}<->{self.end_b.name}>"


def microwave_link(
    sim: Simulator,
    name: str,
    end_a: PacketSink,
    end_b: PacketSink,
    distance_m: float,
    bandwidth_bps: float = 1e9,
    loss_prob: float = 1e-4,
) -> Link:
    """A metro microwave circuit: near-c propagation, low rate, lossy."""
    return Link(
        sim,
        name,
        end_a,
        end_b,
        bandwidth_bps=bandwidth_bps,
        propagation_delay_ns=propagation_ns(distance_m, SPEED_MICROWAVE),
        loss_prob=loss_prob,
    )


def fiber_link(
    sim: Simulator,
    name: str,
    end_a: PacketSink,
    end_b: PacketSink,
    distance_m: float,
    bandwidth_bps: float = 10e9,
    path_stretch: float = 1.4,
) -> Link:
    """A metro fiber circuit; ``path_stretch`` models non-geodesic routing."""
    return Link(
        sim,
        name,
        end_a,
        end_b,
        bandwidth_bps=bandwidth_bps,
        propagation_delay_ns=propagation_ns(distance_m * path_stretch, SPEED_IN_FIBER),
    )
