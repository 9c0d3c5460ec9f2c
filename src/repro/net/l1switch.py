"""Layer-1 switches and merge units (§4.3, Design 3).

A layer-1 switch (L1S) is essentially an electronic patch panel: it
replicates the signal on an input port to a configured set of output
ports. Because there is no packet parsing there is also no classification,
no filtering, and no multipath — but the port-to-port latency is 5–6 ns,
two orders of magnitude below a commodity switch hop.

Merging several inputs onto one output *does* require framing awareness
(frames must not interleave), which costs about 50 ns extra and — because
the output is a single serial resource — introduces the queueing and loss
the paper warns about when bursty feeds are merged beyond line rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import Component

L1S_FANOUT_LATENCY_NS = 5
L1S_MERGE_LATENCY_NS = 50


@dataclass
class L1Stats:
    packets_in: int = 0
    copies_out: int = 0
    unconfigured_drops: int = 0
    egress_send_failures: int = 0


class Layer1Switch(Component):
    """A circuit-style cross-connect: input link → fixed set of output links.

    Configuration is per input port and static from the datapath's point
    of view (operators reconfigure between sessions, not per packet).
    The same physical device can host many one-to-many taps.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        fanout_latency_ns: int = L1S_FANOUT_LATENCY_NS,
    ):
        super().__init__(sim, name)
        if fanout_latency_ns <= 0:
            raise ValueError("fanout latency must be positive")
        self.fanout_latency_ns = int(fanout_latency_ns)
        self._fanout: dict[int, list[Link]] = {}
        self.links: list[Link] = []
        self.stats = L1Stats()
        # Precomputed trace-point name: the datapath must not build it.
        self._trace_point = f"l1s.{name}"

    def attach_link(self, link: Link) -> None:
        if link not in self.links:
            self.links.append(link)

    def set_fanout(self, ingress: Link, egress: list[Link]) -> None:
        """Configure the output set for frames arriving on ``ingress``.

        An L1S cannot inspect packets, so the egress set may not depend on
        addresses — only on the physical input. Configuring an input to
        include itself as output is rejected (it would loop the signal).
        """
        if ingress in egress:
            raise ValueError("L1S fan-out must not loop back to the ingress port")
        self.attach_link(ingress)
        for link in egress:
            self.attach_link(link)
        self._fanout[id(ingress)] = list(egress)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        self.stats.packets_in += 1
        if packet.trace is not None:
            packet.trace.record(self._trace_point, "wire", self.now)
        egress = self._fanout.get(id(ingress))
        if not egress:
            self.stats.unconfigured_drops += 1
            return
        self.sim.schedule_after(
            self.fanout_latency_ns, self._emit_all, (packet, list(egress))
        )

    def _emit_all(self, packet: Packet, egress: list[Link]) -> None:
        for link in egress:
            copy = packet.clone() if len(egress) > 1 else packet
            if copy.trace is not None:
                copy.trace.record(self._trace_point, "l1s", self.now)
            self.stats.copies_out += 1
            if not link.send(copy, self):
                self.stats.egress_send_failures += 1


class MergeUnit(Component):
    """Frame-aware N-to-1 merge onto a single output link.

    The +50 ns is the arbitration/elastic-buffer cost of keeping frames
    whole. Contention for the serial output shows up as queueing delay in
    the output link's transmit queue and, past its byte limit, as drops —
    exactly the failure mode §4.3 attributes to naively merged feeds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        merge_latency_ns: int = L1S_MERGE_LATENCY_NS,
    ):
        super().__init__(sim, name)
        if merge_latency_ns <= 0:
            raise ValueError("merge latency must be positive")
        self.merge_latency_ns = int(merge_latency_ns)
        self.output: Link | None = None
        self.inputs: list[Link] = []
        self.stats = L1Stats()
        # Precomputed instrument/trace-point names for the per-frame path.
        self._backlog_series = f"merge.{name}.backlog_bytes"
        self._contention_series = f"merge.{name}.contention_bytes"
        self._merge_stamp = f"merge.{name}"
        self._reverse_stamp = f"merge.rev.{name}"

    def set_output(self, link: Link) -> None:
        self.output = link

    def add_input(self, link: Link) -> None:
        if link not in self.inputs:
            self.inputs.append(link)

    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        if self.output is None:
            raise RuntimeError(f"merge unit {self.name} has no output configured")
        if packet.trace is not None:
            packet.trace.record(self._merge_stamp, "wire", self.now)
        if ingress is self.output:
            # Downstream direction: frames from the consumer side are
            # broadcast back to every input (the companion fan-out path
            # commercial mux devices provide); NICs filter by address.
            self.sim.schedule_after(
                L1S_FANOUT_LATENCY_NS, self._emit_reverse, (packet,)
            )
            return
        self.stats.packets_in += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            # Merge contention: bytes already queued on the serial output
            # when this frame arrives (§4.3's bursty-merge failure mode).
            # The gauge's high-watermark answers the sizing question —
            # how deep did the merge backlog ever get.
            backlog = self.output.queued_bytes_from(self)
            telemetry.metrics.histogram(self._contention_series).observe(
                backlog
            )
            telemetry.gauge_set(self._backlog_series, self.now, backlog)
        self.sim.schedule_after(self.merge_latency_ns, self._emit, (packet,))

    def _emit_reverse(self, packet: Packet) -> None:
        for link in self.inputs:
            copy = packet.clone() if len(self.inputs) > 1 else packet
            if copy.trace is not None:
                copy.trace.record(self._reverse_stamp, "merge", self.now)
            if not link.send(copy, self):
                self.stats.egress_send_failures += 1

    def _emit(self, packet: Packet) -> None:
        assert self.output is not None
        if packet.trace is not None:
            packet.trace.record(self._merge_stamp, "merge", self.now)
        self.stats.copies_out += 1
        if not self.output.send(packet, self):
            self.stats.egress_send_failures += 1
