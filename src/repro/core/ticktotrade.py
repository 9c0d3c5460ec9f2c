"""Tick-to-trade at the physical limit (§1/§2's fastest firms).

"Some firms build trading systems that operate at the physical limits
for communication — e.g., deploying algorithms on specialized hardware
directly connected to exchanges. These systems are limited mostly by the
speed of light, and can execute trades in 10s to 100s of nanoseconds."

``design="ticktotrade"`` is that system: no normalizer, no gateway — the
FPGA-class :class:`HardwareStrategy` below parses the raw PITCH feed
itself and speaks BOE directly to the exchange, over two L1S hops, with
hardware-path NIC latencies and zero feed coalescing (wired by
:mod:`repro.core.fabrics`). The measured event-to-order-arrival time
lands in the hundreds of nanoseconds, serialization-dominated.
"""

from __future__ import annotations

from repro.firm.feedhandler import FeedHandler
from repro.net.packet import Packet
from repro.protocols.boe import BoeSession, NewOrderRequest
from repro.net.headers import frame_bytes_tcp
from repro.protocols.pitch import AddOrder
from repro.sim.process import Component

FPGA_NIC_LATENCY_NS = 20  # MAC-to-pipeline, hardware path
FPGA_COMPUTE_NS = 50  # parse + decide + build, all in gates


class HardwareStrategy(Component):
    """A tick-to-trade pipeline: raw PITCH in, BOE out, no software.

    Fires an IOC buy whenever the watched symbol's best bid improves —
    the minimal momentum trigger, evaluated in ``FPGA_COMPUTE_NS``.
    """

    def __init__(self, sim, name, md_nic, order_nic, exchange_address, symbol):
        super().__init__(sim, name)
        self.order_nic = order_nic
        self.exchange_address = exchange_address
        self.symbol = symbol
        self.session = BoeSession()
        self._last_bid = 0
        self._ids = 0
        self.orders_sent = 0
        self.feed = FeedHandler(sim, f"{name}.fh", md_nic, self._on_message)

    def subscribe(self, group, fabric=None) -> None:
        """Join a raw feed ``group`` (the :class:`Strategy` role's verb)."""
        self.feed.subscribe(group, fabric)

    def _on_message(self, group, message):
        if not isinstance(message, AddOrder) or message.symbol != self.symbol:
            return
        if message.side == "B" and message.price > self._last_bid:
            previous, self._last_bid = self._last_bid, message.price
            if previous:
                self.sim.schedule_after(FPGA_COMPUTE_NS, self._fire, (message,))

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _fire(self, trigger: AddOrder) -> None:
        self._ids += 1
        self.orders_sent += 1
        data = self.session.encode_new_order(
            NewOrderRequest(
                self._ids, "B", 100, self.symbol, trigger.price,
                time_in_force="I",
                client_timestamp_ns=trigger.time_offset_ns,
            )
        )
        self.order_nic.send(
            Packet(
                src=self.order_nic.address, dst=self.exchange_address,
                wire_bytes=frame_bytes_tcp(len(data)), payload_bytes=len(data),
                message=data, created_at=self.now,
            )
        )
