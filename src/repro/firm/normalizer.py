"""Market-data normalizers.

"The normalizer's purpose is to convert from each exchange's format to an
internal standard format, and also to re-partition the data, again
according to some standard. To scale to a large number of recipients,
normalizers send the data via IP multicast." (§2)

A :class:`Normalizer` therefore does three jobs per PITCH message:

1. **book reconstruction** — PITCH deletes/executions carry only order
   ids, so the normalizer keeps an order-id → (symbol, side, price, qty)
   map and per-symbol price-level aggregates to know *which* symbol's BBO
   an event affects (this state is exactly the "common processing step"
   §2 says firms avoid redoing on every strategy server);
2. **normalization** — BBO changes and trades become fixed-layout
   :class:`~repro.protocols.itf.NormalizedUpdate` records;
3. **re-partitioning** — updates are published to the firm's own
   multicast groups under the firm's partition scheme, which need not
   match any exchange's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.firm.feedhandler import FeedHandler
from repro.net.addressing import MulticastGroup
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.exchange.publisher import PartitionScheme
from repro.net.headers import frame_bytes_udp
from repro.protocols.itf import ItfCodec, NormalizedUpdate
from repro.protocols.pitch import (
    AddOrder,
    DeleteOrder,
    ModifyOrder,
    OrderExecuted,
    PitchMessage,
    ReduceSize,
    Trade,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Component


@dataclass
class NormalizerStats:
    messages_in: int = 0
    updates_out: int = 0
    frames_out: int = 0
    unknown_order_events: int = 0
    queue_peak: int = 0  # serial-server mode: deepest backlog seen


@dataclass(slots=True)
class _TrackedOrder:
    symbol: str
    side: str
    price: int
    quantity: int


class Normalizer(Component):
    """One normalizer process: exchange feed in, firm ITF feed out."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        exchange_id: int,
        feed_nic: Nic,
        publish_nic: Nic,
        out_feed: str,
        out_scheme: PartitionScheme,
        function_latency_ns: int = 1_500,
        itf_mode: str = "standard",
        service_time_ns: int = 0,
        unicast_recipients: list | None = None,
    ):
        super().__init__(sim, name)
        self.exchange_id = exchange_id
        self.publish_nic = publish_nic
        self.out_feed = out_feed
        self.out_scheme = out_scheme
        self._out_groups = [
            MulticastGroup(out_feed, p) for p in range(out_scheme.n_partitions)
        ]
        self.function_latency_ns = int(function_latency_ns)
        # When > 0, the normalizer is a *serial* server: each message
        # occupies the core for service_time_ns, and arrivals beyond the
        # implied capacity queue — the §3 per-event-budget constraint
        # ("to keep up ... process each event in around 650 nanoseconds")
        # made explicit. 0 keeps the infinite-capacity model.
        self.service_time_ns = int(service_time_ns)
        # On fabrics without tenant multicast (the §4.2 cloud), updates
        # fan out as unicast copies to this explicit recipient list.
        self.unicast_recipients = list(unicast_recipients or [])
        self.codec = ItfCodec(itf_mode)  # type: ignore[arg-type]
        self.stats = NormalizerStats()
        self.feed = FeedHandler(sim, f"{name}.fh", feed_nic, self._on_message)
        self._orders: dict[int, _TrackedOrder] = {}
        # symbol -> side -> price -> aggregate size
        self._levels: dict[str, dict[str, dict[int, int]]] = {}
        self._bbo: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {}
        self._out_seq: dict[int, int] = {}
        self._work_queue: list[tuple[PitchMessage, object]] = []
        self._busy = False

    # -- book state ---------------------------------------------------------------

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _levels_for(self, symbol: str) -> dict[str, dict[int, int]]:
        levels = self._levels.get(symbol)
        if levels is None:
            levels = {"B": {}, "S": {}}
            self._levels[symbol] = levels
        return levels

    def _bbo_of(self, symbol: str) -> tuple[tuple[int, int], tuple[int, int]]:
        levels = self._levels_for(symbol)
        bids, asks = levels["B"], levels["S"]
        bid = (max(bids), bids[max(bids)]) if bids else (0, 0)
        ask = (min(asks), asks[min(asks)]) if asks else (0, 0)
        return bid, ask

    def _event_time(self, message: PitchMessage) -> int:
        """Exchange event time, unwrapped from the 32-bit PITCH field.

        PITCH carries a 32-bit ns offset, which wraps every ~4.3 s; the
        normalizer resolves it against its own clock assuming the event
        is recent (true in-colo, where one-way delays are microseconds).
        """
        t32 = getattr(message, "time_offset_ns", None)
        if t32 is None:
            return self.now
        return self.now - ((self.now - t32) & 0xFFFFFFFF)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _apply(self, message: PitchMessage) -> list[NormalizedUpdate]:
        """Apply one PITCH message; return resulting normalized updates."""
        affected: str | None = None
        trade: NormalizedUpdate | None = None
        event_time = self._event_time(message)

        if isinstance(message, AddOrder):
            self._orders[message.order_id] = _TrackedOrder(
                message.symbol, message.side, message.price, message.quantity
            )
            levels = self._levels_for(message.symbol)[message.side]
            levels[message.price] = levels.get(message.price, 0) + message.quantity
            affected = message.symbol
        elif isinstance(message, (DeleteOrder, OrderExecuted, ReduceSize, ModifyOrder)):
            order = self._orders.get(message.order_id)
            if order is None:
                self.stats.unknown_order_events += 1
                return []
            affected = order.symbol
            levels = self._levels_for(order.symbol)[order.side]
            if isinstance(message, DeleteOrder):
                removed = order.quantity
            elif isinstance(message, OrderExecuted):
                removed = min(order.quantity, message.executed_quantity)
                trade = NormalizedUpdate(
                    order.symbol, self.exchange_id, NormalizedUpdate.KIND_TRADE,
                    order.price, removed, 0, 0, event_time,
                )
            elif isinstance(message, ReduceSize):
                removed = min(order.quantity, message.canceled_quantity)
            else:  # ModifyOrder: remove old, insert new
                removed = order.quantity
            remaining = levels.get(order.price, 0) - removed
            if remaining > 0:
                levels[order.price] = remaining
            else:
                levels.pop(order.price, None)
            order.quantity -= removed
            if isinstance(message, ModifyOrder):
                order.price = message.price
                order.quantity = message.quantity
                levels[order.price] = levels.get(order.price, 0) + order.quantity
            elif order.quantity <= 0:
                self._orders.pop(message.order_id, None)
        elif isinstance(message, Trade):
            trade = NormalizedUpdate(
                message.symbol, self.exchange_id, NormalizedUpdate.KIND_TRADE,
                message.price, message.quantity, 0, 0, event_time,
            )
            affected = None  # hidden liquidity: no displayed BBO change
        else:
            return []  # Time / TradingStatus carry no book change

        updates: list[NormalizedUpdate] = []
        if affected is not None:
            bid, ask = self._bbo_of(affected)
            if self._bbo.get(affected) != (bid, ask):
                self._bbo[affected] = (bid, ask)
                updates.append(
                    NormalizedUpdate(
                        affected, self.exchange_id, NormalizedUpdate.KIND_BBO,
                        bid[0], bid[1], ask[0], ask[1], event_time,
                    )
                )
        if trade is not None:
            updates.append(trade)
        return updates

    # -- pipeline ---------------------------------------------------------------

    def _on_message(self, group: MulticastGroup, message: PitchMessage) -> None:
        self.stats.messages_in += 1
        trace = self.feed.current_trace
        if self.service_time_ns <= 0:
            self._process(message, trace)
            return
        # Serial-server mode: one message in service at a time.
        self._work_queue.append((message, trace))
        self.stats.queue_peak = max(self.stats.queue_peak, len(self._work_queue))
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.metrics.histogram(f"normalizer.{self.name}.queue_depth").observe(
                len(self._work_queue)
            )
        if not self._busy:
            self._busy = True
            self.sim.schedule_after(self.service_time_ns, self._service)

    def _service(self) -> None:
        message, trace = self._work_queue.pop(0)
        self._process(message, trace)
        if self._work_queue:
            self.sim.schedule_after(self.service_time_ns, self._service)
        else:
            self._busy = False

    def _process(self, message: PitchMessage, trace=None) -> None:
        updates = self._apply(message)
        if updates:
            self.sim.schedule_after(
                self.function_latency_ns, self._publish, (updates, trace)
            )

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _publish(self, updates: list[NormalizedUpdate], trace=None) -> None:
        by_partition: dict[int, list[NormalizedUpdate]] = {}
        for update in updates:
            partition = self.out_scheme.partition_of(update.symbol)
            by_partition.setdefault(partition, []).append(update)
        for partition, batch in by_partition.items():
            if self.codec.mode == "compact":
                for update in batch:
                    if not self.codec.knows(update.symbol):
                        self.codec.intern(update.symbol, update.bid_price or 10_000)
            payload = self.codec.encode_batch(batch)
            seq = self._out_seq.get(partition, 1)
            self._out_seq[partition] = seq + len(batch)
            message = ("itf", self.codec.mode, payload, self.exchange_id)
            if self.unicast_recipients:
                # No tenant multicast: one full copy per subscriber.
                for recipient in self.unicast_recipients:
                    out_trace = None
                    if trace is not None:
                        out_trace = trace.fork()
                        out_trace.record(
                            f"normalizer.{self.name}", "normalizer", self.now
                        )
                    self.publish_nic.send(
                        Packet(
                            src=self.publish_nic.address,
                            dst=recipient,
                            wire_bytes=frame_bytes_udp(len(payload)),
                            payload_bytes=len(payload),
                            message=message,
                            seqno=seq,
                            created_at=self.now,
                            trace=out_trace,
                        )
                    )
                    self.stats.frames_out += 1
            else:
                out_trace = None
                if trace is not None:
                    out_trace = trace.fork()
                    out_trace.record(f"normalizer.{self.name}", "normalizer", self.now)
                self.publish_nic.send(
                    Packet(
                        src=self.publish_nic.address,
                        dst=self._out_groups[partition],
                        wire_bytes=frame_bytes_udp(len(payload)),
                        payload_bytes=len(payload),
                        message=message,
                        seqno=seq,
                        created_at=self.now,
                        trace=out_trace,
                    )
                )
                self.stats.frames_out += 1
            self.stats.updates_out += len(batch)

    def bbo(self, symbol: str) -> tuple[tuple[int, int], tuple[int, int]] | None:
        """The normalizer's current view of ``symbol``'s BBO."""
        return self._bbo.get(symbol)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def depth_snapshot(self, symbol: str, depth: int = 5):
        """Top-``depth`` price levels per side, best first.

        Returns ``(bids, asks)`` as lists of (price, aggregate size).
        This is the recovery payload late joiners and gap-declaring
        receivers request instead of replaying the whole day.
        """
        levels = self._levels.get(symbol)
        if levels is None:
            return [], []
        bids = sorted(levels["B"].items(), key=lambda kv: -kv[0])[:depth]
        asks = sorted(levels["S"].items(), key=lambda kv: kv[0])[:depth]
        return bids, asks

    @property
    def known_symbols(self) -> list[str]:
        return list(self._levels)
