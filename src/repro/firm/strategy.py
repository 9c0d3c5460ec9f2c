"""The strategy framework.

"Strategies subscribe to normalizers and implement the custom algorithms
that decide which orders to send. Each strategy has a TCP connection to
one or more gateways." (§2)

:class:`Strategy` is the base class: it owns a market-data NIC (ITF
subscriptions) and an orders NIC (session to a gateway), implements the
decode path, integrates with the latency recorder using the paper's
definition (order send time minus most recent input arrival), and leaves
one method — :meth:`on_update` — for the trading logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.multicast import MulticastFabric
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.protocols.boe import OrderFill
from repro.net.headers import frame_bytes_tcp
from repro.protocols.itf import ItfCodec, ItfDecodeError, NormalizedUpdate
from repro.sim.kernel import Simulator
from repro.sim.process import Component
from repro.timing.latency import LatencyRecorder


@dataclass(frozen=True, slots=True)
class InternalOrder:
    """The firm's internal order message, strategy → gateway.

    The gateway translates this into the destination exchange's BOE
    session. 32 bytes nominal on the wire (the firm controls this format,
    so it is already lean — §5's point is that the *standard transport
    headers around it* dominate).
    """

    WIRE_BYTES = 32

    strategy: str
    intent_id: int
    exchange: str
    symbol: str
    side: str
    price: int
    quantity: int
    action: str = "new"  # "new" | "cancel"
    immediate_or_cancel: bool = False
    # Timestamp of the market-data event this order reacted to, echoed
    # down the chain for end-to-end latency attribution.
    trigger_time_ns: int = 0


_ORDER_FRAME_BYTES = frame_bytes_tcp(InternalOrder.WIRE_BYTES)


@dataclass
class StrategyStats:
    updates_in: int = 0
    orders_sent: int = 0
    cancels_sent: int = 0
    fills: int = 0
    filled_quantity: int = 0
    seq_gaps: int = 0


class Strategy(Component):
    """Base class for trading strategies.

    Subclasses implement :meth:`on_update`, returning a (possibly empty)
    list of :class:`InternalOrder` to emit. ``decision_latency_ns`` is
    the §4 "function latency" — the compute time between input and
    output, charged before the order leaves the host.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        md_nic: Nic,
        order_nic: Nic,
        gateway_address: EndpointAddress,
        decision_latency_ns: int = 1_800,
        recorder: LatencyRecorder | None = None,
        itf_codec: ItfCodec | None = None,
    ):
        super().__init__(sim, name)
        self.md_nic = md_nic
        self.order_nic = order_nic
        self.gateway_address = gateway_address
        self.decision_latency_ns = int(decision_latency_ns)
        self.recorder = recorder
        self.stats = StrategyStats()
        # The firm's ITF decoder. Strategies handed one shared codec
        # decode each multicast payload once between them (the codec
        # memoises the last payload); the default is a private one.
        self.itf_codec = itf_codec if itf_codec is not None else ItfCodec()
        self._intent_ids = itertools.count(1)
        self._expected_seq: dict[MulticastGroup, int] = {}
        # Precomputed instrument name: the MD path must not build it.
        self._seq_gaps_series = f"strategy.{name}.seq_gaps"
        self._trace_point = f"strategy.{name}"
        md_nic.bind(self._on_md_packet)
        order_nic.bind(self._on_order_packet)

    # -- subscriptions ---------------------------------------------------------------

    def subscribe(
        self, group: MulticastGroup, fabric: MulticastFabric | None = None
    ) -> None:
        if fabric is not None:
            fabric.join(group, self.md_nic)
        else:
            self.md_nic.join_group(group)

    @property
    def subscriptions(self) -> frozenset[MulticastGroup]:
        return self.md_nic.joined_groups

    # -- market data path ---------------------------------------------------------------

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _on_md_packet(self, packet: Packet) -> None:
        payload = packet.message
        if not (isinstance(payload, tuple) and payload and payload[0] == "itf"):
            return
        _tag, mode, data, exchange_id = payload
        codec = self.itf_codec
        if mode != codec.mode:
            raise ItfDecodeError(
                f"{self.name}: {mode} ITF payload for a {codec.mode} codec"
            )
        sim = self.sim
        now = sim.now
        stats = self.stats
        updates = codec.decode_batch(data, exchange_id, now)
        group, seqno = packet.dst, packet.seqno
        if seqno is not None and isinstance(group, MulticastGroup):
            expected = self._expected_seq.get(group)
            if expected is not None and seqno > expected:
                stats.seq_gaps += 1
                telemetry = sim.telemetry
                if telemetry is not None:
                    telemetry.metrics.counter(self._seq_gaps_series).inc()
            self._expected_seq[group] = seqno + len(updates)
        name = self.name
        recorder = self.recorder
        for update in updates:
            stats.updates_in += 1
            if recorder is not None:
                recorder.input_event(name, now)
            orders = self.on_update(update) or []
            if orders:
                # Stamp the triggering event's origin time onto each order
                # so latency can be attributed at the exchange edge.
                orders = [
                    replace(o, trigger_time_ns=update.source_time_ns)
                    if o.trigger_time_ns == 0
                    else o
                    for o in orders
                ]
                sim.schedule_after(
                    self.decision_latency_ns, self._send_orders, (orders, packet.trace)
                )

    # -- trading logic hook ---------------------------------------------------------------

    def on_update(self, update: NormalizedUpdate) -> list[InternalOrder] | None:
        """Override: react to one normalized update."""
        raise NotImplementedError

    def on_fill(self, fill: OrderFill) -> None:
        """Override for fill handling; default just counts."""

    # -- order path ---------------------------------------------------------------

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def new_order(
        self,
        exchange: str,
        symbol: str,
        side: str,
        price: int,
        quantity: int,
        immediate_or_cancel: bool = False,
    ) -> InternalOrder:
        """Build a new-order intent addressed from this strategy."""
        return InternalOrder(
            strategy=self.name,
            intent_id=next(self._intent_ids),
            exchange=exchange,
            symbol=symbol,
            side=side,
            price=price,
            quantity=quantity,
            immediate_or_cancel=immediate_or_cancel,
        )

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def cancel_order(self, original: InternalOrder) -> InternalOrder:
        return InternalOrder(
            strategy=self.name,
            intent_id=original.intent_id,
            exchange=original.exchange,
            symbol=original.symbol,
            side=original.side,
            price=original.price,
            quantity=original.quantity,
            action="cancel",
        )

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _send_orders(self, orders: list[InternalOrder], trace=None) -> None:
        now = self.sim.now
        stats = self.stats
        recorder = self.recorder
        for order in orders:
            if recorder is not None:
                recorder.order_sent(self.name, now)
            if order.action == "cancel":
                stats.cancels_sent += 1
            else:
                stats.orders_sent += 1
            out_trace = None
            if trace is not None:
                # Rebase the trace origin onto the triggering event's
                # exchange timestamp: it is the same value echoed to the
                # exchange as the client timestamp, so the trace covers
                # exactly the interval the round-trip sample measures.
                out_trace = trace.fork()
                if order.trigger_time_ns:
                    out_trace.rebase(order.trigger_time_ns)
                out_trace.record(self._trace_point, "strategy", now)
            packet = Packet(
                src=self.order_nic.address,
                dst=self.gateway_address,
                wire_bytes=_ORDER_FRAME_BYTES,
                payload_bytes=InternalOrder.WIRE_BYTES,
                message=order,
                created_at=now,
                trace=out_trace,
            )
            self.order_nic.send(packet)

    def _on_order_packet(self, packet: Packet) -> None:
        message = packet.message
        if isinstance(message, OrderFill):
            self.stats.fills += 1
            self.stats.filled_quantity += message.quantity
            self.on_fill(message)


# -- reference strategies ---------------------------------------------------------------
#
# The paper treats strategies as opaque consumers with a compute budget;
# these three reference implementations exercise the three communication
# patterns that matter to network design: quote-reprice heavy
# (MarketMaker), multi-venue aggregation (Arbitrage, the §4.2 use case),
# and single-symbol trigger logic (Momentum).


class MarketMakerStrategy(Strategy):
    """Quotes both sides of its symbols, repricing as the BBO moves.

    Joins the market ``spread_ticks`` behind the touch; whenever the
    observed BBO moves, cancels and replaces its stale quote — generating
    the cancel/replace-dominated order flow real feeds exhibit.
    """

    def __init__(self, *args, symbols: list[str], spread_ticks: int = 500,
                 quote_size: int = 100, **kwargs):
        super().__init__(*args, **kwargs)
        self.symbols = set(symbols)
        self.spread_ticks = spread_ticks
        self.quote_size = quote_size
        self._live_quotes: dict[tuple[str, str], InternalOrder] = {}

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def on_update(self, update: NormalizedUpdate) -> list[InternalOrder] | None:
        if update.symbol not in self.symbols or not update.is_quote:
            return None
        if not (update.bid_price and update.ask_price):
            return None
        orders: list[InternalOrder] = []
        my_bid = update.bid_price - self.spread_ticks
        my_ask = update.ask_price + self.spread_ticks
        for side, price in (("B", my_bid), ("S", my_ask)):
            key = (update.symbol, side)
            live = self._live_quotes.get(key)
            if live is not None and live.price == price:
                continue  # quote still correct
            if live is not None:
                orders.append(self.cancel_order(live))
            fresh = self.new_order(
                exchange=f"exch{update.exchange_id}",
                symbol=update.symbol,
                side=side,
                price=price,
                quantity=self.quote_size,
            )
            self._live_quotes[key] = fresh
            orders.append(fresh)
        return orders


class ArbitrageStrategy(Strategy):
    """Fires when one venue's bid crosses another venue's ask.

    Tracks per-(symbol, exchange) BBOs from the normalized feed; when
    best-bid(symbol) > best-ask(symbol) across venues, sends an IOC buy
    at the cheap venue and an IOC sell at the rich one. This is the
    aggregation workload that §4.2 argues keeps large-scale trading out
    of per-tenant-isolated clouds.
    """

    def __init__(self, *args, min_edge_ticks: int = 100, take_size: int = 100, **kwargs):
        super().__init__(*args, **kwargs)
        self.min_edge_ticks = min_edge_ticks
        self.take_size = take_size
        # (symbol, exchange_id) -> (bid_px, ask_px)
        self._bbos: dict[tuple[str, int], tuple[int, int]] = {}
        self.opportunities = 0

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def on_update(self, update: NormalizedUpdate) -> list[InternalOrder] | None:
        if not update.is_quote:
            return None
        self._bbos[(update.symbol, update.exchange_id)] = (
            update.bid_price, update.ask_price,
        )
        best_bid, bid_venue = 0, None
        best_ask, ask_venue = 0, None
        for (symbol, venue), (bid, ask) in self._bbos.items():
            if symbol != update.symbol:
                continue
            if bid and bid > best_bid:
                best_bid, bid_venue = bid, venue
            if ask and (best_ask == 0 or ask < best_ask):
                best_ask, ask_venue = ask, venue
        if (
            bid_venue is None or ask_venue is None or bid_venue == ask_venue
            or best_bid - best_ask < self.min_edge_ticks
        ):
            return None
        self.opportunities += 1
        return [
            self.new_order(
                f"exch{ask_venue}", update.symbol, "B", best_ask,
                self.take_size, immediate_or_cancel=True,
            ),
            self.new_order(
                f"exch{bid_venue}", update.symbol, "S", best_bid,
                self.take_size, immediate_or_cancel=True,
            ),
        ]


class MomentumStrategy(Strategy):
    """Buys after ``trigger_ticks`` consecutive bid upticks on one symbol.

    The minimal latency-sensitive shape: one input stream, one trigger,
    one order — the kind of strategy §2 says competes in nanoseconds.
    """

    def __init__(self, *args, symbol: str, trigger_ticks: int = 3,
                 take_size: int = 100, **kwargs):
        super().__init__(*args, **kwargs)
        self.symbol = symbol
        self.trigger_ticks = trigger_ticks
        self.take_size = take_size
        self._last_bid = 0
        self._streak = 0

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def on_update(self, update: NormalizedUpdate) -> list[InternalOrder] | None:
        if update.symbol != self.symbol or not update.is_quote:
            return None
        if not update.bid_price:
            return None
        if update.bid_price > self._last_bid and self._last_bid:
            self._streak += 1
        elif update.bid_price < self._last_bid:
            self._streak = 0
        self._last_bid = update.bid_price
        if self._streak >= self.trigger_ticks and update.ask_price:
            self._streak = 0
            return [
                self.new_order(
                    f"exch{update.exchange_id}", self.symbol, "B",
                    update.ask_price, self.take_size, immediate_or_cancel=True,
                )
            ]
        return None
