"""The multi-symbol matching engine.

Wraps one :class:`~repro.exchange.book.OrderBook` per listed symbol,
allocates exchange order ids, enforces symbol/halt validation, and — for
every state change — produces the PITCH messages the market-data feed
must publish. This is the point where the two cross-connect flows of §2
meet: order entry mutates the book, and the mutations *are* the feed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.exchange.book import Fill, OrderBook
from repro.protocols.pitch import (
    AddOrder,
    DeleteOrder,
    ModifyOrder,
    OrderExecuted,
    PitchMessage,
    ReduceSize,
    TradingStatus,
)


@dataclass(slots=True)
class BookUpdate:
    """Everything one request did: feed messages + order-entry outcome."""

    symbol: str
    accepted: bool
    reason: str | None = None  # reject reason code when not accepted
    exchange_order_id: int | None = None
    resting_quantity: int = 0
    fills: list[Fill] = field(default_factory=list)
    pitch_messages: list[PitchMessage] = field(default_factory=list)

    @property
    def executed_quantity(self) -> int:
        return sum(f.quantity for f in self.fills)


@dataclass
class EngineStats:
    orders_accepted: int = 0
    self_trade_cancels: int = 0
    orders_rejected: int = 0
    cancels: int = 0
    cancel_rejects: int = 0
    modifies: int = 0
    trades: int = 0
    volume: int = 0


class MatchingEngine:
    """Order router + matcher + feed-event generator for one exchange."""

    REJECT_UNKNOWN_SYMBOL = "S"
    REJECT_HALTED = "H"
    REJECT_BAD_ORDER = "R"
    CANCEL_UNKNOWN = "U"
    CANCEL_TOO_LATE = "L"

    def __init__(self, exchange_name: str, symbols: list[str] | None = None):
        self.exchange_name = exchange_name
        self._books: dict[str, OrderBook] = {}
        self._halted: set[str] = set()
        # Maps exchange order id -> (symbol, owner) for cancel routing.
        self._order_index: dict[int, tuple[str, str]] = {}
        self._next_order_id = itertools.count(1)
        self._next_execution_id = itertools.count(1)
        self.stats = EngineStats()
        for symbol in symbols or []:
            self.list_symbol(symbol)

    # -- listing / status -------------------------------------------------------

    def list_symbol(self, symbol: str) -> None:
        if symbol not in self._books:
            self._books[symbol] = OrderBook(symbol)

    @property
    def symbols(self) -> list[str]:
        return list(self._books)

    def book(self, symbol: str) -> OrderBook:
        return self._books[symbol]

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def set_halted(self, symbol: str, halted: bool, now_ns: int = 0) -> BookUpdate:
        """Halt or resume a symbol; publishes a TradingStatus message."""
        if symbol not in self._books:
            raise KeyError(f"unknown symbol {symbol}")
        if halted:
            self._halted.add(symbol)
        else:
            self._halted.discard(symbol)
        status = TradingStatus(now_ns, symbol, "H" if halted else "T")
        return BookUpdate(symbol=symbol, accepted=True, pitch_messages=[status])

    def bbo(self, symbol: str) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
        """((bid px, size) | None, (ask px, size) | None) for ``symbol``."""
        book = self._books[symbol]
        return book.best_bid(), book.best_ask()

    # -- order entry ---------------------------------------------------------------

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def submit(
        self,
        owner: str,
        symbol: str,
        side: str,
        price: int,
        quantity: int,
        now_ns: int = 0,
        immediate_or_cancel: bool = False,
        prevent_self_trade: bool = False,
    ) -> BookUpdate:
        """Enter a new order; returns fills, resting state, feed messages."""
        book = self._books.get(symbol)
        if book is None:
            self.stats.orders_rejected += 1
            return BookUpdate(symbol, False, self.REJECT_UNKNOWN_SYMBOL)
        if symbol in self._halted:
            self.stats.orders_rejected += 1
            return BookUpdate(symbol, False, self.REJECT_HALTED)
        if price <= 0 or quantity <= 0 or side not in ("B", "S"):
            self.stats.orders_rejected += 1
            return BookUpdate(symbol, False, self.REJECT_BAD_ORDER)

        order_id = next(self._next_order_id)
        result = book.add_order(
            order_id, side, price, quantity, owner, now_ns,
            immediate_or_cancel, prevent_self_trade,
        )
        update = BookUpdate(
            symbol,
            True,
            exchange_order_id=order_id,
            resting_quantity=result.resting_quantity,
            fills=result.fills,
        )
        for cancelled_id in result.self_trade_cancels:
            self._order_index.pop(cancelled_id, None)
            self.stats.self_trade_cancels += 1
            update.pitch_messages.append(DeleteOrder(now_ns, cancelled_id))
        for fill in result.fills:
            execution_id = next(self._next_execution_id)
            update.pitch_messages.append(
                OrderExecuted(now_ns, fill.maker_order_id, fill.quantity, execution_id)
            )
            self.stats.trades += 1
            self.stats.volume += fill.quantity
            if fill.maker_remaining == 0:
                self._order_index.pop(fill.maker_order_id, None)
        if result.resting_quantity > 0:
            self._order_index[order_id] = (symbol, owner)
            update.pitch_messages.append(
                AddOrder(now_ns, order_id, side, result.resting_quantity, symbol, price)
            )
        self.stats.orders_accepted += 1
        return update

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def cancel(self, owner: str, exchange_order_id: int, now_ns: int = 0) -> BookUpdate:
        """Cancel an open order; 'too late' when it already filled (the race)."""
        entry = self._order_index.get(exchange_order_id)
        if entry is None:
            self.stats.cancel_rejects += 1
            return BookUpdate("", False, self.CANCEL_TOO_LATE)
        symbol, order_owner = entry
        if order_owner != owner:
            self.stats.cancel_rejects += 1
            return BookUpdate(symbol, False, self.CANCEL_UNKNOWN)
        removed = self._books[symbol].cancel(exchange_order_id)
        if removed is None:
            self.stats.cancel_rejects += 1
            return BookUpdate(symbol, False, self.CANCEL_TOO_LATE)
        self._order_index.pop(exchange_order_id, None)
        self.stats.cancels += 1
        return BookUpdate(
            symbol,
            True,
            exchange_order_id=exchange_order_id,
            resting_quantity=0,
            pitch_messages=[DeleteOrder(now_ns, exchange_order_id)],
        )

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def modify(
        self,
        owner: str,
        exchange_order_id: int,
        new_quantity: int,
        new_price: int,
        now_ns: int = 0,
    ) -> BookUpdate:
        """Modify an open order. In-place reductions keep priority and emit
        ReduceSize; repricings cancel + re-add and may trade immediately."""
        entry = self._order_index.get(exchange_order_id)
        if entry is None:
            self.stats.cancel_rejects += 1
            return BookUpdate("", False, self.CANCEL_TOO_LATE)
        symbol, order_owner = entry
        if order_owner != owner:
            self.stats.cancel_rejects += 1
            return BookUpdate(symbol, False, self.CANCEL_UNKNOWN)
        book = self._books[symbol]
        existing = book.order(exchange_order_id)
        if existing is None:
            self.stats.cancel_rejects += 1
            return BookUpdate(symbol, False, self.CANCEL_TOO_LATE)

        self.stats.modifies += 1
        if new_price == existing.price and new_quantity < existing.quantity:
            reduction = existing.quantity - new_quantity
            book.reduce(exchange_order_id, reduction)
            return BookUpdate(
                symbol,
                True,
                exchange_order_id=exchange_order_id,
                resting_quantity=new_quantity,
                pitch_messages=[
                    ReduceSize(now_ns, exchange_order_id, reduction)
                ],
            )

        result = book.modify(exchange_order_id, new_quantity, new_price, now_ns)
        assert result is not None  # existence checked above
        update = BookUpdate(
            symbol,
            True,
            exchange_order_id=exchange_order_id,
            resting_quantity=result.resting_quantity,
            fills=result.fills,
        )
        if result.resting_quantity == 0:
            # The repriced order left the displayed book (it either fully
            # traded on re-entry or was effectively cancelled): consumers
            # must remove it regardless of any executions below.
            self._order_index.pop(exchange_order_id, None)
            update.pitch_messages.append(DeleteOrder(now_ns, exchange_order_id))
        for fill in result.fills:
            execution_id = next(self._next_execution_id)
            update.pitch_messages.append(
                OrderExecuted(
                    now_ns, fill.maker_order_id, fill.quantity, execution_id
                )
            )
            self.stats.trades += 1
            self.stats.volume += fill.quantity
            if fill.maker_remaining == 0:
                self._order_index.pop(fill.maker_order_id, None)
        if result.resting_quantity > 0:
            update.pitch_messages.append(
                ModifyOrder(now_ns, exchange_order_id, result.resting_quantity, new_price)
            )
        return update
