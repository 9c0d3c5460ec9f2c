"""The firm's Internal Trading Format (ITF): normalized market data.

Normalizers convert each exchange's wire format into one internal standard
(§2) so strategies never parse exchange-specific encodings. ITF carries
best-bid/offer updates and trades in a fixed layout.

Two encodings are provided:

* **standard** — self-contained 48-byte records (symbol inline);
* **compact** — the §5 "header compression" idea: symbols interned to a
  2-byte id agreed between sender and receiver, prices and sizes narrowed,
  giving 20-byte records. The E14 ablation uses compact mode to show that
  compression creates the headroom needed to merge feeds safely on L1S
  fabrics.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Literal


class ItfDecodeError(ValueError):
    """Raised when a buffer does not parse as valid ITF."""


@dataclass(frozen=True, slots=True)
class NormalizedUpdate:
    """One normalized BBO-or-trade event for one symbol on one exchange."""

    KIND_BBO: ClassVar[str] = "Q"  # quote: best bid/offer changed
    KIND_TRADE: ClassVar[str] = "T"

    symbol: str
    exchange_id: int
    kind: str  # KIND_BBO or KIND_TRADE
    bid_price: int  # hundredths of a cent; 0 when absent
    bid_size: int
    ask_price: int
    ask_size: int
    source_time_ns: int

    def __post_init__(self) -> None:
        if self.kind not in (self.KIND_BBO, self.KIND_TRADE):
            raise ValueError(f"unknown ITF kind {self.kind!r}")
        if min(self.bid_price, self.bid_size, self.ask_price, self.ask_size) < 0:
            raise ValueError("prices and sizes must be >= 0")

    @property
    def is_quote(self) -> bool:
        return self.kind == self.KIND_BBO

    @property
    def locked_or_crossed(self) -> bool:
        """True when this update alone shows bid >= ask (degenerate quote)."""
        if not (self.bid_price and self.ask_price):
            return False
        return self.bid_price >= self.ask_price


# symbol(8) exchange(2) kind(1) bid_size(4) bid_price(8) ask_size(4)
# ask_price(8) source_time(8) = 43 bytes, padded to a round 48 to leave
# room for future flags.
_STANDARD = struct.Struct("<8sHcIQIQQ5x")
STANDARD_RECORD_BYTES = _STANDARD.size  # 48

_COMPACT = struct.Struct("<HcIHIH5x")  # sid, kind, bid_size, bid_delta, ask_size, ask_delta, pad
COMPACT_RECORD_BYTES = _COMPACT.size  # 20


class ItfCodec:
    """Encoder/decoder for ITF records.

    ``mode='standard'`` is stateless. ``mode='compact'`` interns symbols:
    both sides must build the same symbol table (in practice, distributed
    at session start — here, via :meth:`intern` calls in the same order).
    Compact mode narrows prices to 16-bit *ticks relative to a per-symbol
    reference price* set at intern time, which is the lossy-but-sufficient
    trick header-compression schemes use.
    """

    def __init__(self, mode: Literal["standard", "compact"] = "standard"):
        if mode not in ("standard", "compact"):
            raise ValueError(f"unknown ITF mode {mode!r}")
        self.mode = mode
        self._symbol_to_id: dict[str, int] = {}
        self._id_to_symbol: dict[int, str] = {}
        self._reference_price: dict[int, int] = {}
        # decode_batch's one-entry memo: the last payload decoded (held,
        # so its identity cannot be reused), the context it was decoded
        # in, and the records. Every receiver of one multicast frame
        # holds the same payload object, so only the first decodes it.
        self._memo_buf: bytes | None = None
        self._memo_context = (0, 0)
        self._memo_records: tuple[NormalizedUpdate, ...] = ()

    @property
    def record_bytes(self) -> int:
        """Wire size of one record in the current mode."""
        return STANDARD_RECORD_BYTES if self.mode == "standard" else COMPACT_RECORD_BYTES

    # -- symbol table ---------------------------------------------------------

    def knows(self, symbol: str) -> bool:
        """Whether ``symbol`` is already in the compact symbol table."""
        return symbol in self._symbol_to_id

    def intern(self, symbol: str, reference_price: int) -> int:
        """Register ``symbol`` with a reference price; returns its id."""
        if symbol in self._symbol_to_id:
            return self._symbol_to_id[symbol]
        sid = len(self._symbol_to_id)
        if sid > 0xFFFF:
            raise ValueError("compact symbol table full (65536 symbols)")
        self._symbol_to_id[symbol] = sid
        self._id_to_symbol[sid] = symbol
        self._reference_price[sid] = reference_price
        return sid

    # -- encode/decode ---------------------------------------------------------

    def encode(self, update: NormalizedUpdate) -> bytes:
        if self.mode == "standard":
            return _STANDARD.pack(
                update.symbol.encode("ascii").ljust(8),
                update.exchange_id,
                update.kind.encode(),
                update.bid_size,
                update.bid_price,
                update.ask_size,
                update.ask_price,
                update.source_time_ns,
            )
        sid = self._symbol_to_id.get(update.symbol)
        if sid is None:
            raise ItfDecodeError(
                f"symbol {update.symbol!r} not interned for compact mode"
            )
        ref = self._reference_price[sid]
        bid_delta = self._narrow(update.bid_price, ref)
        ask_delta = self._narrow(update.ask_price, ref)
        return _COMPACT.pack(
            sid,
            update.kind.encode(),
            # sizes narrowed to 32/16 bits; exchange id folded into 4 bits
            # of bid_size's top would be too clever — carry it in ask_size's
            # companion field instead:
            update.bid_size,
            bid_delta,
            update.ask_size,
            ask_delta,
        )

    @staticmethod
    def _narrow(price: int, reference: int) -> int:
        """Price as an offset from the reference, biased into uint16."""
        if price == 0:
            return 0
        delta = price - reference + 0x8000
        if not 1 <= delta <= 0xFFFF:
            raise ItfDecodeError(
                f"price {price} too far from reference {reference} for compact mode"
            )
        return delta

    @staticmethod
    def _widen(delta: int, reference: int) -> int:
        if delta == 0:
            return 0
        return delta - 0x8000 + reference

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def decode(self, buf: bytes, exchange_id: int = 0, source_time_ns: int = 0) -> NormalizedUpdate:
        """Decode one record.

        Compact records do not carry exchange id or source time (that is
        the point of compression — they ride in the session context), so
        callers supply them.
        """
        if self.mode == "standard":
            if len(buf) < STANDARD_RECORD_BYTES:
                raise ItfDecodeError("short standard ITF record")
            sym, exch, kind, bsz, bpx, asz, apx, ts = _STANDARD.unpack(
                buf[:STANDARD_RECORD_BYTES]
            )
            return NormalizedUpdate(
                sym.decode("ascii").rstrip(), exch, kind.decode(), bpx, bsz, apx, asz, ts
            )
        if len(buf) < COMPACT_RECORD_BYTES:
            raise ItfDecodeError("short compact ITF record")
        sid, kind, bsz, bdelta, asz, adelta = _COMPACT.unpack(
            buf[:COMPACT_RECORD_BYTES]
        )
        symbol = self._id_to_symbol.get(sid)
        if symbol is None:
            raise ItfDecodeError(f"unknown compact symbol id {sid}")
        ref = self._reference_price[sid]
        return NormalizedUpdate(
            symbol,
            exchange_id,
            kind.decode(),
            self._widen(bdelta, ref),
            bsz,
            self._widen(adelta, ref),
            asz,
            source_time_ns,
        )

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def encode_batch(self, updates: list[NormalizedUpdate]) -> bytes:
        return b"".join(self.encode(u) for u in updates)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def decode_batch(
        self, buf: bytes, exchange_id: int = 0, source_time_ns: int = 0
    ) -> list[NormalizedUpdate]:
        """Decode a whole payload; each caller gets its own list.

        Asked again for the *same* ``bytes`` object in the same context,
        the (frozen) records of the previous call are returned without
        decoding. The memo is keyed on identity, not content: an equal
        payload in a different object decodes afresh.
        """
        # Standard records carry their own exchange id and source time;
        # compact ones take both from the caller, so both are context.
        context = (exchange_id, source_time_ns) if self.mode == "compact" else (0, 0)
        if buf is self._memo_buf and context == self._memo_context:
            return list(self._memo_records)
        size = self.record_bytes
        if len(buf) % size:
            raise ItfDecodeError(
                f"buffer of {len(buf)} B is not a multiple of {size} B records"
            )
        records = [
            self.decode(buf[i : i + size], exchange_id, source_time_ns)
            for i in range(0, len(buf), size)
        ]
        self._memo_buf, self._memo_context = buf, context
        self._memo_records = tuple(records)
        return records
