"""Tests for the internal trading format (ITF) codec."""

import pytest
from hypothesis import given, strategies as st

from repro.protocols.itf import (
    COMPACT_RECORD_BYTES,
    ItfCodec,
    ItfDecodeError,
    NormalizedUpdate,
    STANDARD_RECORD_BYTES,
)

prices = st.integers(min_value=1, max_value=2**40)
sizes = st.integers(min_value=0, max_value=2**31 - 1)
symbols = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=8)


def _update(symbol="AAPL", bid=9_900, ask=10_100, kind="Q"):
    return NormalizedUpdate(symbol, 1, kind, bid, 100, ask, 200, 123456)


def test_record_sizes():
    assert STANDARD_RECORD_BYTES == 48
    assert COMPACT_RECORD_BYTES == 20
    assert ItfCodec("standard").record_bytes == 48
    assert ItfCodec("compact").record_bytes == 20


def test_compact_is_much_smaller():
    """§5 header compression: the compact record is <half the standard."""
    assert COMPACT_RECORD_BYTES * 2 <= STANDARD_RECORD_BYTES


@given(sym=symbols, bid=prices, ask=prices, bsz=sizes, asz=sizes,
       exch=st.integers(0, 65535), ts=st.integers(0, 2**62))
def test_standard_round_trip(sym, bid, ask, bsz, asz, exch, ts):
    codec = ItfCodec("standard")
    update = NormalizedUpdate(sym, exch, "Q", bid, bsz, ask, asz, ts)
    assert codec.decode(codec.encode(update)) == update


def test_compact_round_trip_near_reference():
    codec = ItfCodec("compact")
    codec.intern("AAPL", 10_000)
    update = _update(bid=9_900, ask=10_100)
    decoded = codec.decode(codec.encode(update), exchange_id=1, source_time_ns=123456)
    assert decoded == update


def test_compact_preserves_zero_prices():
    codec = ItfCodec("compact")
    codec.intern("AAPL", 10_000)
    update = NormalizedUpdate("AAPL", 1, "Q", 0, 0, 10_100, 5, 7)
    decoded = codec.decode(codec.encode(update), 1, 7)
    assert decoded.bid_price == 0
    assert decoded.ask_price == 10_100


def test_compact_requires_interned_symbol():
    codec = ItfCodec("compact")
    with pytest.raises(ItfDecodeError):
        codec.encode(_update())


def test_compact_rejects_price_too_far_from_reference():
    codec = ItfCodec("compact")
    codec.intern("AAPL", 10_000)
    with pytest.raises(ItfDecodeError):
        codec.encode(_update(bid=10_000 + 40_000))


def test_intern_is_idempotent_and_bounded():
    codec = ItfCodec("compact")
    first = codec.intern("AAPL", 10_000)
    assert codec.intern("AAPL", 99) == first  # reference not clobbered
    assert codec.knows("AAPL")
    assert not codec.knows("MSFT")


def test_batch_round_trip():
    codec = ItfCodec("standard")
    updates = [_update(), _update(symbol="MSFT", kind="T", ask=0)]
    buf = codec.encode_batch(updates)
    assert len(buf) == 2 * STANDARD_RECORD_BYTES
    assert codec.decode_batch(buf) == updates


def test_batch_rejects_ragged_buffer():
    codec = ItfCodec("standard")
    with pytest.raises(ItfDecodeError):
        codec.decode_batch(b"\x00" * (STANDARD_RECORD_BYTES + 1))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ItfCodec("tiny")


def test_update_validation():
    with pytest.raises(ValueError):
        NormalizedUpdate("A", 1, "Z", 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        NormalizedUpdate("A", 1, "Q", -1, 0, 0, 0, 0)


def test_locked_or_crossed_property():
    assert _update(bid=10_000, ask=10_000).locked_or_crossed
    assert _update(bid=10_100, ask=10_000).locked_or_crossed
    assert not _update(bid=9_000, ask=10_000).locked_or_crossed
    assert not _update(bid=0, ask=10_000).locked_or_crossed


# -- decode_batch's one-entry memo ------------------------------------------------


def test_same_payload_decodes_to_equal_records_in_distinct_lists():
    codec = ItfCodec("standard")
    buf = codec.encode_batch([_update(), _update(symbol="MSFT")])
    first = codec.decode_batch(buf)
    second = codec.decode_batch(buf)
    assert first == second
    assert first is not second
    first.clear()  # one receiver's list is its own
    assert len(codec.decode_batch(buf)) == 2


def test_memo_is_keyed_on_identity_not_content():
    codec = ItfCodec("standard")
    buf = codec.encode_batch([_update()])
    twin = bytes(bytearray(buf))  # equal content, different object
    assert twin == buf and twin is not buf
    decodes = []
    original = codec.decode
    codec.decode = lambda *args: decodes.append(1) or original(*args)
    assert codec.decode_batch(buf) == codec.decode_batch(buf) == codec.decode_batch(twin)
    assert len(decodes) == 2  # buf once, twin once


def test_compact_memo_respects_caller_context_and_symbol_table():
    sender = ItfCodec("compact")
    sender.intern("AAPL", 10_000)
    buf = sender.encode_batch([_update()])
    receiver = ItfCodec("compact")
    receiver.intern("AAPL", 10_000)
    (at_1,) = receiver.decode_batch(buf, exchange_id=1, source_time_ns=5)
    (at_2,) = receiver.decode_batch(buf, exchange_id=2, source_time_ns=9)
    assert (at_1.exchange_id, at_1.source_time_ns) == (1, 5)
    assert (at_2.exchange_id, at_2.source_time_ns) == (2, 9)
    # A codec with another symbol table never sees this one's memo.
    other = ItfCodec("compact")
    other.intern("MSFT", 10_000)
    assert other.decode_batch(buf, 1, 5)[0].symbol == "MSFT"
    with pytest.raises(ItfDecodeError):
        ItfCodec("compact").decode_batch(buf, 1, 5)


def test_ragged_buffer_raises_on_every_call():
    codec = ItfCodec("standard")
    ragged = b"\x00" * (STANDARD_RECORD_BYTES + 1)
    for _ in range(2):
        with pytest.raises(ItfDecodeError):
            codec.decode_batch(ragged)
