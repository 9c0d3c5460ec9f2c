"""Tests for the strategy framework and the order gateway, wired together."""

import pytest

from repro.core import build_system
from repro.firm import (
    ArbitrageStrategy,
    InternalOrder,
    MarketMakerStrategy,
    MomentumStrategy,
)
from repro.protocols.itf import NormalizedUpdate
from repro.sim.kernel import MILLISECOND, Simulator


def _update(symbol="AA", bid=9_900, ask=10_100, exchange_id=1, kind="Q"):
    return NormalizedUpdate(symbol, exchange_id, kind, bid, 100, ask, 100, 50)


class _NullNic:
    """Just enough NIC surface for unit-testing strategy logic."""

    def __init__(self):
        self.joined = set()
        self.handler = None
        from repro.net.addressing import EndpointAddress

        self.address = EndpointAddress("test", "nic")

    def bind(self, handler):
        self.handler = handler

    def join_group(self, group):
        self.joined.add(group)

    def leave_group(self, group):
        self.joined.discard(group)

    @property
    def joined_groups(self):
        return frozenset(self.joined)

    def send(self, packet):
        return True


def _bare_strategy(cls, **kwargs):
    from repro.net.addressing import EndpointAddress

    sim = Simulator()
    strategy = cls(
        sim, "s", _NullNic(), _NullNic(), EndpointAddress("gw", "strat"), **kwargs
    )
    return strategy


def test_market_maker_quotes_both_sides():
    mm = _bare_strategy(MarketMakerStrategy, symbols=["AA"], spread_ticks=500)
    orders = mm.on_update(_update())
    assert len(orders) == 2
    sides = {o.side: o for o in orders}
    assert sides["B"].price == 9_900 - 500
    assert sides["S"].price == 10_100 + 500


def test_market_maker_reprices_with_cancel_replace():
    mm = _bare_strategy(MarketMakerStrategy, symbols=["AA"], spread_ticks=500)
    mm.on_update(_update())
    orders = mm.on_update(_update(bid=10_000, ask=10_200))
    # Two cancels + two replacements.
    assert sum(1 for o in orders if o.action == "cancel") == 2
    assert sum(1 for o in orders if o.action == "new") == 2


def test_market_maker_quiet_when_quote_unchanged():
    mm = _bare_strategy(MarketMakerStrategy, symbols=["AA"])
    mm.on_update(_update())
    assert mm.on_update(_update()) == []


def test_market_maker_ignores_other_symbols_and_trades():
    mm = _bare_strategy(MarketMakerStrategy, symbols=["AA"])
    assert mm.on_update(_update(symbol="ZZ")) is None
    assert mm.on_update(_update(kind="T", ask=0)) is None


def test_arbitrage_fires_on_crossed_venues():
    arb = _bare_strategy(ArbitrageStrategy, min_edge_ticks=100)
    arb.on_update(_update(exchange_id=1, bid=9_900, ask=10_000))
    orders = arb.on_update(_update(exchange_id=2, bid=10_200, ask=10_300))
    # Venue 2 bids 10_200 > venue 1 asks 10_000: buy at 1, sell at 2.
    assert orders is not None
    buy = next(o for o in orders if o.side == "B")
    sell = next(o for o in orders if o.side == "S")
    assert buy.exchange == "exch1" and buy.price == 10_000
    assert sell.exchange == "exch2" and sell.price == 10_200
    assert buy.immediate_or_cancel and sell.immediate_or_cancel
    assert arb.opportunities == 1


def test_arbitrage_quiet_when_not_crossed():
    arb = _bare_strategy(ArbitrageStrategy)
    arb.on_update(_update(exchange_id=1))
    assert arb.on_update(_update(exchange_id=2, bid=9_950, ask=10_050)) is None


def test_momentum_fires_after_streak():
    momentum = _bare_strategy(MomentumStrategy, symbol="AA", trigger_ticks=2)
    assert momentum.on_update(_update(bid=9_900)) is None  # baseline
    assert momentum.on_update(_update(bid=9_950)) is None  # streak 1
    orders = momentum.on_update(_update(bid=10_000))  # streak 2 -> fire
    assert orders and orders[0].side == "B"
    assert orders[0].price == 10_100  # lifts the offer
    # Streak resets after firing.
    assert momentum.on_update(_update(bid=10_050)) is None


def test_momentum_downtick_resets_streak():
    momentum = _bare_strategy(MomentumStrategy, symbol="AA", trigger_ticks=2)
    momentum.on_update(_update(bid=9_900))
    momentum.on_update(_update(bid=9_950))
    momentum.on_update(_update(bid=9_800))  # downtick
    assert momentum.on_update(_update(bid=9_850)) is None  # streak only 1


def test_gateway_translates_and_routes_fills_end_to_end():
    """Full-system check via the Design 1 testbed."""
    system = build_system(design="design1", seed=5)
    system.run(30 * MILLISECOND)
    gw = system.gateway
    assert gw.stats.orders_in > 0
    assert gw.stats.orders_out >= gw.stats.orders_in
    # Fills made it back to strategies.
    fills = sum(s.stats.fills for s in system.strategies)
    assert fills == gw.stats.fills_routed
    assert fills > 0
    # Sessions kept coherent order state.
    session = gw.session("exch1")
    assert session.bytes_sent > 0 and session.bytes_received > 0


def test_gateway_unknown_exchange_counted():
    system = build_system(design="design1", seed=5)
    gw = system.gateway
    order = InternalOrder("s", 1, "exch999", "AA", "B", 10_000, 100)
    gw._translate(order, system.strategies[0].order_nic.address)
    assert gw.stats.unknown_exchange == 1


def test_gateway_cancel_before_new_is_dropped():
    system = build_system(design="design1", seed=5)
    gw = system.gateway
    cancel = InternalOrder("s", 77, "exch1", "AA", "B", 10_000, 100, action="cancel")
    before = gw.stats.orders_out
    gw._translate(cancel, system.strategies[0].order_nic.address)
    assert gw.stats.orders_out == before  # nothing to cancel, nothing sent


def test_strategy_latency_recorder_paper_definition():
    """Latency = order send - most recent input arrival (§2)."""
    system = build_system(design="design1", seed=5)
    system.run(30 * MILLISECOND)
    samples = system.recorder.all_samples()
    assert samples
    # Samples are attributed to the *most recent* input, so a newer update
    # can land between decision and send (shrinking the sample) — but the
    # bulk should sit at the decision latency, and none can be negative.
    import statistics

    assert min(samples) >= 0
    assert statistics.median(samples) >= system.strategies[0].decision_latency_ns
    assert max(samples) < 1_000_000


def _itf_packet(codec, updates, mode=None):
    from repro.net.addressing import EndpointAddress, MulticastGroup
    from repro.net.packet import Packet

    payload = codec.encode_batch(updates)
    return Packet(
        src=EndpointAddress("norm0", "pub"), dst=MulticastGroup("norm", 0),
        wire_bytes=64 + len(payload), payload_bytes=len(payload),
        message=("itf", mode or codec.mode, payload, 1), seqno=1,
    )


def test_strategies_sharing_a_codec_decode_each_payload_once():
    from repro.protocols.itf import ItfCodec

    codec = ItfCodec()
    decodes = []
    original = codec.decode
    codec.decode = lambda *args: decodes.append(1) or original(*args)
    seen = {}
    strategies = []
    for name in ("a", "b", "c"):
        strategy = _bare_strategy(MomentumStrategy, symbol="AA", itf_codec=codec)
        strategy.on_update = lambda update, name=name: seen.setdefault(name, []).append(update)
        strategies.append(strategy)
    packet = _itf_packet(codec, [_update(), _update(symbol="BB")])
    for strategy in strategies:
        strategy.md_nic.handler(packet.clone())  # fan-out copies share the payload
    assert len(decodes) == 2  # two records, decoded once between three receivers
    assert seen["a"] == seen["b"] == seen["c"] == [_update(), _update(symbol="BB")]
    assert all(s.stats.updates_in == 2 for s in strategies)


def test_build_system_hands_every_strategy_the_firms_one_codec():
    system = build_system(design="design1", n_strategies=3)
    codecs = {id(strategy.itf_codec) for strategy in system.strategies}
    assert len(codecs) == 1


def test_strategy_rejects_payload_in_another_itf_mode():
    from repro.protocols.itf import ItfCodec, ItfDecodeError

    strategy = _bare_strategy(MomentumStrategy, symbol="AA")
    with pytest.raises(ItfDecodeError):
        strategy.md_nic.handler(_itf_packet(ItfCodec(), [_update()], mode="compact"))
