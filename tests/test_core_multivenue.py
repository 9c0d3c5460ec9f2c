"""Tests for the two-venue system: arbitrage, NBBO, and the risk gate."""

import pytest

from repro.core import build_system
from repro.sim.kernel import MILLISECOND

# The two-venue build with the knobs its stand-alone builder used to
# default (the spec's own defaults are the colo designs').
MULTIVENUE = dict(
    design="multivenue", seed=42, n_symbols=10, flow_rate_per_s=25_000.0
)


@pytest.fixture(scope="module")
def system():
    system = build_system(**MULTIVENUE)
    system.run(60 * MILLISECOND)
    return system


def arb(system):
    (strategy,) = system.strategies
    return strategy


def test_both_venues_trade(system):
    for exchange in system.exchanges:
        assert exchange.engine.stats.orders_accepted > 100
        assert exchange.engine.stats.trades > 0


def test_arb_consumes_both_venues_through_one_feed(system):
    venues_seen = {venue for (_s, venue) in arb(system)._bbos}
    assert venues_seen == {1, 2}
    assert arb(system).stats.updates_in > 500


def test_arb_fires_and_fills_on_dislocations(system):
    assert arb(system).opportunities > 0
    assert arb(system).stats.orders_sent >= 2  # IOC pairs
    assert arb(system).stats.fills > 0
    # Orders reached both venues via the single gateway.
    assert set(system.gateway.connected_exchanges) == {"exch1", "exch2"}


def test_compliance_view_sees_cross_venue_states(system):
    assert system.nbbo.stats.updates > 500
    assert system.nbbo.stats.nbbo_changes > 100
    # Independent venue price walks lock/cross regularly.
    assert system.nbbo.stats.crossed_events + system.nbbo.stats.locked_events > 0


def test_risk_gate_variant_blocks_nothing_benign_but_checks_everything():
    gated = build_system(**MULTIVENUE, with_risk_gate=True)
    gated.run(60 * MILLISECOND)
    assert gated.risk is not None
    assert gated.risk.stats.checked == gated.gateway.stats.orders_in
    # IOC arbitrage at the touch is legal: no trade-throughs to block,
    # so the gate passes everything while still on the path.
    assert gated.gateway.stats.risk_blocked <= gated.risk.stats.checked
    # Positions accumulated from the arb's fills.
    assert gated.risk.positions.firm_gross >= 0


def test_determinism(system):
    again = build_system(**MULTIVENUE)
    again.run(60 * MILLISECOND)
    assert arb(again).opportunities == arb(system).opportunities
    assert arb(again).stats.fills == arb(system).stats.fills
