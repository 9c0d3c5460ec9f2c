"""E23 — the aggregation workload end to end: cross-venue arbitrage.

§4.2's argument made operational: an arbitrage strategy needs *both*
venues' data on one box (via the shared normalized feed) and sessions to
both venues (via one gateway). This bench runs the two-venue system and
measures the loop economics: dislocations detected, IOC pairs sent,
fills won, and the reaction time — which is just the Design 1 round
trip, because that is what the fabric charges for a reaction.
"""

import numpy as np
import pytest

from repro.core.designs import Design1LeafSpine
from repro.core import build_system
from repro.sim.kernel import MILLISECOND

# The spec's defaults are the colo designs'; these are the two-venue
# experiment's own.
MULTIVENUE = dict(
    design="multivenue", seed=42, n_symbols=10, flow_rate_per_s=25_000.0
)


def test_cross_venue_arbitrage(benchmark, experiment_log):
    def run():
        system = build_system(**MULTIVENUE)
        system.run(60 * MILLISECOND)
        return system

    system = benchmark.pedantic(run, rounds=1, iterations=1)
    (arb,) = system.strategies
    median_reaction = float(np.median(system.roundtrip_samples()))
    model = Design1LeafSpine().round_trip_budget().total_ns

    experiment_log.add("E23/multi-venue", "dislocations detected",
                       295, arb.opportunities, rel_band=0.15)
    experiment_log.add("E23/multi-venue", "arb fills won",
                       392, arb.stats.fills, rel_band=0.15)
    experiment_log.add("E23/multi-venue", "reaction median ns (≈ design1 rt)",
                       16_300, median_reaction, rel_band=0.15)

    assert arb.opportunities > 0
    assert arb.stats.fills > 0
    # The reaction time is the Design 1 round trip: the network design
    # *is* the strategy's competitiveness.
    assert model < median_reaction < 1.5 * model
    # NBBO surveillance ran off the same feed with zero extra fabric.
    assert system.nbbo.stats.updates > 500


def test_risk_gate_catches_the_trade_through(benchmark, experiment_log):
    """The §4.2 payoff: with the NBBO-aware gate in the order path, the
    one IOC the arb sends on a stale local view — which would have
    executed at a price worse than another venue displayed — is blocked
    as a trade-through. Every other order passes untouched."""
    from repro.firm.risk import RiskVerdict

    def run_gated():
        system = build_system(**MULTIVENUE, with_risk_gate=True)
        system.run(60 * MILLISECOND)
        return system

    gated = benchmark.pedantic(run_gated, rounds=1, iterations=1)

    experiment_log.add("E23/multi-venue", "orders risk-checked at the gateway",
                       gated.gateway.stats.orders_in,
                       gated.risk.stats.checked, rel_band=0.001)
    experiment_log.add("E23/multi-venue", "trade-throughs blocked",
                       1, gated.gateway.stats.risk_blocked, rel_band=0.001)

    assert gated.risk.stats.checked == gated.gateway.stats.orders_in
    assert gated.gateway.stats.risk_blocked == 1
    assert gated.risk.stats.by_verdict.get(RiskVerdict.REJECT_TRADE_THROUGH) == 1
