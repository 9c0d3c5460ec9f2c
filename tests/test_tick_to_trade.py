"""Tests for the tick-to-trade hardware pipeline (§1's fastest firms)."""

import numpy as np
import pytest

from repro.core import build_system
from repro.core.ticktotrade import FPGA_COMPUTE_NS, HardwareStrategy


def built_and_run():
    system = build_system(design="ticktotrade", seed=77)
    system.run(5_000_000)
    (strategy,) = system.strategies
    return system.sim, system.exchange, strategy


@pytest.fixture(scope="module")
def system():
    return built_and_run()


def test_tick_to_trade_is_hundreds_of_nanoseconds(system):
    sim, exchange, strategy = system
    samples = exchange.order_entry.roundtrip_samples
    assert len(samples) > 20
    median = float(np.median(samples))
    # "10s to 100s of nanoseconds": sub-microsecond, serialization-bound.
    assert 100 <= median < 1_000
    # And it is wire-dominated: the compute is a small fraction.
    assert FPGA_COMPUTE_NS / median < 0.2


def test_pipeline_consumed_raw_feed_without_a_normalizer(system):
    sim, exchange, strategy = system
    assert strategy.orders_sent == len(exchange.order_entry.roundtrip_samples)
    assert strategy.feed.stats.messages > 40  # raw PITCH parsed in-line


def test_software_stack_cannot_reach_this_floor(system):
    """The same trigger through the full software stack (normalizer +
    strategy + gateway at 2 us each) is bounded below by its function
    latencies alone — an order of magnitude above the hardware path."""
    sim, exchange, strategy = system
    hardware_median = float(np.median(exchange.order_entry.roundtrip_samples))
    software_floor = 3 * 2_000  # three 2 us software hops, nothing else
    assert software_floor > 10 * hardware_median


def test_determinism(system):
    sim, exchange, strategy = system
    again_sim, again_exchange, again_strategy = built_and_run()
    assert (
        again_exchange.order_entry.roundtrip_samples
        == exchange.order_entry.roundtrip_samples
    )


def test_facade_build_is_unrun_then_matches(system):
    """build_system(design="ticktotrade") returns the wired-but-unrun
    pipeline — one hardware strategy, and no normalizer, gateway or flow
    generator (the fabric's bid-walker is the tick source); driving it
    reproduces the fixture's run bit-for-bit."""
    via_facade = build_system(design="ticktotrade", seed=77)
    assert via_facade.sim.now == 0
    assert via_facade.roundtrip_samples() == []
    assert [type(s) for s in via_facade.strategies] == [HardwareStrategy]
    assert via_facade.normalizers == [] and via_facade.flows == []
    assert via_facade.gateway is None
    via_facade.run(5_000_000)
    _sim, exchange, _strategy = system
    assert via_facade.roundtrip_samples() == list(
        exchange.order_entry.roundtrip_samples
    )
