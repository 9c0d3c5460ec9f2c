"""Tests for Design 4 (FPGA-enhanced L1S), analytic and simulated."""

import pytest

from repro.core.designs import (
    Design1LeafSpine,
    Design3L1S,
    Design4EnhancedL1S,
)
from repro.core import build_system
from repro.sim.kernel import MILLISECOND


class TestAnalytic:
    def test_budget_sits_between_d3_and_d1(self):
        d1 = Design1LeafSpine().round_trip_budget()
        d3 = Design3L1S().round_trip_budget()
        d4 = Design4EnhancedL1S().round_trip_budget()
        assert d3.total_ns < d4.total_ns < d1.total_ns
        # Per hop: 5 ns < 100 ns < 500 ns, each ~5x apart.
        assert d4.total_ns - d3.total_ns < 500
        assert d4.network_fraction < 0.10

    def test_recovers_reconfigurability_with_a_small_table(self):
        d4 = Design4EnhancedL1S()
        assert d4.reconfigurable
        # "they tend to have small forwarding tables" — far below even
        # the commodity ASIC's mroute capacity.
        assert d4.multicast_group_capacity < Design1LeafSpine().multicast_group_capacity
        assert d4.multicast_group_capacity == 128


class TestSimulated:
    @pytest.fixture(scope="class")
    def system(self):
        system = build_system(design="design4", seed=3)
        system.run(40 * MILLISECOND)
        return system

    def test_loop_completes(self, system):
        assert len(system.roundtrip_samples()) > 10
        assert sum(s.stats.fills for s in system.strategies) > 0

    def test_round_trip_between_d3_and_d1(self, system):
        d3 = build_system(design="design3", seed=3)
        d3.run(40 * MILLISECOND)
        d4_median = system.roundtrip_stats().median
        d3_median = d3.roundtrip_stats().median
        assert d3_median < d4_median
        # The delta is the per-hop difference on the two market-data
        # hops: 2 x (100 - 5) ns = 190 ns.
        assert d4_median - d3_median == pytest.approx(190, abs=40)

    def test_group_forwarding_in_the_fabric(self, system):
        fpga_a, fpga_b = system.devices["fpga-a"], system.devices["fpga-b"]
        assert fpga_a.stats.packets_in > 0
        assert fpga_b.copies_out if hasattr(fpga_b, "copies_out") else True
        assert fpga_b.stats.copies_out >= fpga_b.stats.packets_in

    def test_in_fabric_filtering_thins_per_strategy_traffic(self):
        full = build_system(design="design4", seed=3)
        full.run(30 * MILLISECOND)
        thin = build_system(
            design="design4", seed=3, subscriptions_per_strategy=2
        )
        thin.run(30 * MILLISECOND)
        full_updates = full.strategies[0].stats.updates_in
        thin_updates = thin.strategies[0].stats.updates_in
        # 2 of 8 partitions: roughly a quarter of the traffic, delivered
        # by the *fabric* (no NIC-side discards needed).
        assert 0 < thin_updates < 0.5 * full_updates
        assert thin.strategies[0].md_nic.stats.packets_filtered == 0
