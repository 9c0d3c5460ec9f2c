"""End-to-end integration tests: full trading loops on Designs 1 and 3."""

import pytest

from repro.core.latency import Category
from repro.core.designs import Design1LeafSpine, Design3L1S
from repro.core import build_system
from repro.net.l1switch import MergeUnit
from repro.sim.kernel import MILLISECOND


@pytest.fixture(scope="module")
def design1():
    system = build_system(design="design1", seed=11)
    system.run(40 * MILLISECOND)
    return system


@pytest.fixture(scope="module")
def design3():
    system = build_system(design="design3", seed=11)
    system.run(40 * MILLISECOND)
    return system


class TestDesign1EndToEnd:
    def test_market_data_flows_to_strategies(self, design1):
        assert design1.exchange.publisher.stats.frames > 0
        assert all(s.stats.updates_in > 0 for s in design1.strategies)

    def test_orders_complete_the_loop(self, design1):
        assert design1.gateway.stats.orders_in > 0
        assert design1.exchange.order_entry.stats.acks > 0
        assert len(design1.roundtrip_samples()) > 10

    def test_fills_return_to_strategies(self, design1):
        assert sum(s.stats.fills for s in design1.strategies) > 0

    def test_round_trip_in_model_band(self, design1):
        """Measured round trip brackets the §4.1 model: the model counts
        only switch+software, the simulation adds NICs, serialization,
        propagation, and feed coalescing."""
        model = Design1LeafSpine().round_trip_budget().total_ns  # 12 us
        stats = design1.roundtrip_stats()
        assert model < stats.median < 2.0 * model

    def test_feed_never_overflowed_tables(self, design1):
        assert design1.fabric.pressure().switches_overflowed == 0

    def test_normalizer_state_consistent(self, design1):
        normalizer = design1.normalizers[0]
        assert normalizer.stats.messages_in > 0
        assert normalizer.stats.updates_out > 0
        assert normalizer.stats.unknown_order_events == 0


class TestDesign3EndToEnd:
    def test_loop_completes_on_l1s(self, design3):
        assert all(s.stats.updates_in > 0 for s in design3.strategies)
        assert len(design3.roundtrip_samples()) > 10
        assert sum(s.stats.fills for s in design3.strategies) > 0

    def test_l1s_round_trip_beats_design1(self, design1, design3):
        d1 = design1.roundtrip_stats().median
        d3 = design3.roundtrip_stats().median
        assert d3 < d1
        # The gap is the 12 commodity switch hops (~6 us): §4.1 vs §4.3.
        switch_time = Design1LeafSpine().round_trip_budget().category_ns(
            Category.SWITCH
        )
        assert (d1 - d3) == pytest.approx(switch_time, rel=0.35)

    def test_no_merge_loss_at_moderate_load(self, design3):
        for merge in design3.of(MergeUnit):
            assert merge.stats.egress_send_failures == 0

    def test_identical_seeds_identical_trading(self):
        """Determinism across runs: same seed, same event counts."""
        a = build_system(design="design1", seed=21)
        a.run(10 * MILLISECOND)
        b = build_system(design="design1", seed=21)
        b.run(10 * MILLISECOND)
        assert a.flow.stats.total == b.flow.stats.total
        assert [s.stats.orders_sent for s in a.strategies] == [
            s.stats.orders_sent for s in b.strategies
        ]
        assert a.roundtrip_samples() == b.roundtrip_samples()

    def test_multi_normalizer_design3_uses_merges(self):
        system = build_system(design="design3", seed=12, n_normalizers=2)
        system.run(20 * MILLISECOND)
        merges = system.of(MergeUnit)
        assert len(merges) == len(system.strategies) + 1
        assert len(system.roundtrip_samples()) > 0
        merged_in = sum(m.stats.packets_in for m in merges)
        assert merged_in > 0
