"""E20 — §2's geography: trading a remote colo across the metro WAN.

"Trading on all U.S. equities markets requires placing servers in three
different co-location facilities" — because the alternative, trading a
remote venue over the WAN, costs two metro traversals per decision.
This bench measures that cost on the cross-colo testbed (Carteret
exchange, Mahwah firm; microwave + fiber A/B feed; reliable orders over
microwave) and decomposes it against the colo geometry.
"""

import numpy as np
import pytest

from repro.core import build_system
from repro.sim.kernel import MILLISECOND


def test_cross_colo_round_trip(benchmark, experiment_log):
    def run():
        system = build_system(
            design="wan", seed=20, n_strategies=2,
            flow_rate_per_s=30_000.0, firm_partitions=4,
        )
        system.run(40 * MILLISECOND)
        return system

    system = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = system.roundtrip_stats()
    one_way = system.metro.microwave_latency_ns("carteret", "mahwah")

    local = build_system(design="design1", seed=20)
    local.run(40 * MILLISECOND)
    local_median = local.roundtrip_stats().median

    experiment_log.add("E20/cross-colo", "microwave one-way ns (geometry)",
                       186_413, one_way, rel_band=0.02)
    experiment_log.add("E20/cross-colo", "remote round trip median ns",
                       2 * one_way + 13_000, stats.median, rel_band=0.10)
    experiment_log.add("E20/cross-colo", "remote/local latency ratio x",
                       24.0, stats.median / local_median, rel_band=0.25)

    assert stats.count > 10
    assert 2 * one_way < stats.median < 2 * one_way + 30_000
    assert stats.median > 20 * local_median


def test_microwave_loss_tail(benchmark, experiment_log):
    def run():
        system = build_system(
            design="wan", seed=21, microwave_loss=0.05, n_strategies=2,
            flow_rate_per_s=30_000.0, firm_partitions=4,
        )
        system.run(60 * MILLISECOND)
        return system

    system = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = system.roundtrip_stats()
    order_channel = system.devices["rel.firm"]
    rto = order_channel.rto_ns
    # A 5%-lossy path occasionally loses the frame twice (or loses the
    # response too): the observed tail sits at a small multiple of the
    # RTO thanks to exponential backoff (rto + 2*rto for a double loss).
    experiment_log.add("E20/cross-colo", "p99-median tail (RTO multiples) ns",
                       3 * rto, stats.p99 - stats.median, rel_band=0.35)
    # Loss never drops an order — it just delays it by an RTO.
    assert order_channel.stats.failures == 0
    assert order_channel.stats.retransmits > 0
    assert stats.p99 - stats.median > rto / 3
