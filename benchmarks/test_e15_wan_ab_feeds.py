"""E15 — §2's WAN trade: microwave + fiber with A/B arbitration.

"Some firms employ microwave or laser links to reduce latency further.
Microwave links are used even though they are both less reliable (e.g.,
rain can cause packet loss) and offer less bandwidth than corresponding
fiber links."

The experiment: publish a sequenced feed from Carteret to Mahwah over a
lossy microwave leg and a lossless fiber leg simultaneously; arbitrate
at the receiver. The claim to reproduce: delivery is complete (fiber
backstops the loss) at microwave latency (~186 µs one way vs ~388 µs).
"""

import numpy as np
import pytest

from repro.exchange.colo import default_nj_metro
from repro.net.addressing import EndpointAddress
from repro.net.packet import Packet
from repro.protocols.pitch import DeleteOrder
from repro.protocols.seqfeed import FeedArbiter, SequencedPublisher
from repro.sim.kernel import Simulator

N_FRAMES = 1_500
MICROWAVE_LOSS = 0.08  # rain fade


class _Sink:
    def __init__(self, name):
        self.name = name
        self.on_packet = None

    def handle_packet(self, packet, ingress):
        if self.on_packet:
            self.on_packet(packet)


def _run_wan(arbitrate_both_legs: bool):
    sim = Simulator(seed=15)
    metro = default_nj_metro()
    publisher = SequencedPublisher(unit=1)
    src = _Sink("src")
    rx_mw, rx_fiber = _Sink("rx-mw"), _Sink("rx-fiber")
    mw = metro.wan_link(
        sim, "carteret", "mahwah", src, rx_mw,
        medium="microwave", loss_prob=MICROWAVE_LOSS,
    )
    fiber = metro.wan_link(sim, "carteret", "mahwah", src, rx_fiber)

    delivered, latencies = [], []
    arbiter = FeedArbiter(unit=1, sink=delivered.append)

    def receive(packet):
        before = arbiter.stats.delivered
        arbiter.on_payload(packet.message)
        if arbiter.stats.delivered > before:
            latencies.append(sim.now - packet.created_at)

    rx_mw.on_packet = receive
    if arbitrate_both_legs:
        rx_fiber.on_packet = receive

    for i in range(N_FRAMES):
        payload = publisher.publish([DeleteOrder(0, i + 1)])[0]

        def send(payload=payload):
            legs = (mw, fiber) if arbitrate_both_legs else (mw,)
            for link in legs:
                link.send(
                    Packet(src=EndpointAddress("src"), dst=EndpointAddress("dst"),
                           wire_bytes=100, payload_bytes=len(payload),
                           message=payload, created_at=sim.now),
                    src,
                )

        sim.schedule_at(i * 50_000, send)
    sim.run_until_idle()
    while arbiter.gap is not None:
        arbiter.declare_loss()
    return metro, delivered, latencies, arbiter


def test_ab_arbitration_over_metro_wan(benchmark, experiment_log):
    metro, delivered, latencies, arbiter = benchmark.pedantic(
        _run_wan, args=(True,), rounds=1, iterations=1
    )
    mw_oneway = metro.microwave_latency_ns("carteret", "mahwah")
    fiber_oneway = metro.fiber_latency_ns("carteret", "mahwah")
    median = float(np.median(latencies))

    experiment_log.add("E15/wan", "frames delivered (of 1500)",
                       N_FRAMES, len(delivered), rel_band=0.001)
    experiment_log.add("E15/wan", "median delivery latency ns",
                       mw_oneway, median, rel_band=0.10)
    experiment_log.add("E15/wan", "microwave one-way advantage ns",
                       201_000, fiber_oneway - mw_oneway, rel_band=0.05)

    assert len(delivered) == N_FRAMES  # complete despite 8% microwave loss
    assert median == pytest.approx(mw_oneway, rel=0.10)  # at microwave speed
    assert arbiter.stats.duplicates > 0  # the B leg really was redundant


def test_microwave_alone_loses_data(benchmark, experiment_log):
    metro, delivered, latencies, arbiter = benchmark.pedantic(
        _run_wan, args=(False,), rounds=1, iterations=1
    )
    loss = 1 - len(delivered) / N_FRAMES
    experiment_log.add("E15/wan", "single-leg loss rate (~rain fade)",
                       MICROWAVE_LOSS, loss, rel_band=0.35)
    assert 0.04 < loss < 0.13  # the configured fade, as measured
    assert arbiter.stats.messages_skipped > 0
