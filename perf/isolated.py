"""Layer timings in isolation: the same public functions, no system around.

The in-situ numbers (``*.self_ns_per_*`` from the traced run) say what a
layer costs inside a workload; these say what it costs alone. Each is the
median of 5 repeats and takes under a second.
"""

from __future__ import annotations

import random
import statistics
import time

REPEATS = 5

KERNEL_EVENTS = 100_000
PITCH_MESSAGES = 10_000
BOOK_OPS = 30_000
HISTOGRAM_RECORDS = 100_000


def _median_ns_per_op(run, ops: int) -> float:
    samples = []
    for _ in range(REPEATS):
        begin = time.perf_counter_ns()
        done = run()
        samples.append((time.perf_counter_ns() - begin) / ops)
        if done != ops:
            raise RuntimeError(f"isolated bench did {done} of {ops} operations")
    return statistics.median(samples)


def _noop() -> None:
    pass


def _kernel() -> float:
    from repro.sim.kernel import Simulator

    def run():
        sim = Simulator()
        schedule_after = sim.schedule_after
        for i in range(KERNEL_EVENTS):
            schedule_after(i + 1, _noop)
        return sim.run()

    return _median_ns_per_op(run, KERNEL_EVENTS)


def _pitch() -> float:
    from repro.protocols.pitch import AddOrder, DeleteOrder, PitchFrameCodec

    codec = PitchFrameCodec(unit=1)
    messages = [
        AddOrder(i, i, "B", 100, "AAPL", 10_000) if i % 2 else DeleteOrder(i, i)
        for i in range(PITCH_MESSAGES)
    ]

    def run():
        return sum(
            len(PitchFrameCodec.unpack(payload)[2]) for payload in codec.pack(messages)
        )

    return _median_ns_per_op(run, PITCH_MESSAGES)


def _book() -> float:
    from repro.exchange.book import OrderBook

    rng = random.Random(1)
    operations = [
        (
            rng.random(),
            "B" if rng.random() < 0.5 else "S",
            10_000 + rng.randint(-50, 50) * 100,
            rng.randint(1, 9) * 100,
        )
        for _ in range(BOOK_OPS)
    ]

    def run():
        book = OrderBook("X")
        live = []
        for order_id, (roll, side, price, quantity) in enumerate(operations, start=1):
            if roll < 0.3 and live:
                book.cancel(live.pop())
            elif book.add_order(order_id, side, price, quantity, "o").resting_quantity:
                live.append(order_id)
        return BOOK_OPS

    return _median_ns_per_op(run, BOOK_OPS)


def _histogram() -> float:
    from repro.telemetry.hdr import LogLinearHistogram

    rng = random.Random(1)
    values = [rng.randint(100, 2_000_000) for _ in range(HISTOGRAM_RECORDS)]

    def run():
        record = LogLinearHistogram().record
        for value in values:
            record(value)
        return HISTOGRAM_RECORDS

    return _median_ns_per_op(run, HISTOGRAM_RECORDS)


def isolated_metrics() -> dict[str, float]:
    return {
        "sim.isolated_ns_per_event": _kernel(),
        "protocols.isolated_ns_per_msg": _pitch(),
        "exchange.isolated_ns_per_book_op": _book(),
        "telemetry.isolated_ns_per_record": _histogram(),
    }
