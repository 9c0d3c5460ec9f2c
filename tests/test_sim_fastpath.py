"""The scheduling API's bookkeeping: tokens, live counts, compaction.

``schedule_at``/``schedule_after`` return the raw heap entry as the
event token. These tests pin the ``pending``/``pending_raw`` split, the
no-op cancel of an already-fired token, and the cancellation-aware heap
compaction that timer-heavy workloads rely on.
"""

import pytest

from repro.sim.kernel import EV_CANCELLED, MILLISECOND, Simulator

# Workload sizes comfortably past the compaction threshold (64).
N_EVENTS = 200


def _record(log, tag):
    log.append(tag)


class TestPositionalScheduling:
    def test_schedule_at_matches_schedule_after(self):
        """(delay, priority, tag) triples with time and priority ties
        fire identically through the absolute and the relative form."""
        a, b = Simulator(), Simulator()
        log_a, log_b = [], []
        for i in range(N_EVENTS):
            delay, priority = (i * 37) % 500 + 1, (i % 3) - 1
            a.schedule_at(delay, _record, (log_a, i), priority=priority)
            b.schedule_after(delay, _record, (log_b, i), priority=priority)
        a.run()
        b.run()
        assert log_a == log_b
        assert a.now == b.now


class TestPendingCounts:
    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        tokens = [sim.schedule_after(i + 1, _record, ([], i)) for i in range(10)]
        assert sim.pending == sim.pending_raw == 10
        for token in tokens[:4]:
            sim.cancel(token)
        assert sim.pending == 6
        assert sim.pending_raw == 10  # dead entries not yet reaped
        sim.run()
        assert sim.pending == sim.pending_raw == 0
        assert sim.events_executed == 6

    def test_cancel_after_fire_is_a_noop(self):
        """Cancelling a dispatched event must not corrupt the live count."""
        sim = Simulator()
        fired = []
        token = sim.schedule_after(1, _record, (fired, 1))
        sim.schedule_after(2, _record, (fired, 2))
        sim.run(until=1)
        assert fired == [1]
        sim.cancel(token)  # already fired: no effect
        assert sim.pending == sim.pending_raw == 1
        sim.run()
        assert fired == [1, 2]

    def test_run_until_idle_ignores_cancelled_backlog(self):
        sim = Simulator()
        tokens = [sim.schedule_after(i + 1, _record, ([], i)) for i in range(20)]
        for token in tokens:
            sim.cancel(token)
        assert sim.pending == 0
        assert sim.run_until_idle(max_events=5) == 0


class TestHeapCompaction:
    def test_compaction_reaps_dead_entries(self):
        sim = Simulator()
        tokens = [
            sim.schedule_after(i + 1, _record, ([], i)) for i in range(N_EVENTS)
        ]
        # Cancel past the majority threshold: the heap rebuilds in place.
        for token in tokens[: N_EVENTS // 2 + 1]:
            sim.cancel(token)
        live = N_EVENTS - (N_EVENTS // 2 + 1)
        assert sim.pending == live
        assert sim.pending_raw == live  # compacted: no dead weight left

    def test_events_survive_compaction_in_order(self):
        sim = Simulator()
        log = []
        tokens = [
            sim.schedule_after(i + 1, _record, (log, i)) for i in range(N_EVENTS)
        ]
        for token in tokens[::2][: N_EVENTS // 2 + 1]:  # every even tag
            sim.cancel(token)
        sim.run()
        assert log == sorted(log)
        assert all(tag % 2 == 1 for tag in log)

    def test_cancel_after_compaction(self):
        sim = Simulator()
        log = []
        tokens = [
            sim.schedule_after(i + 1, _record, (log, i)) for i in range(N_EVENTS)
        ]
        for token in tokens[: N_EVENTS // 2 + 1]:
            sim.cancel(token)
        assert sim.pending == sim.pending_raw  # compacted
        # Cancelling a compacted-away token again stays idempotent...
        sim.cancel(tokens[0])
        # ...and cancelling a survivor still works post-rebuild.
        sim.cancel(tokens[-1])
        sim.run()
        assert tokens[-1][EV_CANCELLED] is True
        assert log == list(range(N_EVENTS // 2 + 1, N_EVENTS - 1))

    def test_compaction_during_run(self):
        """A callback cancelling most of the queue mid-run triggers the
        in-place rebuild while run() holds its local queue reference."""
        sim = Simulator()
        log = []
        tokens = [
            sim.schedule_after(1_000 + i, _record, (log, i))
            for i in range(N_EVENTS)
        ]

        def cull():
            for token in tokens[: N_EVENTS // 2 + 20]:
                sim.cancel(token)

        sim.schedule_after(10, cull)
        sim.run()
        assert log == list(range(N_EVENTS // 2 + 20, N_EVENTS))
        assert sim.pending == sim.pending_raw == 0

    def test_small_queues_never_compact(self):
        sim = Simulator()
        tokens = [sim.schedule_after(i + 1, _record, ([], i)) for i in range(10)]
        for token in tokens:
            sim.cancel(token)
        # Below the threshold the dead entries wait for dispatch to reap.
        assert sim.pending == 0
        assert sim.pending_raw == 10


class TestObservedRunsAreBitIdentical:
    """Profiling and telemetry read the clock but never steer the sim."""

    @pytest.mark.parametrize("design", ["design1", "design3"])
    def test_profiled_and_telemetry_runs_match_plain(self, design):
        from repro.core import build_system

        def run(telemetry=False, profiled=False):
            system = build_system(design=design, seed=13, n_symbols=6,
                                  n_strategies=2, telemetry=telemetry)
            if profiled:
                system.sim.attach_profiler()
            system.run(10 * MILLISECOND)
            return (
                system.roundtrip_samples(),
                system.sim.events_executed,
                system.exchange.publisher.stats.frames,
            )

        plain = run()
        assert run(profiled=True) == plain
        assert run(telemetry=True) == plain
        assert run(telemetry=True, profiled=True) == plain
