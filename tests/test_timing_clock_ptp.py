"""Tests for drifting clocks and PTP-style synchronization."""

import pytest

from repro.sim.kernel import MILLISECOND, SECOND, Simulator
from repro.timing.clock import DriftingClock
from repro.timing.ptp import PtpSync


class TestDriftingClock:
    def test_perfect_clock_reads_true_time(self):
        sim = Simulator()
        clock = DriftingClock(sim, "ideal")
        sim.schedule_after(1_000_000, lambda: None)
        sim.run()
        assert clock.read() == sim.now
        assert clock.error_ns() == 0

    def test_drift_accumulates(self):
        sim = Simulator()
        clock = DriftingClock(sim, "fast", drift_ppm=20.0)
        sim.schedule_at(1 * SECOND, lambda: None)
        sim.run()
        # 20 ppm over 1 s = 20 us fast.
        assert clock.error_ns() == pytest.approx(20_000, rel=0.01)

    def test_negative_drift_runs_slow(self):
        sim = Simulator()
        clock = DriftingClock(sim, "slow", drift_ppm=-10.0)
        sim.schedule_at(1 * SECOND, lambda: None)
        sim.run()
        assert clock.error_ns() == pytest.approx(-10_000, rel=0.01)

    def test_initial_offset(self):
        sim = Simulator()
        clock = DriftingClock(sim, "off", initial_offset_ns=500.0)
        assert clock.error_ns() == pytest.approx(500.0)

    def test_phase_step(self):
        sim = Simulator()
        clock = DriftingClock(sim, "c", initial_offset_ns=100.0)
        clock.step_phase(-100.0)
        assert clock.error_ns() == pytest.approx(0.0)

    def test_frequency_adjustment_changes_future_drift(self):
        sim = Simulator()
        clock = DriftingClock(sim, "c", drift_ppm=10.0)
        sim.schedule_at(1 * SECOND, lambda: clock.adjust_frequency(-10.0))
        sim.schedule_at(2 * SECOND, lambda: None)
        sim.run()
        # First second drifted +10 us; second second was disciplined.
        assert clock.error_ns() == pytest.approx(10_000, rel=0.01)


class TestPtp:
    def _sync(self, sim, drift=25.0, **kwargs):
        clock = DriftingClock(sim, "slave", drift_ppm=drift,
                              initial_offset_ns=5_000.0)
        sync = PtpSync(sim, "ptp", clock, **kwargs)
        sync.start()
        return clock, sync

    def test_servo_converges_on_symmetric_path(self):
        sim = Simulator(seed=1)
        clock, sync = self._sync(sim)
        sim.run(until=10 * SECOND)
        # Residual bounded by jitter + granularity, nowhere near the
        # undisciplined 25 ppm drift (250 us over 10 s).
        assert abs(clock.error_ns()) < 100
        assert sync.quality.rms_ns < 100

    def test_asymmetry_biases_by_half_the_difference(self):
        """The classic PTP failure: asymmetric paths mis-center the
        offset estimate by half the asymmetry."""
        sim = Simulator(seed=2)
        clock, sync = self._sync(
            sim, forward_delay_ns=900.0, reverse_delay_ns=100.0,
            jitter_ns=0.0, timestamp_granularity_ns=0.0,
        )
        sim.run(until=10 * SECOND)
        assert sync.asymmetry_floor_ns == 400.0
        assert abs(abs(clock.error_ns()) - 400.0) < 50

    def test_sub_ns_needs_fine_granularity(self):
        """The paper's sub-100 ps ambition (§2) requires white-rabbit
        class timestamping; 8 ns NIC stamps cannot get there."""
        sim = Simulator(seed=3)
        coarse_clock, coarse = self._sync(
            sim, jitter_ns=0.0, timestamp_granularity_ns=8.0
        )
        sim.run(until=10 * SECOND)

        sim2 = Simulator(seed=3)
        clock2 = DriftingClock(sim2, "slave", drift_ppm=25.0,
                               initial_offset_ns=5_000.0)
        fine = PtpSync(
            sim2, "ptp", clock2, jitter_ns=0.0, timestamp_granularity_ns=0.05,
            warmup_rounds=40,  # skip the servo's convergence transient
        )
        fine.start()
        sim2.run(until=10 * SECOND)

        assert not coarse.quality.meets(0.1)  # 100 ps: unreachable
        assert fine.quality.max_abs_ns < coarse.quality.max_abs_ns
        assert fine.quality.meets(1.0)  # ~1 ns with 50 ps stamps

    def test_stop_halts_rounds(self):
        sim = Simulator(seed=4)
        clock, sync = self._sync(sim)
        sim.run(until=1 * SECOND)
        rounds = sync.rounds
        sync.stop()
        sim.run(until=2 * SECOND)
        assert sync.rounds == rounds

    def test_quality_empty_before_warmup(self):
        sim = Simulator(seed=5)
        clock, sync = self._sync(sim, interval_ns=100 * MILLISECOND,
                                 warmup_rounds=100)
        sim.run(until=1 * SECOND)
        assert sync.quality.samples == []
        assert not sync.quality.meets(1000)
