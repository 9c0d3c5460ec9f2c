"""Tests for Table 1 frame-length calibration (the E1 workload)."""

import numpy as np
import pytest

from repro.workload.framesize import (
    FEED_PROFILES,
    FRAME_OVERHEAD,
    FeedProfile,
    frame_wire_length,
    sample_frame_lengths,
    sample_frames,
)

TABLE1 = {
    "A": {"min": 73, "avg": 92, "median": 89, "max": 1514},
    "B": {"min": 64, "avg": 113, "median": 76, "max": 1067},
    "C": {"min": 81, "avg": 151, "median": 101, "max": 1442},
}


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(2024)
    return {
        name: sample_frame_lengths(profile, 30_000, rng)
        for name, profile in FEED_PROFILES.items()
    }


@pytest.mark.parametrize("feed", list(TABLE1))
def test_minimum_frame_exact(samples, feed):
    """Minima are structural (runt padding / smallest message batch)."""
    assert samples[feed].min() == TABLE1[feed]["min"]


@pytest.mark.parametrize("feed", list(TABLE1))
def test_maximum_frame_exact(samples, feed):
    """Maxima are structural (the venue's datagram cap, packed full)."""
    assert samples[feed].max() == TABLE1[feed]["max"]


@pytest.mark.parametrize("feed", list(TABLE1))
def test_average_within_band(samples, feed):
    avg = samples[feed].mean()
    assert avg == pytest.approx(TABLE1[feed]["avg"], rel=0.10)


@pytest.mark.parametrize("feed", list(TABLE1))
def test_median_within_band(samples, feed):
    median = np.median(samples[feed])
    assert median == pytest.approx(TABLE1[feed]["median"], rel=0.10)


@pytest.mark.parametrize("feed", list(TABLE1))
def test_right_skew_median_below_mean(samples, feed):
    """All three feeds show median < avg: burst frames drag the mean up."""
    assert np.median(samples[feed]) < samples[feed].mean()


def test_frames_come_from_real_codec_bytes():
    """Frame lengths equal 54 B overhead + actual encoded message bytes."""
    rng = np.random.default_rng(7)
    frames = sample_frames(FEED_PROFILES["A"], 200, rng)
    for frame in frames:
        encoded = sum(len(m.encode()) for m in frame)
        assert frame_wire_length(frame) == max(64, FRAME_OVERHEAD + encoded)


def test_heartbeat_only_frames_are_runts():
    rng = np.random.default_rng(7)
    lengths = sample_frame_lengths(FEED_PROFILES["B"], 5_000, rng)
    # Exchange B's 64 B minimum exists and is common (heartbeats).
    assert (lengths == 64).mean() > 0.1


def test_profile_validation():
    with pytest.raises(ValueError):
        FeedProfile("bad", 1514, {"delete": 0.5}, 1.0, 0.0, (0.5, 1.0))
    with pytest.raises(ValueError):
        FeedProfile("bad", 60, {"delete": 1.0}, 1.0, 0.0, (0.5, 1.0))
    with pytest.raises(ValueError):
        FeedProfile("bad", 1514, {"nope": 1.0}, 1.0, 0.0, (0.5, 1.0))


def test_deterministic_given_seed():
    a = sample_frame_lengths(FEED_PROFILES["A"], 500, np.random.default_rng(1))
    b = sample_frame_lengths(FEED_PROFILES["A"], 500, np.random.default_rng(1))
    assert np.array_equal(a, b)
