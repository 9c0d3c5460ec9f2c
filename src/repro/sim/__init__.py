"""Discrete-event simulation kernel with nanosecond-resolution virtual time.

The kernel is deliberately small and deterministic: all randomness flows
through named :class:`~repro.sim.rng.RngStreams` substreams, and events that
are scheduled for the same instant fire in FIFO order of scheduling. Times
are integers (nanoseconds) so that latency arithmetic is exact — the paper's
arguments live at 5 ns .. 500 ns granularity where floating-point drift
would be visible.
"""

from repro.sim.kernel import (
    SimulationError,
    Simulator,
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    ms_to_ns,
    s_to_ns,
    us_to_ns,
)
from repro.sim.process import Component, Timer
from repro.sim.rng import RngStreams

__all__ = [
    "Component",
    "RngStreams",
    "SimulationError",
    "Simulator",
    "Timer",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "ms_to_ns",
    "s_to_ns",
    "us_to_ns",
]
