"""Component and timer abstractions on top of the event kernel.

Components are the unit of structure in the simulation: every switch, NIC,
normalizer, strategy, and exchange gateway is a :class:`Component`. The
base class provides a uniform way to attach to a simulator, a stable
hierarchical name (used in traces and latency attribution), and lifecycle
hooks.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.kernel import SimulationError, Simulator


class Component:
    """Base class for everything that lives inside a simulation.

    Subclasses get ``self.sim`` and ``self.name`` and may override
    :meth:`start` (called when the simulation is wired up) and
    :meth:`finish` (called by teardown helpers to flush statistics).
    """

    def __init__(self, sim: Simulator, name: str):
        if not name:
            raise ValueError("component name must be non-empty")
        self.sim = sim
        self.name = name
        self._started = False
        sim.components.append(self)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Hook invoked once before the simulation runs. Idempotent."""
        self._started = True

    def finish(self) -> None:
        """Hook invoked after the simulation completes."""

    # -- convenience -------------------------------------------------------

    @property
    def profile_kind(self) -> str:
        """Label the kernel profiler groups this component's handlers
        under. Defaults to the class name; subclasses with many
        instances of distinct roles may override it to split them."""
        return type(self).__name__

    @property
    def now(self) -> int:
        return self.sim.now

    def call_after(self, delay_ns: int, callback: Callable[..., None], *args) -> list:
        """Schedule ``callback(*args)`` after ``delay_ns`` nanoseconds.

        Returns the event token; ``self.sim.cancel(token)`` cancels it.
        """
        return self.sim.schedule_after(delay_ns, callback, args)

    def call_at(self, when: int, callback: Callable[..., None], *args) -> list:
        """Schedule ``callback(*args)`` at absolute time ``when``; same
        token return as :meth:`call_after`."""
        return self.sim.schedule_at(when, callback, args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Timer:
    """A restartable one-shot timer.

    Used for protocol timeouts (e.g. gap-fill retransmit requests in the
    sequenced-feed arbiter). ``restart`` cancels any pending expiry and
    re-arms the timer, which is the dominant usage pattern for inactivity
    timeouts.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self.sim = sim
        self.callback = callback
        # The pending expiry's event token; restart/cancel churn is the
        # hot pattern (one arm + one cancel per protected message).
        self._event: list | None = None

    @property
    def armed(self) -> bool:
        return self._event is not None

    def start(self, delay_ns: int) -> None:
        """Arm the timer to fire after ``delay_ns`` ns. Errors if already armed."""
        if self._event is not None:
            raise SimulationError("timer already armed; use restart()")
        self._event = self.sim.schedule_after(delay_ns, self._fire)

    def restart(self, delay_ns: int) -> None:
        """Cancel any pending expiry and arm for ``delay_ns`` ns from now."""
        event = self._event
        if event is not None:
            self.sim.cancel(event)
        self._event = self.sim.schedule_after(delay_ns, self._fire)

    def cancel(self) -> None:
        event = self._event
        if event is not None:
            self.sim.cancel(event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback()
