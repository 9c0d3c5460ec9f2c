"""Tie-order gate: no simulated result depends on same-nanosecond order.

The kernel fires events due at the same time and priority in the order
they were scheduled. That FIFO rule makes runs reproducible, but no
result may hang on it: two devices acting in the same nanosecond have no
order a real network could observe, so a result that moves when their
events swap is a race in the model.

This gate breaks every such tie another way and requires each golden
case and scenario to report exactly its ``OBSERVABLE`` pin. An event's
*owner* is the object whose bound method it calls, or the code object of
a plain function or lambda. Events of one owner keep their FIFO order;
owners are ranked against each other. Tier-1 reverses the order in which
owners are first seen; three seeded shuffles run with::

    PYTHONPATH=src python -m tests.test_tie_order    # make tie-order
"""

from __future__ import annotations

import contextlib
import heapq
import random
import sys

import pytest

from repro.chaos.scenarios import SCENARIOS
from repro.core import api
from repro.sim.kernel import SimulationError, Simulator
from tests.test_golden_digests import (
    CASES,
    OBSERVABLE,
    case_digests,
    scenario_digests,
)

SHUFFLE_SEEDS = (1, 2, 3)


class TieOrderSimulator(Simulator):
    """A simulator whose same-instant ties go by owner rank, then FIFO.

    The heap entry's sequence slot becomes ``(owner rank, seq)``, so time
    and priority still decide first. ``shuffle_seed`` ``None`` ranks
    owners in reverse order of first sight; an int ranks them by a
    seeded shuffle.
    """

    shuffle_seed: int | None = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ranks: dict[int, float] = {}
        self._owners: list = []  # keeps owners alive so their ids stay unique
        self._shuffle = (
            None if self.shuffle_seed is None else random.Random(self.shuffle_seed)
        )

    def _rank(self, callback) -> float:
        owner = getattr(callback, "__self__", None)
        if owner is None:
            owner = getattr(callback, "__code__", callback)
        rank = self._ranks.get(id(owner))
        if rank is None:
            self._owners.append(owner)
            if self._shuffle is None:
                rank = -len(self._owners)
            else:
                rank = self._shuffle.random()
            self._ranks[id(owner)] = rank
        return rank

    def _push(self, time, callback, args, priority) -> list:
        seq = (self._rank(callback), self._seq)
        event = [time, priority, seq, callback, args, False]
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time, callback, args=(), priority=0):
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} (now is t={self.now})")
        return self._push(time, callback, args, priority)

    def schedule_after(self, delay_ns, callback, args=(), priority=0):
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule at t={self.now + delay_ns} (now is t={self.now})"
            )
        return self._push(self.now + delay_ns, callback, args, priority)


@contextlib.contextmanager
def tie_order(shuffle_seed: int | None = None):
    """Build every system with a :class:`TieOrderSimulator` meanwhile."""
    perturbed = type(
        "TieOrderSimulator", (TieOrderSimulator,), {"shuffle_seed": shuffle_seed}
    )
    saved = api.Simulator
    api.Simulator = perturbed
    try:
        yield
    finally:
        api.Simulator = saved


def observable_digest(key: str) -> str:
    if key.startswith("scenario:"):
        return scenario_digests(key.removeprefix("scenario:"))[1]
    return case_digests(key)[1]


PIN_KEYS = [*CASES, *(f"scenario:{name}" for name in SCENARIOS)]


@pytest.mark.parametrize("key", PIN_KEYS)
def test_reversed_tie_order_reports_the_same_run(key):
    with tie_order():
        assert observable_digest(key) == OBSERVABLE[key]


class _Owner:
    def __init__(self, tag, fired):
        self.tag = tag
        self.fired = fired

    def fire(self, n):
        self.fired.append((self.tag, n))


def _tied_run(sim):
    fired = []
    a, b = _Owner("a", fired), _Owner("b", fired)
    for n in range(2):
        sim.schedule_after(10, a.fire, (n,))
        sim.schedule_at(10, b.fire, (n,))
    sim.schedule_at(10, lambda: fired.append(("fn", 0)))
    sim.schedule_at(5, b.fire, (-1,))  # earlier time still fires first
    sim.schedule_at(10, a.fire, (-2,), -1)  # lower priority still first
    sim.run()
    return fired


def test_perturbation_reorders_cross_owner_ties_only():
    assert _tied_run(Simulator()) == [
        ("b", -1), ("a", -2), ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("fn", 0),
    ]
    assert _tied_run(TieOrderSimulator()) == [
        ("b", -1), ("a", -2), ("fn", 0), ("b", 0), ("b", 1), ("a", 0), ("a", 1),
    ]
    for seed in range(8):
        shuffled = type("S", (TieOrderSimulator,), {"shuffle_seed": seed})
        fired = _tied_run(shuffled())
        assert fired[:2] == [("b", -1), ("a", -2)]
        for tag in ("a", "b"):  # FIFO within each owner
            mine = [n for t, n in fired[2:] if t == tag]
            assert mine == [0, 1]


def test_tie_order_restores_the_kernel():
    with tie_order(7):
        assert api.Simulator.shuffle_seed == 7
    assert api.Simulator is Simulator


if __name__ == "__main__":  # make tie-order: three seeded shuffles
    failed = []
    for seed in SHUFFLE_SEEDS:
        with tie_order(seed):
            for key in PIN_KEYS:
                ok = observable_digest(key) == OBSERVABLE[key]
                print(f"shuffle {seed} {key}: {'ok' if ok else 'DIFFERS'}")
                if not ok:
                    failed.append((seed, key))
    sys.exit(1 if failed else 0)
