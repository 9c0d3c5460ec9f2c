"""Property tests for the event kernel — the bedrock everything sits on."""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator


@given(
    delays=st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=200)
)
@settings(max_examples=100, deadline=None)
def test_events_always_fire_in_time_order(delays):
    """Whatever the insertion order, execution is time-sorted, and ties
    fire in scheduling order."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule_after(delay, fired.append, ((delay, index),))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)  # (time, insertion index) lexicographic


@given(
    delays=st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=1, max_size=100),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=100),
)
@settings(max_examples=60, deadline=None)
def test_cancellation_is_exact(delays, cancel_mask):
    """Exactly the non-cancelled events fire — no more, no fewer."""
    sim = Simulator()
    fired = []
    tokens = [
        sim.schedule_after(delay, fired.append, (i,))
        for i, delay in enumerate(delays)
    ]
    cancelled = set()
    for i, (token, cancel) in enumerate(zip(tokens, cancel_mask)):
        if cancel:
            sim.cancel(token)
            cancelled.add(i)
    sim.run()
    assert set(fired) == set(range(len(delays))) - cancelled


@given(
    stops=st.lists(st.integers(min_value=0, max_value=10**6),
                   min_size=1, max_size=20)
)
@settings(max_examples=60, deadline=None)
def test_run_until_tiles_the_timeline(stops):
    """Sliced runs visit exactly the events an unsliced run visits, in
    the same order, and time never goes backward."""
    boundaries = sorted(set(stops))
    delays = list(range(0, 10**6, 37_001))

    def run_sliced():
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule_after(delay, fired.append, (delay,))
        last = 0
        for boundary in boundaries:
            sim.run(until=boundary)
            assert sim.now >= last
            last = sim.now
        sim.run()
        return fired

    def run_straight():
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule_after(delay, fired.append, (delay,))
        sim.run()
        return fired

    assert run_sliced() == run_straight()
