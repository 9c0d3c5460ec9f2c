"""Property tests for the reliable channel under arbitrary loss."""

from hypothesis import given, settings, strategies as st

from repro.net.addressing import EndpointAddress
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.reliable import connect
from repro.sim.kernel import MICROSECOND, Simulator


@given(
    n_messages=st.integers(min_value=1, max_value=40),
    loss_prob=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**31),
    spacing_us=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=50, deadline=None)
def test_in_order_exactly_once_under_any_loss(
    n_messages, loss_prob, seed, spacing_us
):
    """The true invariant under bounded retries: whatever arrives is an
    in-order, duplicate-free prefix; it is the *complete* stream exactly
    when no message exhausted its retries (possible at extreme loss)."""
    sim = Simulator(seed=seed)
    nic_a = Nic(sim, "a", EndpointAddress("a", "o"))
    nic_b = Nic(sim, "b", EndpointAddress("b", "o"))
    link = Link(
        sim, "l", nic_a, nic_b,
        propagation_delay_ns=5_000, loss_prob=loss_prob,
        queue_limit_bytes=10**9,
    )
    nic_a.attach(link)
    nic_b.attach(link)
    got = []
    a, b = connect(
        sim, nic_a, nic_b, on_message_b=got.append, rto_ns=100 * MICROSECOND
    )
    for i in range(n_messages):
        sim.schedule_at(i * spacing_us * 1_000, lambda i=i: a.send(i))
    sim.run_until_idle(max_events=5_000_000)
    # In-order, exactly-once prefix — always.
    assert got == list(range(len(got)))
    assert b.stats.delivered == len(got)
    # Completeness exactly when nothing was abandoned.
    if a.stats.failures == 0:
        assert got == list(range(n_messages))
    else:
        assert loss_prob > 0.0  # abandonment requires an actual lossy link
    assert a.in_flight == 0  # the sender always drains


@given(
    burst=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_burst_sends_preserve_order_losslessly(burst, seed):
    """Back-to-back sends (no pacing) arrive in order on a clean link."""
    sim = Simulator(seed=seed)
    nic_a = Nic(sim, "a", EndpointAddress("a", "o"))
    nic_b = Nic(sim, "b", EndpointAddress("b", "o"))
    link = Link(sim, "l", nic_a, nic_b, queue_limit_bytes=10**9)
    nic_a.attach(link)
    nic_b.attach(link)
    got = []
    a, b = connect(sim, nic_a, nic_b, on_message_b=got.append)
    for i in range(burst):
        a.send(i)
    sim.run_until_idle()
    assert got == list(range(burst))
    assert a.stats.retransmits == 0
