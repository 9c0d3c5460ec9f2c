"""Tests for the symbol universe."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.symbols import Symbol, SymbolUniverse, make_universe


def test_deterministic_given_seed():
    a = make_universe(50, seed=3)
    b = make_universe(50, seed=3)
    assert a.names == b.names
    assert [s.base_price for s in a.symbols] == [s.base_price for s in b.symbols]


def test_unique_ticker_names():
    universe = make_universe(800, seed=1)
    assert len(set(universe.names)) == 800


def test_zipf_activity_skew():
    """The top name dominates, as Figure 2(b)'s single stock does."""
    universe = make_universe(100, seed=2)
    weights = sorted((s.activity_weight for s in universe.symbols), reverse=True)
    assert weights[0] > 10 * weights[50]
    top = universe.most_active(1)[0]
    assert top.activity_weight == max(weights)


def test_weighted_sampling_prefers_active_names():
    universe = make_universe(50, seed=4)
    rng = np.random.default_rng(0)
    draws = universe.sample(rng, 5_000)
    top_name = universe.most_active(1)[0].name
    top_share = sum(1 for s in draws if s.name == top_name) / len(draws)
    assert top_share > 0.1  # far above the uniform 2%


def test_instrument_type_mix():
    universe = make_universe(400, seed=5, etf_fraction=0.25)
    etfs = sum(1 for s in universe.symbols if s.instrument_type == "etf")
    assert 0.15 < etfs / 400 < 0.35
    assert universe.instrument_type_of(universe.names[0]) in (
        "equity", "etf", "option",
    )


def test_prices_cent_aligned_and_in_range():
    universe = make_universe(200, seed=6)
    for symbol in universe.symbols:
        assert symbol.base_price % 100 == 0  # PITCH short-price safe
        assert 5 * 10_000 <= symbol.base_price <= 500 * 10_000


def test_lookup_and_containment():
    universe = make_universe(10, seed=7)
    name = universe.names[3]
    assert name in universe
    assert universe[name].name == name
    assert "NOPE" not in universe
    assert len(universe) == 10


def test_validation():
    with pytest.raises(ValueError):
        make_universe(0)
    with pytest.raises(ValueError):
        make_universe(5, etf_fraction=0.7, option_fraction=0.5)
    with pytest.raises(ValueError):
        SymbolUniverse([])
    duplicate = Symbol("AA", "equity", 100, 1.0)
    with pytest.raises(ValueError):
        SymbolUniverse([duplicate, duplicate])
    with pytest.raises(ValueError):
        Symbol("AA", "bond", 100, 1.0)
    with pytest.raises(ValueError):
        Symbol("AA", "equity", 0, 1.0)


# -- sample() vs Generator.choice: the draws the golden digests rest on ------


def _assert_draws_match_choice(universe, seed, n, calls):
    """sample(rng, n) == rng.choice(len, size=n, p=probs), index for index,
    from twin generators — and both end in the same state."""
    weights = np.array([s.activity_weight for s in universe.symbols], dtype=float)
    probs = weights / weights.sum()
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        drawn = universe.sample(ours, n)
        expected = numpys.choice(len(universe), size=n, p=probs)
        assert drawn == [universe.symbols[i] for i in expected]
    assert ours.random() == numpys.random()


@pytest.mark.parametrize("n", [1, 7])
def test_sample_reproduces_generator_choice(n):
    """The precomputed CDF must stay what NumPy's choice(p=...) builds per
    call; a NumPy release that changes choice fails here, not in a digest."""
    universe = make_universe(24, seed=3)
    _assert_draws_match_choice(universe, seed=11, n=n, calls=10_000 // n + 1)


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.sampled_from([1, 7]),
)
def test_sample_reproduces_generator_choice_for_any_weights(weights, seed, n):
    universe = SymbolUniverse(
        [Symbol(f"S{i}", "equity", 10_000, w) for i, w in enumerate(weights)]
    )
    _assert_draws_match_choice(universe, seed, n, calls=30)
