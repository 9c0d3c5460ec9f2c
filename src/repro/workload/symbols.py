"""Symbol universes with realistic activity skew.

Trading activity is heavily skewed: a handful of tickers dominate message
volume (Figure 2(b) is a *single stock* producing 1.5M events in its
busiest second). We model activity weights as Zipf-distributed and tag
each symbol with an instrument type so partitioning schemes have
something to partition on.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

INSTRUMENT_TYPES = ("equity", "etf", "option")


@dataclass(frozen=True, slots=True)
class Symbol:
    """One listed instrument."""

    name: str
    instrument_type: str
    base_price: int  # hundredths of a cent
    activity_weight: float

    def __post_init__(self) -> None:
        if self.instrument_type not in INSTRUMENT_TYPES:
            raise ValueError(f"unknown instrument type {self.instrument_type!r}")
        if self.base_price <= 0 or self.activity_weight <= 0:
            raise ValueError("base price and weight must be positive")


def _ticker_names() -> "itertools.chain[str]":
    """AA, AB, ... ZZ, AAA, AAB, ... — deterministic ticker generator."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    two = ("".join(p) for p in itertools.product(letters, repeat=2))
    three = ("".join(p) for p in itertools.product(letters, repeat=3))
    four = ("".join(p) for p in itertools.product(letters, repeat=4))
    return itertools.chain(two, three, four)


class SymbolUniverse:
    """A fixed set of symbols with sampling helpers."""

    def __init__(self, symbols: list[Symbol]):
        if not symbols:
            raise ValueError("universe must contain at least one symbol")
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names in universe")
        self.symbols = list(symbols)
        self._by_name = {s.name: s for s in symbols}
        weights = np.array([s.activity_weight for s in symbols], dtype=float)
        # The activity CDF, built once exactly as Generator.choice(p=...)
        # builds it per call; sample() inverts it.
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._cdf: list[float] = cdf.tolist()

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Symbol:
        return self._by_name[name]

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.symbols]

    def instrument_type_of(self, name: str) -> str:
        return self._by_name[name].instrument_type

    def sample(self, rng: np.random.Generator, n: int = 1) -> list[Symbol]:
        """Draw ``n`` symbols weighted by activity (with replacement).

        Inverse-CDF sampling over ``n`` uniforms: index for index the
        draws of ``rng.choice(len(self), size=n, p=probs)``, which
        consumes the same doubles from ``rng``, without re-validating
        and re-accumulating the constant weight vector on every call.
        """
        symbols = self.symbols
        cdf = self._cdf
        return [symbols[bisect_right(cdf, u)] for u in rng.random(n).tolist()]

    def most_active(self, n: int = 1) -> list[Symbol]:
        return sorted(self.symbols, key=lambda s: -s.activity_weight)[:n]


def make_universe(
    n_symbols: int,
    seed: int = 0,
    zipf_exponent: float = 1.1,
    etf_fraction: float = 0.15,
    option_fraction: float = 0.0,
) -> SymbolUniverse:
    """Build a deterministic universe of ``n_symbols``.

    Activity weights follow rank^-zipf_exponent, so the top name carries
    a disproportionate share of events — matching the single-stock
    dominance visible in Figure 2(b).
    """
    if n_symbols < 1:
        raise ValueError("need at least one symbol")
    if etf_fraction + option_fraction > 1.0:
        raise ValueError("type fractions exceed 1.0")
    rng = np.random.default_rng(seed)
    names = [name for name, _ in zip(_ticker_names(), range(n_symbols))]
    symbols = []
    for rank, name in enumerate(names, start=1):
        draw = rng.random()
        if draw < option_fraction:
            itype = "option"
        elif draw < option_fraction + etf_fraction:
            itype = "etf"
        else:
            itype = "equity"
        # $5..$500, cent-aligned, in 1/100-cent units (PITCH short-price safe).
        base_price = int(rng.uniform(5, 500) * 100) * 100
        weight = rank ** (-zipf_exponent)
        symbols.append(Symbol(name, itype, base_price, weight))
    return SymbolUniverse(symbols)
