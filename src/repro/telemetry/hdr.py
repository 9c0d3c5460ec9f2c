"""Mergeable log-linear (HDR-style) histograms for tail latency.

The paper's design comparisons live in the tail (§4.2/§4.3: merge
backlog, burst trade-offs), and tails cannot be summarized by averaging
per-shard percentiles — "the mean of the p99s" is not a p99. The
standard fix, used by every production latency pipeline (HdrHistogram,
Prometheus native histograms, Perfetto), is a **mergeable** histogram:
fixed bucket boundaries shared by every instance, so two histograms add
bucket-wise into exactly the histogram the pooled population would have
produced.

:class:`LogLinearHistogram` uses the log-linear layout:

* values below ``2**sub_bucket_bits`` land in unit-width buckets —
  **exact** (the linear region);
* above that, each power-of-two major bucket is split into
  ``2**(sub_bucket_bits - 1)`` equal-width sub-buckets, so the bucket
  width never exceeds ``2**(1 - sub_bucket_bits)`` of the value.

Percentiles are answered with the mid-point of the selected bucket,
giving a guaranteed **relative error ≤ 2**-sub_bucket_bits** (0.78% at
the default 7 bits) against the nearest-rank percentile of the raw
population — the bound ``tests/test_telemetry_hdr.py`` proves against a
sorted-sample oracle. ``count``/``total``/``min``/``max`` are exact at
any width, and :meth:`merge` is lossless: merged percentiles equal the
percentiles of the pooled samples to within the same bound.

``record`` is O(1) and allocation-free — one ``int.bit_length`` call,
a few integer ops, and a list increment — so the histogram can back the
hot-path :class:`~repro.telemetry.metrics.Histogram` instrument without
violating the protect-the-hot-path rules.
"""

from __future__ import annotations

import math

#: Default sub-bucket resolution: 7 bits ⇒ relative error ≤ 1/128.
DEFAULT_SUB_BUCKET_BITS = 7

#: Values are clamped into 64 bits; anything larger saturates into the
#: top bucket (count/total/min/max stay exact regardless).
_MAX_VALUE_BITS = 64


class LogLinearHistogram:
    """A mergeable integer histogram with bounded-relative-error quantiles.

    Bucket boundaries are a pure function of ``sub_bucket_bits``, so any
    two histograms built with the same resolution merge losslessly. All
    recorded values are non-negative integers (negative values clamp to
    bucket zero; ``min`` still records the true value).
    """

    __slots__ = (
        "sub_bucket_bits",
        "count",
        "total",
        "min",
        "max",
        "_counts",
        "_sub_count",
        "_sub_half",
    )

    def __init__(self, sub_bucket_bits: int = DEFAULT_SUB_BUCKET_BITS):
        if not 1 <= sub_bucket_bits <= 16:
            raise ValueError("sub_bucket_bits must be in [1, 16]")
        self.sub_bucket_bits = int(sub_bucket_bits)
        self._sub_count = 1 << self.sub_bucket_bits
        self._sub_half = self._sub_count >> 1
        n_majors = _MAX_VALUE_BITS - self.sub_bucket_bits
        self._counts = [0] * (self._sub_count + n_majors * self._sub_half)
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    # -- resolution ---------------------------------------------------------

    @property
    def relative_error_bound(self) -> float:
        """Guaranteed bound on ``|percentile - oracle| / oracle``."""
        return 2.0 ** -self.sub_bucket_bits

    # -- recording ----------------------------------------------------------

    def record(self, value: int, n: int = 1) -> None:
        """Count ``value`` (``n`` times); O(1), allocation-free."""
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value < self._sub_count:
            index = value if value > 0 else 0
        else:
            k = value.bit_length()
            if k > _MAX_VALUE_BITS:
                index = len(self._counts) - 1
            else:
                sub_bits = self.sub_bucket_bits
                index = self._sub_count + (
                    (k - sub_bits - 1) * self._sub_half
                ) + ((value >> (k - sub_bits)) - self._sub_half)
        self._counts[index] += n

    def record_many(self, values) -> None:
        for value in values:
            self.record(value)

    # -- bucket geometry ----------------------------------------------------

    def bucket_bounds(self, index: int) -> tuple[int, int]:
        """Half-open value range ``[low, high)`` of bucket ``index``."""
        if index < self._sub_count:
            return index, index + 1
        j = index - self._sub_count
        major, sub = divmod(j, self._sub_half)
        shift = major + 1
        low = (self._sub_half + sub) << shift
        return low, low + (1 << shift)

    def _representative(self, index: int) -> int:
        low, high = self.bucket_bounds(index)
        return low + ((high - low) >> 1) if high - low > 1 else low

    def nonzero_buckets(self) -> list[tuple[int, int]]:
        """``(index, count)`` for every non-empty bucket, ascending."""
        return [(i, c) for i, c in enumerate(self._counts) if c]

    # -- queries ------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int:
        """Nearest-rank percentile, ``q`` in ``[0, 1]``.

        Exact in the linear region and at the extremes (``q=0`` returns
        ``min``, ``q=1`` returns ``max``); elsewhere the bucket midpoint,
        within :attr:`relative_error_bound` of the true ranked sample.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            raise ValueError("cannot take a percentile of an empty histogram")
        target = math.ceil(q * self.count)
        if target <= 1:
            return self.min  # type: ignore[return-value]
        if target >= self.count:
            return self.max  # type: ignore[return-value]
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= target:
                value = self._representative(index)
                # Clamp into the observed range: representatives of the
                # extreme buckets cannot leave [min, max].
                if value < self.min:  # type: ignore[operator]
                    return self.min  # type: ignore[return-value]
                if value > self.max:  # type: ignore[operator]
                    return self.max  # type: ignore[return-value]
                return value
        raise AssertionError("unreachable: count is positive")

    # -- merging ------------------------------------------------------------

    def merge(self, other: "LogLinearHistogram") -> "LogLinearHistogram":
        """Add ``other``'s population into this histogram, losslessly.

        Requires identical ``sub_bucket_bits`` (same bucket boundaries).
        Returns ``self`` so merges chain.
        """
        if other.sub_bucket_bits != self.sub_bucket_bits:
            raise ValueError(
                f"cannot merge histograms with different resolutions "
                f"({self.sub_bucket_bits} vs {other.sub_bucket_bits} bits)"
            )
        counts = self._counts
        for index, bucket_count in enumerate(other._counts):
            if bucket_count:
                counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def merged(cls, histograms) -> "LogLinearHistogram":
        """A fresh histogram holding the union of ``histograms``."""
        histograms = list(histograms)
        out = cls(
            histograms[0].sub_bucket_bits if histograms
            else DEFAULT_SUB_BUCKET_BITS
        )
        for histogram in histograms:
            out.merge(histogram)
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic plain-dict form: sparse buckets, ascending index.

        Two histograms holding the same population serialize to the same
        document; :meth:`from_dict` round-trips it bit-exactly.
        """
        return {
            "sub_bucket_bits": self.sub_bucket_bits,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": [[i, c] for i, c in enumerate(self._counts) if c],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "LogLinearHistogram":
        out = cls(sub_bucket_bits=raw["sub_bucket_bits"])
        for index, bucket_count in raw["buckets"]:
            out._counts[index] = int(bucket_count)
        out.count = int(raw["count"])
        out.total = int(raw["total"])
        out.min = None if raw["min"] is None else int(raw["min"])
        out.max = None if raw["max"] is None else int(raw["max"])
        return out
