"""Per-block metrics and robust summary statistics.

Two metrics are computed from normalized block records: the effective gas
price in gwei and the used-block-capacity ratio. Statistics are exact
(sort-based, no sketches); window volumes at desk scale do not need
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from evmon.model import (
    ChainRef,
    MetricKind,
    MetricSample,
    NormalizedBlockRecord,
    SummaryStats,
)


class EmptySeries(ValueError):
    """Statistics were requested over zero values."""


class ZeroLimit(ValueError):
    """Block usage ratio is undefined when the effective gas limit is 0."""


def gas_price_sample(record: NormalizedBlockRecord) -> MetricSample:
    """Effective gas price of the block, in gwei."""
    header = record.header
    return MetricSample(header.chain, header.number, header.timestamp,
                        MetricKind.GAS_PRICE_GWEI, record.effective_gas_price.gwei)


def block_usage_sample(record: NormalizedBlockRecord) -> MetricSample:
    """Fraction of the effective block capacity used by transactions.

    Exceeds 1 when gas_used is above an overridden effective limit; the
    value is never clamped (the record carries the flag instead).
    """
    header = record.header
    if record.effective_gas_limit.value == 0:
        raise ZeroLimit(f"block {header.number} of {header.chain.name} has effective limit 0")
    return MetricSample(header.chain, header.number, header.timestamp,
                        MetricKind.BLOCK_USAGE_RATIO,
                        header.gas_used.value / record.effective_gas_limit.value)


def _quantile_sorted(data: Sequence[float], p: float) -> float:
    """Quantile at fraction p of ascending data, by linear interpolation.

    With 1-based ranks, the quantile sits at rank h = (n - 1) * p + 1 and
    interpolates linearly between the order statistics at floor(h) and
    ceil(h). The result is clamped to that bracket so sub-ulp rounding can
    never break quartile ordering.
    """
    n = len(data)
    h = (n - 1) * p + 1
    k = math.floor(h)
    lo = data[k - 1]
    if k >= n:
        return lo
    frac = h - k
    if frac == 0.0:
        return lo
    hi = data[k]
    return min(max(lo + frac * (hi - lo), lo), hi)


def summarize(values: Sequence[float]) -> SummaryStats:
    """Median, quartiles, IQR and extremes over the values."""
    if not values:
        raise EmptySeries("summarize of an empty sequence")
    data = sorted(values)
    q1 = _quantile_sorted(data, 0.25)
    median = _quantile_sorted(data, 0.5)
    q3 = _quantile_sorted(data, 0.75)
    return SummaryStats(
        count=len(data),
        median=median,
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        min=data[0],
        max=data[-1],
    )


def summarize_samples(samples: Sequence[MetricSample]) -> SummaryStats:
    return summarize([s.value for s in samples])


@dataclass(frozen=True)
class BucketPoint:
    """One downsampled time bucket: start second, mean value, sample count."""

    start: int
    mean: float
    count: int


def downsample(samples: Iterable[MetricSample], bucket_s: int) -> list[BucketPoint]:
    """Tumbling time buckets of width bucket_s with arithmetic-mean values.

    Bucket start = floor(timestamp / bucket_s) * bucket_s. Empty buckets are
    omitted; the counts sum to the input length. The mean is clamped into
    the bucket's [min, max] to guard against float-summation drift.
    """
    if bucket_s <= 0:
        raise ValueError(f"bucket width must be positive, got {bucket_s}")
    buckets: dict[int, list[float]] = {}
    for sample in samples:
        start = (sample.timestamp // bucket_s) * bucket_s
        buckets.setdefault(start, []).append(sample.value)
    out = []
    for start in sorted(buckets):
        vals = buckets[start]
        mean = min(max(math.fsum(vals) / len(vals), min(vals)), max(vals))
        out.append(BucketPoint(start=start, mean=mean, count=len(vals)))
    return out


@dataclass(frozen=True)
class Series:
    """An ordered metric series for a single (chain, kind)."""

    chain: ChainRef
    kind: MetricKind
    samples: tuple[MetricSample, ...]

    @classmethod
    def from_samples(cls, samples: Sequence[MetricSample]) -> Series:
        """Validate and wrap samples; they must share one chain and kind,
        with non-decreasing timestamps and strictly increasing block numbers.
        """
        if not samples:
            raise EmptySeries("a series needs at least one sample")
        chain = samples[0].chain
        kind = samples[0].kind
        for prev, cur in zip(samples, samples[1:]):
            if cur.chain != chain or cur.kind != kind:
                raise ValueError(
                    "series mixes chains or metric kinds: "
                    f"({chain.name}, {kind.value}) vs ({cur.chain.name}, {cur.kind.value}); "
                    "stats and plots require a single chain and kind"
                )
            if cur.timestamp < prev.timestamp:
                raise ValueError(f"timestamps regress at block {cur.block_number}")
            if cur.block_number <= prev.block_number:
                raise ValueError(f"block numbers must strictly increase at {cur.block_number}")
        return cls(chain=chain, kind=kind, samples=tuple(samples))

    def values(self) -> list[float]:
        return [s.value for s in self.samples]
