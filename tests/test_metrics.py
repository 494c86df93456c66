import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_CHAIN, make_header, make_profile
from evmon.metrics import (
    EmptySeries,
    Series,
    ZeroLimit,
    block_usage_sample,
    downsample,
    gas_price_sample,
    summarize,
)
from evmon.model import MetricKind, MetricSample
from evmon.normalize import normalize_header

finite_values = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def numpy_quartiles(values):
    """Independent oracle: numpy's linear-interpolation quantiles."""
    arr = np.asarray(values, dtype=float)
    return (
        float(np.quantile(arr, 0.25, method="linear")),
        float(np.quantile(arr, 0.5, method="linear")),
        float(np.quantile(arr, 0.75, method="linear")),
    )


def summary_quartiles(values):
    """(q1, median, q3) as summarize computes them."""
    stats = summarize(values)
    return stats.q1, stats.median, stats.q3


def test_quartiles_singleton():
    assert summary_quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_quartiles_hand_evaluated_five_values():
    # h(p) = (n-1)p + 1 over [1..5]: h(.25)=2, h(.5)=3, h(.75)=4 -> exact order stats
    q1, median, q3 = summary_quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (2.0, 3.0, 4.0)
    assert q3 - q1 == 2.0


def test_quartiles_even_count_median_is_middle_mean():
    _, median, _ = summary_quartiles([1.0, 2.0, 3.0, 4.0])
    assert median == 2.5


def test_quartiles_match_numpy_oracle_on_random_series():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 1000)
        values = [rng.uniform(0, 1000) for _ in range(n)]
        mine = summary_quartiles(values)
        theirs = numpy_quartiles(values)
        for a, b in zip(mine, theirs):
            assert abs(a - b) <= 1e-12


def test_quartiles_empty_raises():
    with pytest.raises(EmptySeries):
        summarize([])


@given(finite_values)
def test_quartiles_match_numpy_oracle(values):
    mine = summary_quartiles(values)
    theirs = numpy_quartiles(values)
    for a, b in zip(mine, theirs):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@given(finite_values)
def test_statistics_permutation_invariant(values):
    shuffled = list(values)
    random.Random(1).shuffle(shuffled)
    assert summarize(values) == summarize(shuffled)


@given(finite_values, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_statistics_scale_equivariant(values, c):
    base = summarize(values)
    scaled = summarize([c * v for v in values])
    assert math.isclose(scaled.median, c * base.median, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(scaled.iqr, c * base.iqr, rel_tol=1e-9, abs_tol=1e-9)


@given(finite_values)
def test_summary_ordering_invariant(values):
    stats = summarize(values)
    assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max
    assert stats.iqr >= 0
    assert (stats.iqr == 0) == (stats.q1 == stats.q3)


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), st.integers(1, 500))
def test_constant_series_has_zero_iqr(value, n):
    stats = summarize([value] * n)
    assert stats.median == value
    assert stats.iqr == 0.0


def test_gas_price_sample_in_gwei():
    profile = make_profile()
    record = normalize_header(make_header(base_fee_wei=10**7, priority_fee_wei=None), profile)
    assert gas_price_sample(record).value == 0.01
    record = normalize_header(make_header(base_fee_wei=0), profile)
    assert gas_price_sample(record).value == 0.0
    record = normalize_header(make_header(base_fee_wei=1_645_000_000), profile)
    assert gas_price_sample(record).value == 1.645


def test_block_usage_sample_ratio():
    profile = make_profile()
    record = normalize_header(make_header(gas_used=15_000_000, gas_limit=30_000_000), profile)
    assert block_usage_sample(record).value == 0.5
    record = normalize_header(make_header(gas_used=0), profile)
    assert block_usage_sample(record).value == 0.0


def test_block_usage_sample_against_override_limit():
    from evmon.model import GasQuantity

    profile = make_profile(limit_override=GasQuantity(32_000_000))
    record = normalize_header(
        make_header(gas_used=640_000, gas_limit=1_125_000_000), profile
    )
    assert block_usage_sample(record).value == 0.02


def test_summarize_even_count():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats.median == 2.5
    assert stats.min == 1.0
    assert stats.max == 4.0


def test_quartiles_match_numpy_on_long_series():
    rng = random.Random(77)
    values = [rng.uniform(0, 1000) for _ in range(10_000)]
    for a, b in zip(summary_quartiles(values), numpy_quartiles(values)):
        assert abs(a - b) <= 1e-12


def test_block_usage_sample_zero_limit_rejected():
    profile = make_profile()
    record = normalize_header(make_header(gas_used=0, gas_limit=0), profile)
    with pytest.raises(ZeroLimit):
        block_usage_sample(record)


def _sample(ts, value, number=None):
    return MetricSample(
        chain=TEST_CHAIN,
        block_number=ts if number is None else number,
        timestamp=ts,
        kind=MetricKind.GAS_PRICE_GWEI,
        value=value,
    )


def test_downsample_means_one_bucket():
    points = downsample([_sample(0, 1.0), _sample(30, 3.0)], 60)
    assert points == [type(points[0])(start=0, mean=2.0, count=2)]


def test_downsample_single_sample():
    points = downsample([_sample(95, 4.5)], 60)
    assert len(points) == 1
    assert points[0].start == 60
    assert points[0].mean == 4.5
    assert points[0].count == 1


def test_downsample_conserves_counts_and_bounds():
    rng = random.Random(5)
    samples = [_sample(i * 7, rng.uniform(0, 10), number=i) for i in range(10_000)]
    points = downsample(samples, 300)
    assert sum(p.count for p in points) == len(samples)
    by_bucket = {}
    for s in samples:
        by_bucket.setdefault((s.timestamp // 300) * 300, []).append(s.value)
    for p in points:
        assert min(by_bucket[p.start]) <= p.mean <= max(by_bucket[p.start])


def test_downsample_rejects_bad_bucket():
    with pytest.raises(ValueError):
        downsample([_sample(0, 1.0)], 0)


def test_series_rejects_mixed_kinds():
    a = _sample(0, 1.0, number=0)
    b = MetricSample(TEST_CHAIN, 1, 1, MetricKind.BLOCK_USAGE_RATIO, 0.5)
    with pytest.raises(ValueError, match="single chain and kind"):
        Series.from_samples([a, b])


def test_series_rejects_unordered_blocks():
    with pytest.raises(ValueError, match="strictly increase"):
        Series.from_samples([_sample(0, 1.0, number=5), _sample(1, 1.0, number=5)])
