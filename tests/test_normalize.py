import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_CHAIN, make_header, make_profile
from evmon.model import (
    ChainRef,
    FeeQuantity,
    Flag,
    GasQuantity,
    OverrideLimit,
    PriorityPolicy,
)
from evmon.normalize import (
    Normalizer,
    ProfileMismatch,
    effective_gas_limit,
    effective_gas_price,
    normalize_header,
)


def test_reported_policy_keeps_limit_without_flags():
    limit, flags = effective_gas_limit(make_header(gas_limit=30_000_000), make_profile())
    assert limit.value == 30_000_000
    assert flags == frozenset()


def test_override_policy_caps_inflated_limit():
    profile = make_profile(limit_policy=OverrideLimit(GasQuantity(32_000_000)))
    header = make_header(gas_used=640_000, gas_limit=1_125_000_000)
    limit, flags = effective_gas_limit(header, profile)
    assert limit.value == 32_000_000
    assert flags == frozenset({Flag.LIMIT_OVERRIDDEN})


def test_override_never_inflates_honest_limit():
    profile = make_profile(limit_policy=OverrideLimit(GasQuantity(32_000_000)))
    header = make_header(gas_used=1_000_000, gas_limit=30_000_000)
    limit, _ = effective_gas_limit(header, profile)
    assert limit.value == 30_000_000


def test_usage_above_effective_limit_is_flagged_not_clamped():
    profile = make_profile(limit_policy=OverrideLimit(GasQuantity(32_000_000)))
    header = make_header(gas_used=40_000_000, gas_limit=1_125_000_000)
    limit, flags = effective_gas_limit(header, profile)
    assert limit.value == 32_000_000
    assert Flag.USAGE_EXCEEDS_EFFECTIVE_LIMIT in flags


def test_exclude_policy_charges_base_fee_only():
    profile = make_profile(priority_policy=PriorityPolicy.EXCLUDE)
    header = make_header(base_fee_wei=10**7, priority_fee_wei=2 * 10**9)
    price, flags = effective_gas_price(header, profile)
    assert price.value_wei == 10**7
    assert flags == frozenset({Flag.PRIORITY_EXCLUDED})


def test_include_policy_sums_fees():
    header = make_header(base_fee_wei=10 * 10**9, priority_fee_wei=2 * 10**9)
    price, flags = effective_gas_price(header, make_profile())
    assert price.value_wei == 12 * 10**9
    assert flags == frozenset()


def test_include_policy_treats_absent_priority_as_zero():
    price, _ = effective_gas_price(make_header(base_fee_wei=5, priority_fee_wei=None),
                                   make_profile())
    assert price.value_wei == 5


def test_base_fee_deviation_flagged_against_first_seen():
    profile = make_profile(constant_base_fee_expected=True)
    first = FeeQuantity(7 * 10**9)
    _, flags = effective_gas_price(make_header(base_fee_wei=7 * 10**9), profile, first)
    assert Flag.BASE_FEE_DEVIATION not in flags
    _, flags = effective_gas_price(make_header(base_fee_wei=8 * 10**9), profile, first)
    assert Flag.BASE_FEE_DEVIATION in flags


def test_base_fee_deviation_respects_tolerance():
    profile = make_profile(constant_base_fee_expected=True, base_fee_tolerance_wei=10**9)
    first = FeeQuantity(7 * 10**9)
    _, flags = effective_gas_price(make_header(base_fee_wei=8 * 10**9), profile, first)
    assert Flag.BASE_FEE_DEVIATION not in flags


def test_normalize_pass_through_configuration():
    header = make_header(priority_fee_wei=2 * 10**9)
    record = normalize_header(header, make_profile())
    assert record.effective_gas_limit == header.gas_limit
    assert record.effective_gas_price.value_wei == (
        header.base_fee_per_gas.value_wei + 2 * 10**9
    )
    assert record.flags == frozenset()


def test_normalize_rollup_configuration_sets_both_flags():
    profile = make_profile(
        limit_policy=OverrideLimit(GasQuantity(32_000_000)),
        priority_policy=PriorityPolicy.EXCLUDE,
    )
    record = normalize_header(make_header(gas_limit=1_125_000_000), profile)
    assert Flag.LIMIT_OVERRIDDEN in record.flags
    assert Flag.PRIORITY_EXCLUDED in record.flags


def test_normalize_rejects_profile_for_other_chain():
    profile = make_profile(chain=ChainRef("other", 10))
    with pytest.raises(ProfileMismatch):
        normalize_header(make_header(chain=TEST_CHAIN), profile)


def test_normalizer_uses_first_seen_base_fee():
    normalizer = Normalizer(make_profile(constant_base_fee_expected=True))
    first = normalizer.normalize(make_header(number=0, base_fee_wei=7 * 10**9))
    assert Flag.BASE_FEE_DEVIATION not in first.flags
    second = normalizer.normalize(make_header(number=1, base_fee_wei=8 * 10**9))
    assert Flag.BASE_FEE_DEVIATION in second.flags
    # back at the reference: no deviation
    third = normalizer.normalize(make_header(number=2, base_fee_wei=7 * 10**9))
    assert Flag.BASE_FEE_DEVIATION not in third.flags


@given(
    base=st.integers(min_value=0, max_value=10**12),
    tips=st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=10**12)), min_size=2,
                  max_size=10),
)
def test_exclude_price_independent_of_priority(base, tips):
    profile = make_profile(priority_policy=PriorityPolicy.EXCLUDE)
    prices = set()
    for tip in tips:
        header = make_header(base_fee_wei=base, priority_fee_wei=tip)
        price, _ = effective_gas_price(header, profile)
        prices.add(price.value_wei)
    assert prices == {base}


@given(
    reported=st.integers(min_value=0, max_value=10**10),
    override=st.integers(min_value=1, max_value=10**10),
)
def test_effective_limit_never_exceeds_reported(reported, override):
    profile = make_profile(limit_policy=OverrideLimit(GasQuantity(override)))
    header = make_header(gas_used=0, gas_limit=reported)
    limit, _ = effective_gas_limit(header, profile)
    assert limit.value <= reported


@given(used=st.integers(min_value=0, max_value=30_000_000))
def test_reported_policy_keeps_ratio_in_unit_interval(used):
    header = make_header(gas_used=used, gas_limit=30_000_000)
    record = normalize_header(header, make_profile())
    assert 0 <= record.header.gas_used.value / record.effective_gas_limit.value <= 1


def test_flags_present_iff_policies_active():
    plain = normalize_header(make_header(), make_profile())
    assert Flag.LIMIT_OVERRIDDEN not in plain.flags
    assert Flag.PRIORITY_EXCLUDED not in plain.flags
    rollup = normalize_header(
        make_header(gas_limit=10_000_000),
        make_profile(
            limit_policy=OverrideLimit(GasQuantity(32_000_000)),
            priority_policy=PriorityPolicy.EXCLUDE,
        ),
    )
    # flag marks the active policy even when min(reported, override) = reported
    assert Flag.LIMIT_OVERRIDDEN in rollup.flags
    assert Flag.PRIORITY_EXCLUDED in rollup.flags
