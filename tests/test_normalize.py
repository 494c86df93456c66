import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_CHAIN, make_header, make_profile
from evmon.model import (
    ChainRef,
    FeeQuantity,
    Flag,
    GasQuantity,
    NormalizedBlockRecord,
    PriorityPolicy,
)
from evmon.records import header_line, normalized_line
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
    profile = make_profile(limit_override=GasQuantity(32_000_000))
    header = make_header(gas_used=640_000, gas_limit=1_125_000_000)
    limit, flags = effective_gas_limit(header, profile)
    assert limit.value == 32_000_000
    assert flags == frozenset({Flag.LIMIT_OVERRIDDEN})


def test_override_never_inflates_honest_limit():
    profile = make_profile(limit_override=GasQuantity(32_000_000))
    header = make_header(gas_used=1_000_000, gas_limit=30_000_000)
    limit, _ = effective_gas_limit(header, profile)
    assert limit.value == 30_000_000


def test_usage_above_effective_limit_is_flagged_not_clamped():
    profile = make_profile(limit_override=GasQuantity(32_000_000))
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
        limit_override=GasQuantity(32_000_000),
        priority_policy=PriorityPolicy.EXCLUDE,
    )
    record = normalize_header(make_header(gas_limit=1_125_000_000), profile)
    assert Flag.LIMIT_OVERRIDDEN in record.flags
    assert Flag.PRIORITY_EXCLUDED in record.flags


def test_normalize_rejects_profile_for_other_chain():
    profile = make_profile(chain=ChainRef("other", 10))
    with pytest.raises(ProfileMismatch,
                       match=r"testnet \(chain_id 777\).*other \(chain_id 10\)"):
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


def test_a_rejected_header_sets_no_base_fee_reference():
    """A header of another chain, rejected with ProfileMismatch, does not
    become the reference: the chain's first real header does."""
    normalizer = Normalizer(make_profile(constant_base_fee_expected=True))
    with pytest.raises(ProfileMismatch):
        normalizer.normalize(make_header(chain=ChainRef("other", 10), base_fee_wei=5))
    first = normalizer.normalize(make_header(number=0, base_fee_wei=10 * 10**9))
    assert Flag.BASE_FEE_DEVIATION not in first.flags
    second = normalizer.normalize(make_header(number=1, base_fee_wei=11 * 10**9))
    assert Flag.BASE_FEE_DEVIATION in second.flags


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
    profile = make_profile(limit_override=GasQuantity(override))
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
            limit_override=GasQuantity(32_000_000),
            priority_policy=PriorityPolicy.EXCLUDE,
        ),
    )
    # flag marks the active policy even when min(reported, override) = reported
    assert Flag.LIMIT_OVERRIDDEN in rollup.flags
    assert Flag.PRIORITY_EXCLUDED in rollup.flags


# --- the set-building implementation, kept as the reference ------------------


def reference_effective_gas_limit(header, profile):
    flags = set()
    cap = profile.limit_override
    if cap is None:
        effective = header.gas_limit
    else:
        effective = GasQuantity(min(header.gas_limit.value, cap.value))
        flags.add(Flag.LIMIT_OVERRIDDEN)
    if header.gas_used.value > effective.value:
        flags.add(Flag.USAGE_EXCEEDS_EFFECTIVE_LIMIT)
    return effective, frozenset(flags)


def reference_effective_gas_price(header, profile, first_seen_base_fee=None):
    flags = set()
    base = header.base_fee_per_gas
    if profile.priority_policy is PriorityPolicy.EXCLUDE:
        price = base
        flags.add(Flag.PRIORITY_EXCLUDED)
    else:
        tip = header.priority_fee_observed.value_wei if header.priority_fee_observed else 0
        price = FeeQuantity(base.value_wei + tip)
    if profile.constant_base_fee_expected:
        reference = first_seen_base_fee if first_seen_base_fee is not None else base
        if abs(base.value_wei - reference.value_wei) > profile.base_fee_tolerance_wei:
            flags.add(Flag.BASE_FEE_DEVIATION)
    return price, frozenset(flags)


def reference_normalize_header(header, profile, first_seen_base_fee=None):
    limit, limit_flags = reference_effective_gas_limit(header, profile)
    price, price_flags = reference_effective_gas_price(header, profile, first_seen_base_fee)
    return NormalizedBlockRecord(header=header, effective_gas_limit=limit,
                                 effective_gas_price=price, flags=limit_flags | price_flags)


@st.composite
def policy_cases(draw):
    """A header, a profile and a first-seen base fee, over every policy
    combination: the override cap below, at and above the reported limit,
    include and exclude, a tip that is None, 0 or positive, and a constant
    base fee with a tolerance."""
    limit = draw(st.integers(min_value=1, max_value=10**10))
    used = draw(st.integers(min_value=0, max_value=limit))
    base = draw(st.integers(min_value=0, max_value=10**12))
    tip = draw(st.one_of(st.none(), st.just(0), st.integers(min_value=1, max_value=10**12)))
    header = make_header(gas_used=used, gas_limit=limit, base_fee_wei=base, priority_fee_wei=tip)
    cap = draw(st.one_of(
        st.none(),
        st.just(limit),
        st.integers(min_value=1, max_value=limit),
        st.integers(min_value=limit, max_value=2 * limit),
    ))
    profile = make_profile(
        limit_override=None if cap is None else GasQuantity(cap),
        priority_policy=draw(st.sampled_from(PriorityPolicy)),
        constant_base_fee_expected=draw(st.booleans()),
        base_fee_tolerance_wei=draw(st.integers(min_value=0, max_value=10**6)),
    )
    first = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=10**12).map(FeeQuantity),
                           st.integers(min_value=-10**6, max_value=10**6).map(
                               lambda d: FeeQuantity(max(base + d, 0)))))
    return header, profile, first


def line_of(record):
    return normalized_line(record, header_line(record.header))


@given(policy_cases())
def test_normalize_matches_the_set_building_reference(case):
    header, profile, first = case
    assert effective_gas_limit(header, profile) == reference_effective_gas_limit(header, profile)
    assert (effective_gas_price(header, profile, first)
            == reference_effective_gas_price(header, profile, first))
    record = normalize_header(header, profile, first)
    expected = reference_normalize_header(header, profile, first)
    assert record == expected
    assert line_of(record) == line_of(expected)


@given(st.lists(policy_cases(), min_size=1, max_size=5))
def test_normalizer_matches_the_reference_over_a_stream(cases):
    _, profile, _ = cases[0]
    normalizer = Normalizer(profile)
    first = cases[0][0].base_fee_per_gas
    for header, _, _ in cases:
        record = normalizer.normalize(header)
        assert line_of(record) == line_of(reference_normalize_header(header, profile, first))
