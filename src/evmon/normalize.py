"""Maps chain-specific reporting semantics onto comparable effective values.

EVM rollups reuse the same operational parameters with different meanings:
some advertise inflated block gas limits (Arbitrum-style, to absorb parent
chain cost swings; Linea-style, to hold the base fee constant), and some
refund the priority fee so only the base fee is ever paid. The operator
here applies a per-chain policy so gas limits and gas prices from
different networks actually compare.

Out-of-range values are flagged, never clamped: a monitoring pipeline must
expose misconfiguration, not mask it.
"""

from __future__ import annotations

from evmon.model import (
    FeeQuantity,
    Flag,
    GasQuantity,
    NormalizedBlockRecord,
    OverrideLimit,
    PriorityPolicy,
    RawBlockHeader,
    ReportedLimit,
    ValidatedProfile,
)


class ProfileMismatch(ValueError):
    """A header was normalized against a profile for a different chain."""


def effective_gas_limit(
    header: RawBlockHeader, profile: ValidatedProfile
) -> tuple[GasQuantity, frozenset[Flag]]:
    """Effective block capacity under the profile's limit policy.

    Reported policy keeps the reported limit. Override policy takes
    min(reported, override) and marks the record LimitOverridden. When
    gas_used exceeds the effective limit the record is additionally marked
    UsageExceedsEffectiveLimit; the value itself is never clamped.
    """
    flags = set()
    policy = profile.limit_policy
    if isinstance(policy, ReportedLimit):
        effective = header.gas_limit
    elif isinstance(policy, OverrideLimit):
        effective = GasQuantity(min(header.gas_limit.value, policy.effective_limit.value))
        flags.add(Flag.LIMIT_OVERRIDDEN)
    else:
        raise TypeError(f"unknown limit policy {policy!r}")
    if header.gas_used.value > effective.value:
        flags.add(Flag.USAGE_EXCEEDS_EFFECTIVE_LIMIT)
    return effective, frozenset(flags)


def effective_gas_price(
    header: RawBlockHeader,
    profile: ValidatedProfile,
    first_seen_base_fee: FeeQuantity | None = None,
) -> tuple[FeeQuantity, frozenset[Flag]]:
    """Effective per-gas price under the profile's priority policy.

    Include sums base fee and the observed priority fee (0 when absent);
    Exclude charges the base fee alone and marks PriorityExcluded. When the
    profile expects a constant base fee, a deviation from
    first_seen_base_fee beyond the tolerance marks BaseFeeDeviation;
    passing None uses the header's own base fee as the reference, so the
    first block of a run never deviates.
    """
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


def normalize_header(
    header: RawBlockHeader,
    profile: ValidatedProfile,
    first_seen_base_fee: FeeQuantity | None = None,
) -> NormalizedBlockRecord:
    """Compose the limit and price normalizations into one record.

    Pure function of (header, profile, first_seen_base_fee); the Normalizer
    class supplies the per-chain reference for streaming use.
    """
    if header.chain != profile.chain:
        raise ProfileMismatch(
            f"header for {header.chain.name} normalized with profile for {profile.chain.name}"
        )
    limit, limit_flags = effective_gas_limit(header, profile)
    price, price_flags = effective_gas_price(header, profile, first_seen_base_fee)
    return NormalizedBlockRecord(
        header=header,
        effective_gas_limit=limit,
        effective_gas_price=price,
        flags=limit_flags | price_flags,
    )


class Normalizer:
    """Streaming wrapper holding one chain's first-seen base fee reference.

    The reference is established by the first header of the run (not
    configured), so fixture scenarios need no magic constants. Confine an
    instance to a single pipeline thread.
    """

    def __init__(self, profile: ValidatedProfile) -> None:
        self.profile = profile
        self._first_base_fee: FeeQuantity | None = None

    def normalize(self, header: RawBlockHeader) -> NormalizedBlockRecord:
        if self._first_base_fee is None:
            self._first_base_fee = header.base_fee_per_gas
        return normalize_header(header, self.profile, self._first_base_fee)
