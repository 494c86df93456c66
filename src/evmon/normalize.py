"""Maps chain-specific reporting semantics onto comparable effective values.

EVM rollups reuse the same operational parameters with different meanings:
some advertise inflated block gas limits (Arbitrum-style, to absorb parent
chain cost swings; Linea-style, to hold the base fee constant), and some
refund the priority fee so only the base fee is ever paid. The operator
here applies a per-chain policy so gas limits and gas prices from
different networks actually compare.

Out-of-range values are flagged, never clamped: a monitoring pipeline must
expose misconfiguration, not mask it.

Normalization allocates only what a record needs new: the record itself
and, when a tip is added, its price. Flag sets are module constants, and
an effective value equal to the reported limit, the override cap or the
base fee is that very object.
"""

from __future__ import annotations

from evmon.model import (
    FeeQuantity,
    Flag,
    GasQuantity,
    NetworkProfile,
    NormalizedBlockRecord,
    PriorityPolicy,
    RawBlockHeader,
)


class ProfileMismatch(ValueError):
    """A header was normalized against a profile for a different chain."""


# Every flag set a record can carry, built once: each record gets one of
# these objects, so normalization builds no set and hashes no flag.
_NO_FLAGS: frozenset[Flag] = frozenset()
_OVERRIDDEN = frozenset({Flag.LIMIT_OVERRIDDEN})
_EXCEEDS = frozenset({Flag.USAGE_EXCEEDS_EFFECTIVE_LIMIT})
_OVERRIDDEN_EXCEEDS = _OVERRIDDEN | _EXCEEDS
_EXCLUDED = frozenset({Flag.PRIORITY_EXCLUDED})
_DEVIATION = frozenset({Flag.BASE_FEE_DEVIATION})
_EXCLUDED_DEVIATION = _EXCLUDED | _DEVIATION
_UNIONS = {
    (limit_flags, price_flags): limit_flags | price_flags
    for limit_flags in (_NO_FLAGS, _OVERRIDDEN, _EXCEEDS, _OVERRIDDEN_EXCEEDS)
    for price_flags in (_NO_FLAGS, _EXCLUDED, _DEVIATION, _EXCLUDED_DEVIATION)
}


def effective_gas_limit(
    header: RawBlockHeader, profile: NetworkProfile
) -> tuple[GasQuantity, frozenset[Flag]]:
    """Effective block capacity under the profile's limit override.

    Without an override the reported limit stands. With one, the limit is
    min(reported, override) and the record is marked LimitOverridden. When
    gas_used exceeds the effective limit the record is additionally marked
    UsageExceedsEffectiveLimit; the value itself is never clamped. The
    limit returned is the header's own or the override's, never a copy.
    """
    cap = profile.limit_override
    if cap is None:
        effective, flags, exceeded = header.gas_limit, _NO_FLAGS, _EXCEEDS
    else:
        effective = header.gas_limit if header.gas_limit.value <= cap.value else cap
        flags, exceeded = _OVERRIDDEN, _OVERRIDDEN_EXCEEDS
    return effective, exceeded if header.gas_used.value > effective.value else flags


def effective_gas_price(
    header: RawBlockHeader,
    profile: NetworkProfile,
    first_seen_base_fee: FeeQuantity | None = None,
) -> tuple[FeeQuantity, frozenset[Flag]]:
    """Effective per-gas price under the profile's priority policy.

    Include sums base fee and the observed priority fee (0 when absent);
    Exclude charges the base fee alone and marks PriorityExcluded. When the
    profile expects a constant base fee, a deviation from
    first_seen_base_fee beyond the tolerance marks BaseFeeDeviation;
    passing None uses the header's own base fee as the reference, so the
    first block of a run never deviates. A price equal to the base fee is
    the header's own base fee object.
    """
    base = header.base_fee_per_gas
    if profile.priority_policy is PriorityPolicy.EXCLUDE:
        price, flags, deviated = base, _EXCLUDED, _EXCLUDED_DEVIATION
    else:
        tip = header.priority_fee_observed
        if tip is None or tip.value_wei == 0:
            price = base
        else:
            price = FeeQuantity(base.value_wei + tip.value_wei)
        flags, deviated = _NO_FLAGS, _DEVIATION
    if profile.constant_base_fee_expected:
        reference = first_seen_base_fee if first_seen_base_fee is not None else base
        if abs(base.value_wei - reference.value_wei) > profile.base_fee_tolerance_wei:
            flags = deviated
    return price, flags


def normalize_header(
    header: RawBlockHeader,
    profile: NetworkProfile,
    first_seen_base_fee: FeeQuantity | None = None,
) -> NormalizedBlockRecord:
    """Compose the limit and price normalizations into one record.

    Pure function of (header, profile, first_seen_base_fee); the Normalizer
    class supplies the per-chain reference for streaming use.
    """
    if header.chain is not profile.chain and header.chain != profile.chain:
        raise ProfileMismatch(
            f"header for {header.chain.name} (chain_id {header.chain.chain_id}) normalized "
            f"with profile for {profile.chain.name} (chain_id {profile.chain.chain_id})"
        )
    limit, limit_flags = effective_gas_limit(header, profile)
    price, price_flags = effective_gas_price(header, profile, first_seen_base_fee)
    return NormalizedBlockRecord(header, limit, price, _UNIONS[limit_flags, price_flags])


class Normalizer:
    """Streaming wrapper holding one chain's first-seen base fee reference.

    The reference is established by the first header of the run that
    normalizes (not configured), so fixture scenarios need no magic
    constants; a header rejected with ProfileMismatch sets nothing. Confine
    an instance to a single pipeline thread.
    """

    def __init__(self, profile: NetworkProfile) -> None:
        self.profile = profile
        self._first_base_fee: FeeQuantity | None = None

    def normalize(self, header: RawBlockHeader) -> NormalizedBlockRecord:
        record = normalize_header(header, self.profile, self._first_base_fee)
        if self._first_base_fee is None:
            self._first_base_fee = header.base_fee_per_gas
        return record
