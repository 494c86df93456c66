"""Shared domain types for the monitoring pipeline.

The values built for every block (GasQuantity, FeeQuantity,
RawBlockHeader, NormalizedBlockRecord, MetricSample) are slotted
dataclasses, not frozen ones: a frozen dataclass sets each field through
object.__setattr__, which costs more than the rest of its construction.
They are not hashable. Nothing assigns to them after construction, and
none crosses threads: each is built and consumed in the one thread that
runs its chain.

A value is checked once, when it is built. GasQuantity and FeeQuantity
refuse a negative amount and MetricSample a negative or non-finite
value, each in its own __init__, so building one is a single Python
call. RawBlockHeader checks nothing itself: ingest's decoder and the
record decoders check what they read (gas_used <= gas_limit included)
before they build one. NetworkProfile and SummaryStats check their
fields after construction, in __post_init__.

ChainRef is a NamedTuple, so hashing it, per dict lookup by chain, runs
in C. Every other dataclass here is frozen.
Fee amounts are integer wei internally; gwei is a display/export unit
only, so exact arithmetic never touches floats.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple
from urllib.parse import urlsplit

WEI_PER_GWEI = 10**9


class InvalidProfile(ValueError):
    """A NetworkProfile failed validation."""


class ChainRef(NamedTuple):
    """One monitored network: a short name plus its EVM chain id.

    Every record carries its chain, and the line writers key a dict by
    it. As a NamedTuple it hashes and compares in C, as the tuple
    (name, chain_id) does, and equals that plain tuple. Its hash is not
    stored, so a pickle loaded in another process hashes it anew.
    """

    name: str
    chain_id: int


@dataclass(slots=True, init=False)
class GasQuantity:
    """An amount of gas units."""

    value: int

    def __init__(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"gas quantity must be non-negative, got {value}")
        self.value = value


@dataclass(slots=True, init=False)
class FeeQuantity:
    """A per-gas fee in integer wei."""

    value_wei: int

    def __init__(self, value_wei: int) -> None:
        if value_wei < 0:
            raise ValueError(f"fee must be non-negative wei, got {value_wei}")
        self.value_wei = value_wei

    @property
    def gwei(self) -> float:
        """Display value in gwei: exact for whole gwei, and within 1 wei of
        value_wei when scaled back by WEI_PER_GWEI and rounded."""
        return self.value_wei / WEI_PER_GWEI


class PriorityPolicy(Enum):
    """Whether the priority fee counts toward the effective gas price.

    EXCLUDE models chains that refund the priority fee and charge only the
    base fee.
    """

    INCLUDE = "include"
    EXCLUDE = "exclude"


class Flag(Enum):
    """Policy and anomaly markers attached to normalized block records."""

    LIMIT_OVERRIDDEN = "limit_overridden"
    PRIORITY_EXCLUDED = "priority_excluded"
    BASE_FEE_DEVIATION = "base_fee_deviation"
    USAGE_EXCEEDS_EFFECTIVE_LIMIT = "usage_exceeds_effective_limit"


def _is_http_endpoint(url: str) -> bool:
    # http.client refuses whitespace and control characters, and urlsplit
    # drops tab, CR and LF, which would connect to another host
    if re.search(r"[\s\x00-\x1f\x7f]", url):
        return False
    try:
        parts = urlsplit(url)
        parts.port  # noqa: B018 - raises ValueError for a port that is not a number
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def chain_problem(chain: ChainRef) -> str | None:
    """Why chain cannot name a network, or None: its name must be a
    nonempty ASCII identifier (it names the chain's output directory) and
    its chain id positive."""
    if not isinstance(chain.name, str) or not re.fullmatch(r"[A-Za-z0-9_\-]+", chain.name):
        return f"chain name must be a nonempty ASCII identifier ([A-Za-z0-9_-]), got {chain.name!r}"
    if chain.chain_id <= 0:
        return f"{chain.name}: chain_id must be positive, got {chain.chain_id}"
    return None


@dataclass(frozen=True)
class NetworkProfile:
    """Per-chain configuration encoding that chain's reporting semantics.

    limit_override None trusts the block gas limit the node reports. A cap
    is meant for chains that advertise inflated limits: the effective
    limit is min(reported, override), so an honestly reported lower limit
    is never inflated upward.

    Every instance is valid, one made by dataclasses.replace included:
    construction raises InvalidProfile for an empty or non-ASCII chain
    name, a non-positive chain id or poll interval, a zero override limit,
    a negative base-fee tolerance, or an endpoint that is not an http or
    https URL naming a host (with a numeric port, if any) and free of
    whitespace and control characters.
    """

    chain: ChainRef
    rpc_url: str
    poll_interval_ms: int = 1000
    limit_override: GasQuantity | None = None
    priority_policy: PriorityPolicy = PriorityPolicy.INCLUDE
    constant_base_fee_expected: bool = False
    base_fee_tolerance_wei: int = 0

    def __post_init__(self) -> None:
        chain = self.chain
        if (problem := chain_problem(chain)) is not None:
            raise InvalidProfile(problem)
        if not _is_http_endpoint(self.rpc_url):
            raise InvalidProfile(f"{chain.name}: malformed endpoint {self.rpc_url!r}; "
                                 "expected http:// or https:// and a host")
        if self.poll_interval_ms <= 0:
            raise InvalidProfile(
                f"{chain.name}: poll_interval_ms must be positive, got {self.poll_interval_ms}"
            )
        if self.limit_override is not None and self.limit_override.value <= 0:
            raise InvalidProfile(f"{chain.name}: override effective limit must be > 0 gas")
        if self.base_fee_tolerance_wei < 0:
            raise InvalidProfile(
                f"{chain.name}: base_fee_tolerance_wei must be non-negative, "
                f"got {self.base_fee_tolerance_wei}"
            )


@dataclass(slots=True)
class RawBlockHeader:
    """A block header as reported by a node's RPC.

    priority_fee_observed is a block-level priority-fee estimate; None when
    the source does not sample one. gas_used <= gas_limit is enforced at
    ingest, not here, so a violating response surfaces as an ingest error
    instead of a constructor crash deep in a pipeline thread.
    """

    chain: ChainRef
    number: int
    timestamp: int
    gas_used: GasQuantity
    gas_limit: GasQuantity
    base_fee_per_gas: FeeQuantity
    priority_fee_observed: FeeQuantity | None = None


@dataclass(slots=True)
class NormalizedBlockRecord:
    """A header after normalization: comparable effective limit and price.

    header is kept exactly as reported, so every anomaly stays visible
    beside the effective values and the flags that explain them.
    """

    header: RawBlockHeader
    effective_gas_limit: GasQuantity
    effective_gas_price: FeeQuantity
    flags: frozenset[Flag]


class MetricKind(Enum):
    """The two per-block metrics. Members hash by identity, in C: the
    sample writer looks one up per sample, and Enum's own __hash__ is a
    Python call."""

    GAS_PRICE_GWEI = "gas_price_gwei"
    BLOCK_USAGE_RATIO = "block_usage_ratio"

    __hash__ = object.__hash__


@dataclass(slots=True, init=False)
class MetricSample:
    """The unit flowing through the metric pipelines: one value per block."""

    chain: ChainRef
    block_number: int
    timestamp: int
    kind: MetricKind
    value: float

    def __init__(self, chain: ChainRef, block_number: int, timestamp: int, kind: MetricKind,
                 value: float) -> None:
        if not 0 <= value < math.inf:  # NaN fails every comparison
            raise ValueError(f"metric value must be finite and >= 0, got {value}")
        self.chain = chain
        self.block_number = block_number
        self.timestamp = timestamp
        self.kind = kind
        self.value = value


@dataclass(frozen=True)
class SummaryStats:
    """Robust summary of a value window: median, quartiles, IQR, extremes."""

    count: int
    median: float
    q1: float
    q3: float
    iqr: float
    min: float
    max: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("SummaryStats needs at least one value")
        if not (self.min <= self.q1 <= self.median <= self.q3 <= self.max):
            raise ValueError(
                f"quartile ordering violated: min={self.min} q1={self.q1} "
                f"median={self.median} q3={self.q3} max={self.max}"
            )
        if self.iqr != self.q3 - self.q1 or self.iqr < 0:
            raise ValueError(f"iqr must equal q3 - q1 >= 0, got {self.iqr}")
