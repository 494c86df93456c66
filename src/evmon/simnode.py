"""Deterministic mock EVM node for hermetic end-to-end runs.

Generates per-chain synthetic block ledgers from seeded scenarios and
hands them to ingest in process through LedgerRpcClient, round-tripping
each block through the JSON-RPC block object the ingest module decodes
(bit-exact field names, 0x-hex quantities). evmon.simserver serves the
same ledgers over HTTP; this module loads no HTTP code. A virtual clock
gates which blocks are visible, so a 12-hour scenario replays in
milliseconds while real-clock mode exercises actual poll timing.

Determinism contract: identical (seed, parameters) yield byte-identical
ledgers on any platform. The generator path is integer-only, driven by a
xorshift64* PRNG with the recurrence

    x ^= x >> 12;  x ^= (x << 25) & 2**64-1;  x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) mod 2**64

Per block, draws happen in a fixed order: gas_used first, then the
priority-fee estimate when a priority model is configured.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Protocol

from evmon.ingest import BlockNotFound, decode_block_fields
from evmon.model import ChainRef, FeeQuantity, GasQuantity, RawBlockHeader, chain_problem

_MASK64 = 2**64 - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_SEED_FALLBACK = 0x9E3779B97F4A7C15  # xorshift state must never be zero


class InvalidScenario(ValueError):
    """Scenario parameters violate their invariants."""


class Xorshift64Star:
    """The fixed 64-bit PRNG from the module docstring; portable by design."""

    def __init__(self, seed: int) -> None:
        self._state = (seed & _MASK64) or _SEED_FALLBACK

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _MULTIPLIER) & _MASK64

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is immaterial for jitter."""
        if n <= 0:
            raise ValueError(f"below() needs n > 0, got {n}")
        return self.next_u64() % n


@dataclass(frozen=True)
class ConstantBaseFee:
    base_fee_wei: int

    def __post_init__(self) -> None:
        if self.base_fee_wei < 0:
            raise InvalidScenario(f"base_fee_wei must be non-negative, got {self.base_fee_wei}")


@dataclass(frozen=True)
class AdaptiveBaseFee:
    """Standard EVM-style fee-market update (see next_base_fee)."""

    initial_wei: int
    min_wei: int = 0
    adjust_denominator: int = 8
    target_ratio: float = 0.5

    def __post_init__(self) -> None:
        if (self.initial_wei < 0 or self.min_wei < 0 or self.adjust_denominator <= 0
                or not 0.0 < self.target_ratio <= 1.0):
            raise InvalidScenario(f"bad adaptive regime {self}")


Regime = ConstantBaseFee | AdaptiveBaseFee


@dataclass(frozen=True)
class UsageModel:
    """gas_used distribution: uniform jitter around mean_ratio * limit."""

    mean_ratio: float
    jitter_ratio: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_ratio <= 1.0 or not 0.0 <= self.jitter_ratio < math.inf:
            raise InvalidScenario(
                f"usage model needs mean_ratio in [0,1] and finite jitter_ratio >= 0, got {self}")


@dataclass(frozen=True)
class PriorityFeeModel:
    """Block-level priority-fee estimate: uniform jitter around mean_wei."""

    mean_wei: int
    jitter_wei: int = 0

    def __post_init__(self) -> None:
        if self.mean_wei < 0 or self.jitter_wei < 0:
            raise InvalidScenario(f"priority model needs non-negative wei, got {self}")


@dataclass(frozen=True)
class Scenario:
    """Every instance is valid, one made by dataclasses.replace included:
    construction raises InvalidScenario for a value out of range (its
    chain by NetworkProfile's rule), as each part does for its own."""

    chain: ChainRef
    seed: int
    block_count: int
    block_interval_s: int
    regime: Regime
    usage_model: UsageModel
    reported_limit: GasQuantity
    priority_model: PriorityFeeModel | None = None
    start_time_s: int = 1_700_000_000

    def __post_init__(self) -> None:
        if (problem := chain_problem(self.chain)) is not None:
            raise InvalidScenario(problem)
        if self.block_count <= 0:
            raise InvalidScenario(f"block_count must be positive, got {self.block_count}")
        if self.block_interval_s <= 0:
            raise InvalidScenario(f"block_interval_s must be positive, got {self.block_interval_s}")
        if self.start_time_s < 0:
            raise InvalidScenario(f"start_time_s must be non-negative, got {self.start_time_s}")
        if isinstance(self.regime, AdaptiveBaseFee) and self.reported_limit.value <= 0:
            raise InvalidScenario("an adaptive regime needs a positive reported_limit")


def next_base_fee(current_wei: int, gas_used: int, effective_limit: int, regime: Regime) -> int:
    """Base fee for the next block under the regime.

    Constant regime returns its configured fee unchanged. The adaptive rule
    is next = max(min_wei, round(current * (1 + (used/(target_ratio*limit)
    - 1) / denominator))), evaluated in exact integer arithmetic with the
    rounding tie broken upward: with T = round(target_ratio * limit),

        next = (current * (used + T*(denominator-1)) + T*denominator // 2)
               // (T * denominator)

    Usage exactly at target is a fixed point.
    """
    if isinstance(regime, ConstantBaseFee):
        return regime.base_fee_wei
    if effective_limit <= 0:
        raise ValueError("adaptive fee update needs a positive limit")
    target = max(1, round(effective_limit * regime.target_ratio))
    denom = target * regime.adjust_denominator
    numer = current_wei * (gas_used + target * (regime.adjust_denominator - 1))
    return max(regime.min_wei, (numer + denom // 2) // denom)


def generate_scenario(scenario: Scenario) -> list[RawBlockHeader]:
    """Materialize the scenario's full block ledger, deterministically.

    Block numbers run 0..block_count-1 with timestamps start_time_s +
    n * block_interval_s; the base fee follows the regime, updated from
    each block's gas_used; gas_used never exceeds reported_limit.
    """
    usage = scenario.usage_model
    limit = scenario.reported_limit.value
    # single float->int conversions; the per-block path below is integer-only
    mean_gas = round(limit * usage.mean_ratio)
    span_gas = round(limit * usage.jitter_ratio)
    rng = Xorshift64Star(scenario.seed)

    if isinstance(scenario.regime, ConstantBaseFee):
        base_fee = scenario.regime.base_fee_wei
    else:
        base_fee = scenario.regime.initial_wei

    ledger = []
    prev_used: int | None = None
    for n in range(scenario.block_count):
        if n > 0:
            assert prev_used is not None
            base_fee = next_base_fee(base_fee, prev_used, limit, scenario.regime)
        gas_used = mean_gas - span_gas + rng.below(2 * span_gas + 1)
        gas_used = min(max(gas_used, 0), limit)
        priority = None
        if scenario.priority_model is not None:
            pm = scenario.priority_model
            tip = pm.mean_wei - pm.jitter_wei + rng.below(2 * pm.jitter_wei + 1)
            priority = FeeQuantity(max(tip, 0))
        ledger.append(
            RawBlockHeader(
                chain=scenario.chain,
                number=n,
                timestamp=scenario.start_time_s + n * scenario.block_interval_s,
                gas_used=GasQuantity(gas_used),
                gas_limit=scenario.reported_limit,
                base_fee_per_gas=FeeQuantity(base_fee),
                priority_fee_observed=priority,
            )
        )
        prev_used = gas_used
    return ledger


def encode_header_wire(header: RawBlockHeader) -> dict[str, str]:
    """The JSON-RPC block object for a header, all quantities 0x-hex.

    Each quantity is formatted as encode_quantity formats it, and a
    negative number or timestamp is refused as it refuses one (gas and fee
    amounts cannot be negative). priorityFeeObserved is a non-standard
    extension field real nodes omit; ingest reads it only when present.
    """
    number, timestamp = header.number, header.timestamp
    if number < 0 or timestamp < 0:
        raise ValueError(f"quantities are non-negative, got number {number}, "
                         f"timestamp {timestamp}")
    obj = {
        "number": f"{number:#x}",
        "timestamp": f"{timestamp:#x}",
        "gasUsed": f"{header.gas_used.value:#x}",
        "gasLimit": f"{header.gas_limit.value:#x}",
        "baseFeePerGas": f"{header.base_fee_per_gas.value_wei:#x}",
    }
    if header.priority_fee_observed is not None:
        obj["priorityFeeObserved"] = f"{header.priority_fee_observed.value_wei:#x}"
    return obj


class Clock(Protocol):
    def now(self) -> float: ...


class ManualClock:
    """A clock tests advance explicitly."""

    def __init__(self, start: float) -> None:
        self._now = start
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._now  # one attribute read needs no lock

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


class ScaledClock:
    """Virtual time advancing at rate x real time from a fixed start."""

    def __init__(self, start: float, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._start = start
        self._rate = rate
        self._t0 = time.monotonic()

    def now(self) -> float:
        return self._start + (time.monotonic() - self._t0) * self._rate


class _Ledger:
    """Immutable ledger plus clock-gated head lookup.

    Block n is headers[n], so the headers must be numbered 0, 1, 2, ...,
    and their timestamps must not decrease from one block to the next
    (construction raises ValueError otherwise), as a generated scenario's
    never do: the head is then found by bisecting the timestamps, and a
    block is visible exactly when its own timestamp has passed.
    """

    def __init__(self, headers: list[RawBlockHeader], clock: Clock) -> None:
        if not headers:
            raise ValueError("ledger must contain at least one block")
        timestamps = [header.timestamp for header in headers]
        for number, header in enumerate(headers):
            if header.number != number:
                raise ValueError(f"ledger block {number} is numbered {header.number}")
            if number and timestamps[number] < timestamps[number - 1]:
                raise ValueError(f"ledger timestamps decrease at block {number}: "
                                 f"{timestamps[number - 1]} then {timestamps[number]}")
        self.headers = headers
        self.clock = clock
        self._timestamps = timestamps
        self._count = len(headers)

    def head_number(self) -> int:
        """Highest block whose timestamp <= the clock; genesis is always
        visible (a node has its genesis from the start)."""
        return max(bisect.bisect_right(self._timestamps, self.clock.now()) - 1, 0)

    def block_at(self, number: int) -> RawBlockHeader | None:
        """Block number if it is at or below the head, else None."""
        if number == 0 or (0 < number < self._count
                           and self._timestamps[number] <= self.clock.now()):
            return self.headers[number]
        return None


class LedgerRpcClient:
    """In-process BlockSource over a ledger, round-tripping the wire codec.

    Every fetch goes through encode_header_wire -> decode_block_fields so
    the hex path is exercised exactly as over HTTP, without the sockets.
    """

    def __init__(self, headers: list[RawBlockHeader], clock: Clock, chain: ChainRef) -> None:
        self._ledger = _Ledger(headers, clock)
        self._chain = chain

    def head_number(self) -> int:
        return self._ledger.head_number()

    def fetch_block(self, number: int) -> RawBlockHeader:
        header = self._ledger.block_at(number)
        if header is None:
            raise BlockNotFound(f"{self._chain.name}: block {number} not found")
        return decode_block_fields(self._chain, encode_header_wire(header))


def _int_field(obj: dict[str, Any], key: str, default: int | None = None) -> int:
    """obj[key] (or default when absent), which must be a JSON integer; a
    bool, a fraction or a string is an InvalidScenario, as in load_config."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidScenario(f"{key} must be an integer, got {value!r}")
    return value


def _ratio_field(obj: dict[str, Any], key: str, default: float | None = None) -> float:
    """obj[key] (or default when absent), which must be a JSON number; a
    bool or a string is an InvalidScenario."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidScenario(f"{key} must be a number, got {value!r}")
    return float(value)


def scenario_from_dict(obj: dict[str, Any]) -> Scenario:
    try:
        regime_obj = obj["regime"]
        if regime_obj["type"] == "constant":
            regime: Regime = ConstantBaseFee(base_fee_wei=_int_field(regime_obj, "base_fee_wei"))
        elif regime_obj["type"] == "adaptive":
            regime = AdaptiveBaseFee(
                initial_wei=_int_field(regime_obj, "initial_wei"),
                min_wei=_int_field(regime_obj, "min_wei", 0),
                adjust_denominator=_int_field(regime_obj, "adjust_denominator", 8),
                target_ratio=_ratio_field(regime_obj, "target_ratio", 0.5),
            )
        else:
            raise InvalidScenario(f"unknown regime type {regime_obj['type']!r}")
        chain_obj, priority_obj = obj["chain"], obj.get("priority")
        return Scenario(
            chain=ChainRef(name=chain_obj["name"], chain_id=_int_field(chain_obj, "chain_id")),
            seed=_int_field(obj, "seed"),
            block_count=_int_field(obj, "block_count"),
            block_interval_s=_int_field(obj, "block_interval_s"),
            regime=regime,
            usage_model=UsageModel(
                mean_ratio=_ratio_field(obj["usage"], "mean_ratio"),
                jitter_ratio=_ratio_field(obj["usage"], "jitter_ratio", 0.0),
            ),
            reported_limit=GasQuantity(_int_field(obj, "reported_limit")),
            priority_model=None
            if priority_obj is None
            else PriorityFeeModel(
                mean_wei=_int_field(priority_obj, "mean_wei"),
                jitter_wei=_int_field(priority_obj, "jitter_wei", 0),
            ),
            start_time_s=_int_field(obj, "start_time_s", 1_700_000_000),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidScenario):
            raise
        raise InvalidScenario(f"bad scenario object: {exc}") from exc
