"""Shared builders for the test suite."""

from __future__ import annotations

import faulthandler

import pytest

from evmon.model import (
    ChainRef,
    FeeQuantity,
    GasQuantity,
    NetworkProfile,
    PriorityPolicy,
    RawBlockHeader,
)
from evmon.simnode import (
    AdaptiveBaseFee,
    ConstantBaseFee,
    PriorityFeeModel,
    Scenario,
    UsageModel,
)

TEST_CHAIN = ChainRef(name="testnet", chain_id=777)

HANG_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def hang_guard():
    """No consumer blocks on the log, but tests still start threads and
    wait on events and joins, so a hang would stall the suite: dump every
    thread's stack and exit instead."""
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def make_profile(
    chain: ChainRef = TEST_CHAIN,
    limit_override: GasQuantity | None = None,
    priority_policy: PriorityPolicy = PriorityPolicy.INCLUDE,
    constant_base_fee_expected: bool = False,
    base_fee_tolerance_wei: int = 0,
    poll_interval_ms: int = 1,
) -> NetworkProfile:
    return NetworkProfile(
        chain=chain,
        rpc_url="http://127.0.0.1:0",
        poll_interval_ms=poll_interval_ms,
        limit_override=limit_override,
        priority_policy=priority_policy,
        constant_base_fee_expected=constant_base_fee_expected,
        base_fee_tolerance_wei=base_fee_tolerance_wei,
    )


def make_header(
    number: int = 0,
    timestamp: int = 1_700_000_000,
    gas_used: int = 15_000_000,
    gas_limit: int = 30_000_000,
    base_fee_wei: int = 10 * 10**9,
    priority_fee_wei: int | None = None,
    chain: ChainRef = TEST_CHAIN,
) -> RawBlockHeader:
    return RawBlockHeader(
        chain=chain,
        number=number,
        timestamp=timestamp,
        gas_used=GasQuantity(gas_used),
        gas_limit=GasQuantity(gas_limit),
        base_fee_per_gas=FeeQuantity(base_fee_wei),
        priority_fee_observed=None if priority_fee_wei is None else FeeQuantity(priority_fee_wei),
    )


def constant_fee_scenario(
    chain: ChainRef = ChainRef(name="arbitrum_like", chain_id=42161),
    seed: int = 42,
    block_count: int = 1000,
    block_interval_s: int = 1,
    base_fee_wei: int = 10**7,
    with_priority: bool = True,
) -> Scenario:
    """A rollup-style scenario: constant base fee, light usage."""
    return Scenario(
        chain=chain,
        seed=seed,
        block_count=block_count,
        block_interval_s=block_interval_s,
        regime=ConstantBaseFee(base_fee_wei=base_fee_wei),
        usage_model=UsageModel(mean_ratio=0.02, jitter_ratio=0.015),
        reported_limit=GasQuantity(1_125_000_000),
        priority_model=PriorityFeeModel(mean_wei=2 * 10**9, jitter_wei=10**9)
        if with_priority
        else None,
    )


def adaptive_fee_scenario(
    chain: ChainRef = ChainRef(name="ethereum_like", chain_id=1),
    seed: int = 7,
    block_count: int = 1000,
    block_interval_s: int = 12,
    initial_wei: int = 10 * 10**9,
    jitter_ratio: float = 0.35,
) -> Scenario:
    """A mainnet-style scenario: fee-market base fee, volatile usage."""
    return Scenario(
        chain=chain,
        seed=seed,
        block_count=block_count,
        block_interval_s=block_interval_s,
        regime=AdaptiveBaseFee(initial_wei=initial_wei, min_wei=10**6),
        usage_model=UsageModel(mean_ratio=0.5, jitter_ratio=jitter_ratio),
        reported_limit=GasQuantity(30_000_000),
        priority_model=PriorityFeeModel(mean_wei=2 * 10**9, jitter_wei=15 * 10**8),
    )
