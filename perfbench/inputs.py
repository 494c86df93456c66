"""Benchmark inputs: seeded two-chain ledgers and the run configuration.

The two scenarios are those of scripts/make_fixture.py (an Arbitrum-like
rollup with 1 s blocks and a constant base fee, an Ethereum-like chain with
12 s blocks and an adaptive base fee). Only their generator seeds change:
each is derived from the benchmark's --seed, so one seed always gives the
same ledgers. Ledgers are written as recorded raw-header JSONL with the
benchmark's own encoder, so the checker never relies on evmon.records.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

WINDOW_S = 300
TOPIC_RETENTION = 100_000
POLL_INTERVAL_MS = 10

NETWORKS: list[dict[str, Any]] = [
    {
        "name": "arbitrum_like",
        "chain_id": 42161,
        "rpc_url": "http://ledger.invalid",
        "poll_interval_ms": POLL_INTERVAL_MS,
        "limit_policy": {"type": "override", "effective_limit": 32_000_000},
        "priority_policy": "exclude",
        "constant_base_fee_expected": True,
    },
    {
        "name": "ethereum_like",
        "chain_id": 1,
        "rpc_url": "http://ledger.invalid",
        "poll_interval_ms": POLL_INTERVAL_MS,
        "limit_policy": {"type": "reported"},
        "priority_policy": "include",
    },
]

BLOCK_INTERVAL_S = {"arbitrum_like": 1, "ethereum_like": 12}
START_TIME_S = 1_700_000_000


def config_dict() -> dict[str, Any]:
    """The run configuration shared by every workload."""
    return {
        "window_s": WINDOW_S,
        "downsample_bucket_s": WINDOW_S,
        "topic_retention": TOPIC_RETENTION,
        "output_dir": "out",
        "networks": NETWORKS,
    }


def chain_seed(seed: int, chain: str) -> int:
    """A 64-bit generator seed for one chain, derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{chain}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def scenarios(seed: int, blocks: dict[str, int]) -> list[Any]:
    """The two make_fixture scenarios with seed-derived generator seeds."""
    from evmon.model import ChainRef, GasQuantity
    from evmon.simnode import (
        AdaptiveBaseFee,
        ConstantBaseFee,
        PriorityFeeModel,
        Scenario,
        UsageModel,
    )

    return [
        Scenario(
            chain=ChainRef(name="arbitrum_like", chain_id=42161),
            seed=chain_seed(seed, "arbitrum_like"),
            block_count=blocks["arbitrum_like"],
            block_interval_s=BLOCK_INTERVAL_S["arbitrum_like"],
            regime=ConstantBaseFee(base_fee_wei=10**7),
            usage_model=UsageModel(mean_ratio=0.02, jitter_ratio=0.015),
            reported_limit=GasQuantity(1_125_000_000),
            priority_model=PriorityFeeModel(mean_wei=2 * 10**9, jitter_wei=10**9),
            start_time_s=START_TIME_S,
        ),
        Scenario(
            chain=ChainRef(name="ethereum_like", chain_id=1),
            seed=chain_seed(seed, "ethereum_like"),
            block_count=blocks["ethereum_like"],
            block_interval_s=BLOCK_INTERVAL_S["ethereum_like"],
            regime=AdaptiveBaseFee(initial_wei=10 * 10**9, min_wei=10**6),
            usage_model=UsageModel(mean_ratio=0.5, jitter_ratio=0.35),
            reported_limit=GasQuantity(30_000_000),
            priority_model=PriorityFeeModel(mean_wei=2 * 10**9, jitter_wei=15 * 10**8),
            start_time_s=START_TIME_S,
        ),
    ]


def header_line(header: Any) -> str:
    """One recorded raw header in the documented JSONL field layout."""
    priority = header.priority_fee_observed
    return json.dumps(
        {
            "chain": header.chain.name,
            "chain_id": header.chain.chain_id,
            "number": header.number,
            "ts": header.timestamp,
            "gas_used": header.gas_used.value,
            "gas_limit": header.gas_limit.value,
            "base_fee_wei": header.base_fee_per_gas.value_wei,
            "priority_fee_wei": None if priority is None else priority.value_wei,
        },
        separators=(",", ":"),
    ) + "\n"


def write_inputs(work: Path, seed: int, blocks: dict[str, int]) -> tuple[Path, Path]:
    """Write the ledger JSONL and the config JSON; returns their paths."""
    from evmon.simnode import generate_scenario

    work.mkdir(parents=True, exist_ok=True)
    ledger_path = work / "ledger.jsonl"
    with open(ledger_path, "w", encoding="utf-8") as fh:
        for scenario in scenarios(seed, blocks):
            for header in generate_scenario(scenario):
                fh.write(header_line(header))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config_dict(), indent=2) + "\n", encoding="utf-8")
    return ledger_path, config_path


def read_ledger(path: Path) -> dict[str, list[dict[str, Any]]]:
    """The recorded ledger as plain dicts, grouped by chain in file order."""
    by_chain: dict[str, list[dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            by_chain.setdefault(obj["chain"], []).append(obj)
    return by_chain
