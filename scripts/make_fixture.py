#!/usr/bin/env python3
"""Regenerate the bundled replay fixture (deterministic; safe to re-run).

Writes a two-chain RawBlockHeader JSONL plus a matching run config into
tests/fixtures/. The ledgers come from fixed-seed scenarios, so the output
bytes never change unless the generator itself does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evmon.model import ChainRef, GasQuantity
from evmon.records import header_line
from evmon.simnode import (
    AdaptiveBaseFee,
    ConstantBaseFee,
    PriorityFeeModel,
    Scenario,
    UsageModel,
    generate_scenario,
)


def fixture_scenarios(blocks: int) -> list[Scenario]:
    return [
        Scenario(
            chain=ChainRef(name="arbitrum_like", chain_id=42161),
            seed=42,
            block_count=blocks,
            block_interval_s=1,
            regime=ConstantBaseFee(base_fee_wei=10**7),
            usage_model=UsageModel(mean_ratio=0.02, jitter_ratio=0.015),
            reported_limit=GasQuantity(1_125_000_000),
            priority_model=PriorityFeeModel(mean_wei=2 * 10**9, jitter_wei=10**9),
        ),
        Scenario(
            chain=ChainRef(name="ethereum_like", chain_id=1),
            seed=7,
            block_count=blocks,
            block_interval_s=12,
            regime=AdaptiveBaseFee(initial_wei=10 * 10**9, min_wei=10**6),
            usage_model=UsageModel(mean_ratio=0.5, jitter_ratio=0.35),
            reported_limit=GasQuantity(30_000_000),
            priority_model=PriorityFeeModel(mean_wei=2 * 10**9, jitter_wei=15 * 10**8),
        ),
    ]


FIXTURE_CONFIG = {
    "window_s": 300,
    "downsample_bucket_s": 300,
    "output_dir": "out",
    "networks": [
        {
            "name": "arbitrum_like",
            "chain_id": 42161,
            "rpc_url": "http://replay.invalid",
            "poll_interval_ms": 250,
            "limit_policy": {"type": "override", "effective_limit": 32_000_000},
            "priority_policy": "exclude",
            "constant_base_fee_expected": True,
        },
        {
            "name": "ethereum_like",
            "chain_id": 1,
            "rpc_url": "http://replay.invalid",
            "poll_interval_ms": 12_000,
            "limit_policy": {"type": "reported"},
            "priority_policy": "include",
        },
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=200, help="blocks per chain")
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "tests" / "fixtures",
    )
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    fixture_path = args.out_dir / "replay_fixture.jsonl"
    with open(fixture_path, "w", encoding="utf-8") as fh:
        for scenario in fixture_scenarios(args.blocks):
            for header in generate_scenario(scenario):
                fh.write(header_line(header))
    config_path = args.out_dir / "replay_config.json"
    config_path.write_text(json.dumps(FIXTURE_CONFIG, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {fixture_path} ({args.blocks} blocks x 2 chains) and {config_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
