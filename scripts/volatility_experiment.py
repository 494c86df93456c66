#!/usr/bin/env python3
"""Compare gas-price and block-usage volatility across network styles.

Replays 12 virtual hours of one mainnet-style chain and three rollup-style
chains through the monitor's engine and prints the whole-run median and
IQR per chain: the mainnet-style chain should show clearly wider IQRs on
both metrics than any rollup-style one.

The inputs live in scripts/volatility/: config.json holds the four network
profiles, and <chain>.json the seeded 12-hour scenario of each chain. The
generated ledgers go into one JSONL in a temporary directory, which
cli.run_replay replays there; each row is that chain's blocks_ingested and
full_run_stats from the run report.

Usage:
    python3 scripts/volatility_experiment.py [--hours 12] [--csv out.csv]
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evmon.cli import _number_flag, load_config, run_replay
from evmon.records import header_line
from evmon.simnode import generate_scenario, scenario_from_dict

INPUTS = Path(__file__).resolve().parent / "volatility"
SCENARIO_HOURS = 12  # the block_count each scenario file holds


def run(hours: int):
    config = load_config(INPUTS / "config.json")
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = Path(tmp) / "headers.jsonl"
        with open(ledger_path, "w", encoding="utf-8") as fh:
            for profile in config.networks:
                path = INPUTS / f"{profile.chain.name}.json"
                scenario = scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))
                if hours != SCENARIO_HOURS:
                    scenario = dataclasses.replace(
                        scenario, block_count=hours * 3600 // scenario.block_interval_s)
                for header in generate_scenario(scenario):
                    fh.write(header_line(header))
        report = run_replay(ledger_path,
                            dataclasses.replace(config, output_dir=Path(tmp) / "out"))
    rows = []
    for profile in config.networks:
        chain = report["chains"][profile.chain.name]
        price = chain["full_run_stats"]["gas_price_gwei"]
        ratio = chain["full_run_stats"]["block_usage_ratio"]
        rows.append({
            "network": profile.chain.name,
            "blocks": chain["blocks_ingested"],
            "gas_price_iqr": price["iqr"],
            "gas_price_median": price["median"],
            "block_ratio_iqr": ratio["iqr"],
            "block_ratio_median": ratio["median"],
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", default=SCENARIO_HOURS,
                        type=_number_flag(int, "a positive integer", lambda n: n > 0),
                        help="virtual hours per chain (a positive integer)")
    parser.add_argument("--csv", default=None, help="optional CSV output path")
    args = parser.parse_args()

    rows = run(args.hours)
    header = (f"{'network':<16} {'blocks':>7} {'price IQR':>12} {'price med':>12} "
              f"{'ratio IQR':>10} {'ratio med':>10}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['network']:<16} {row['blocks']:>7} {row['gas_price_iqr']:>12.4f} "
              f"{row['gas_price_median']:>12.4f} {row['block_ratio_iqr']:>10.4f} "
              f"{row['block_ratio_median']:>10.4f}")
    mainnet = rows[0]
    rollups = rows[1:]
    wider_price = all(mainnet["gas_price_iqr"] > r["gas_price_iqr"] for r in rollups)
    wider_ratio = all(mainnet["block_ratio_iqr"] > r["block_ratio_iqr"] for r in rollups)
    print(f"\nmainnet-style IQR strictly widest: gas price {wider_price}, "
          f"block ratio {wider_ratio}")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
