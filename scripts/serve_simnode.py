#!/usr/bin/env python3
"""Serve a scenario file as a mock EVM JSON-RPC node.

Point a monitor config's rpc_url at the printed endpoint. The virtual
clock starts at the scenario's genesis timestamp and advances at --rate x
real time (rate 1 behaves like a live chain).

Usage:
    python3 scripts/serve_simnode.py --scenario scenario.json --port 8545 --rate 10
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evmon.simnode import ScaledClock, generate_scenario, scenario_from_dict
from evmon.simserver import SimNodeServer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--port", type=int, default=0, help="port (0 = ephemeral)")
    parser.add_argument("--rate", type=float, default=1.0, help="virtual seconds per real second")
    args = parser.parse_args()

    scenario = scenario_from_dict(json.loads(Path(args.scenario).read_text(encoding="utf-8")))
    ledger = generate_scenario(scenario)
    clock = ScaledClock(scenario.start_time_s, rate=args.rate)
    server = SimNodeServer(ledger, clock, port=args.port)
    server.start()
    print(f"serving {scenario.chain.name}: {scenario.block_count} blocks at {server.url} "
          f"(rate {args.rate}x)")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
