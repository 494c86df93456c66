#!/usr/bin/env python3
"""Golden digests of every replay output file, for byte-identical replay.

The benchmark's replay workload replays a fixed golden input (seed 1, 1,000
blocks per chain) once per run and compares the SHA-256 of every output
file with golden.json. Only a change that really alters the output format
may renew them; run from the repository root:

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

GOLDEN_SEED = 1
GOLDEN_BLOCKS = 1_000
GOLDEN_PATH = HERE / "golden.json"


def write_golden_inputs(work: Path) -> tuple[Path, Path]:
    blocks = {net["name"]: GOLDEN_BLOCKS for net in inputs.NETWORKS}
    return inputs.write_inputs(work, GOLDEN_SEED, blocks)


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the program wrote under out_dir.

    The benchmark's own files there (result.json, spans.*) are skipped.
    """
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "result.json" and not path.name.startswith("spans.")
    }


def expected() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="renew golden.json")
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = HERE / "_work" / f"golden-{os.getpid()}"
    ledger, config_path = write_golden_inputs(work)
    os.environ["EVMON_OUTPUT_DIR"] = str(work / "out")
    from evmon import cli

    cli.run_replay(ledger, cli.load_config(config_path))
    got = digests(work / "out")
    shutil.rmtree(work)
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(
            {"seed": GOLDEN_SEED, "blocks_per_chain": GOLDEN_BLOCKS, "digests": got},
            indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} digests to {GOLDEN_PATH}")
        return 0
    differ = sorted(name for name in got.keys() | expected().keys()
                    if got.get(name) != expected().get(name))
    print("golden digests match" if not differ else f"differ: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
