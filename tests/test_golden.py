"""Replay output stays byte-identical to the benchmark's golden digests."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_replay_matches_golden_digests():
    result = subprocess.run(
        [sys.executable, "perfbench/golden.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "golden digests match" in result.stdout
