"""Replay output stays byte-identical to the benchmark's golden digests,
and the bundled fixture to the bytes its generator writes."""

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


def test_make_fixture_rewrites_the_committed_fixture(tmp_path):
    """The committed fixture was written by json through header_to_dict;
    make_fixture writes with header_line, so this pins header_line to it."""
    result = subprocess.run(
        [sys.executable, "scripts/make_fixture.py", "--out-dir", str(tmp_path)], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    for name in ("replay_fixture.jsonl", "replay_config.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "fixtures" / name).read_bytes()
