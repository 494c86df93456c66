"""The independent checker accepts a real replay and rejects damaged output.

Run from the repository root: python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import inputs  # noqa: E402

BLOCKS = {"arbitrum_like": 700, "ethereum_like": 120}


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    from evmon import cli

    work = tmp_path_factory.mktemp("replay")
    ledger_path, config_path = inputs.write_inputs(work, seed=5, blocks=BLOCKS)
    os.environ["EVMON_OUTPUT_DIR"] = str(work / "out")
    try:
        cli.run_replay(ledger_path, cli.load_config(config_path))
    finally:
        del os.environ["EVMON_OUTPUT_DIR"]
    return work / "out", inputs.read_ledger(ledger_path)


@pytest.fixture
def out(replayed, tmp_path):
    """A private copy of the replay output that a test may damage."""
    source, _ = replayed
    for path in source.rglob("*"):
        if path.is_file():
            target = tmp_path / path.relative_to(source)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    return tmp_path


def check(out_dir, replayed):
    return checker.check_run(out_dir, replayed[1], inputs.config_dict())


def edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_accepts_real_replay(out, replayed):
    result = check(out, replayed)
    assert result.correct, result.problems
    assert result.failed == 0
    assert result.blocks == sum(BLOCKS.values())


def test_rejects_dropped_line(out, replayed):
    edit_lines(out / "arbitrum_like" / "gas_price_gwei.jsonl", lambda ls: ls[:10] + ls[11:])
    result = check(out, replayed)
    assert ("arbitrum_like", 10) in result.failed_blocks


def test_rejects_swapped_pair(out, replayed):
    edit_lines(out / "ethereum_like" / "normalized.jsonl",
               lambda ls: ls[:40] + [ls[41], ls[40]] + ls[42:])
    result = check(out, replayed)
    assert result.failed >= 1
    assert result.failed_blocks <= {("ethereum_like", 40), ("ethereum_like", 41)}


def test_rejects_shifted_quartile(out, replayed):
    def shift(lines):
        window = json.loads(lines[1])
        window["q3"] *= 1.001
        window["iqr"] = window["q3"] - window["q1"]
        return [lines[0], json.dumps(window, separators=(",", ":")) + "\n", *lines[2:]]

    edit_lines(out / "arbitrum_like" / "block_usage_ratio_windows.jsonl", shift)
    result = check(out, replayed)
    # the second 300 s window holds blocks 100..399 of the 1 s chain
    assert result.failed_blocks == {("arbitrum_like", n) for n in range(100, 400)}


def test_rejects_wrong_value(out, replayed):
    def bump(lines):
        sample = json.loads(lines[5])
        sample["value"] += 1e-6
        return [*lines[:5], json.dumps(sample, separators=(",", ":")) + "\n", *lines[6:]]

    edit_lines(out / "ethereum_like" / "block_usage_ratio.jsonl", bump)
    assert check(out, replayed).failed_blocks == {("ethereum_like", 5)}


def test_report_counts_checked(out, replayed):
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    report["chains"]["arbitrum_like"]["raw_records"] -= 1
    (out / "run_report.json").write_text(json.dumps(report), encoding="utf-8")
    assert not check(out, replayed).correct
