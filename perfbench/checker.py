"""Independent output checker.

Recomputes every per-block output and every window summary from the
recorded ledger with arithmetic written here, not in evmon.normalize,
evmon.metrics or evmon.records, and compares them with what a run wrote.
The policy rules are the README's:

- effective limit: the reported limit, or min(reported, override) under an
  override policy (flag limit_overridden); gas_used above it is flagged
  usage_exceeds_effective_limit, never clamped;
- effective price: base fee (flag priority_excluded) or base fee plus the
  observed priority fee (0 when absent); with a constant base fee expected,
  a deviation from the run's first base fee beyond the tolerance is flagged
  base_fee_deviation;
- samples: effective price / 1e9 in gwei, and gas_used / effective limit;
- windows: tumbling [floor(ts / w) * w, +w) per chain, the last one of a
  run flushed as partial, quartiles by linear interpolation
  (numpy.percentile, method="linear").

A block fails when, in any per-block file, it is missing, appears more
than once, follows a line with an equal or higher block number, or differs
from the recomputed line; every block of a wrong or missing window fails
too. Run-level faults (report counts, dead letters, unexpected lines) make
the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy

GWEI = 10**9
KINDS = ("gas_price_gwei", "block_usage_ratio")
PER_BLOCK_FILES = ("raw.jsonl", "normalized.jsonl", "gas_price_gwei.jsonl",
                   "block_usage_ratio.jsonl")
REL_TOL = 1e-9


@dataclass
class CheckResult:
    blocks: int = 0
    failed_blocks: set[tuple[str, int]] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_blocks)

    @property
    def correct(self) -> bool:
        """No run-level fault; failed blocks are counted separately."""
        return not self.problems


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _close(a: Any, b: float) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def expected_blocks(ledger: list[dict[str, Any]], net: dict[str, Any]) -> dict[str, list[dict]]:
    """The four per-block files' expected lines, as dicts, in ledger order."""
    override = net.get("limit_policy", {}).get("type") == "override"
    exclude = net.get("priority_policy", "include") == "exclude"
    constant = bool(net.get("constant_base_fee_expected", False))
    tolerance = int(net.get("base_fee_tolerance_wei", 0))
    first_base = ledger[0]["base_fee_wei"] if ledger else 0
    out: dict[str, list[dict]] = {name: [] for name in PER_BLOCK_FILES}
    for h in ledger:
        flags = []
        eff_limit = h["gas_limit"]
        if override:
            eff_limit = min(eff_limit, int(net["limit_policy"]["effective_limit"]))
            flags.append("limit_overridden")
        if h["gas_used"] > eff_limit:
            flags.append("usage_exceeds_effective_limit")
        if exclude:
            price = h["base_fee_wei"]
            flags.append("priority_excluded")
        else:
            price = h["base_fee_wei"] + (h["priority_fee_wei"] or 0)
        if constant and abs(h["base_fee_wei"] - first_base) > tolerance:
            flags.append("base_fee_deviation")
        head = {"chain": h["chain"], "chain_id": h["chain_id"], "number": h["number"],
                "ts": h["ts"]}
        out["raw.jsonl"].append(dict(h))
        out["normalized.jsonl"].append(
            {**h, "eff_limit": eff_limit, "eff_price_wei": price, "flags": sorted(flags)})
        out["gas_price_gwei.jsonl"].append(
            {**head, "kind": "gas_price_gwei", "value": price / GWEI})
        out["block_usage_ratio.jsonl"].append(
            {**head, "kind": "block_usage_ratio", "value": h["gas_used"] / eff_limit})
    return out


def _stats(values: list[float]) -> dict[str, float]:
    q1, median, q3 = numpy.percentile(values, [25, 50, 75], method="linear")
    return {"count": len(values), "median": float(median), "q1": float(q1),
            "q3": float(q3), "iqr": float(q3 - q1), "min": min(values), "max": max(values)}


def expected_windows(samples: list[dict], window_s: int) -> list[tuple[dict, list[int]]]:
    """Expected window lines for one sample series, each with its block numbers."""
    groups: dict[int, list[dict]] = {}
    for s in samples:
        groups.setdefault(s["ts"] // window_s * window_s, []).append(s)
    starts = sorted(groups)
    out = []
    for start in starts:
        members = groups[start]
        line = {"chain": members[0]["chain"], "chain_id": members[0]["chain_id"],
                "kind": members[0]["kind"], "window_start": start,
                "window_end": start + window_s,
                **_stats([m["value"] for m in members]),
                "partial": start == starts[-1]}
        out.append((line, [m["number"] for m in members]))
    return out


def _fields_match(got: dict, want: dict) -> bool:
    if set(got) != set(want):
        return False
    for key, value in want.items():
        if key in ("median", "q1", "q3", "iqr"):
            if not _close(got[key], value):
                return False
        elif got[key] != value or type(got[key]) is not type(value):
            return False
    return True


def _read_lines(path: Path, result: CheckResult) -> list[Any]:
    if not path.exists():
        result.problems.append(f"{path.name}: missing file")
        return []
    objs = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        try:
            objs.append(json.loads(line))
        except ValueError:
            result.problems.append(f"{path}: line {i} is not JSON")
            objs.append(None)
    return objs


def _check_per_block(path: Path, chain: str, want: list[dict], result: CheckResult) -> None:
    # canonical JSON tells 1 from 1.0, which dict equality would not
    by_number = {w["number"]: _canonical(w) for w in want}
    seen: set[int] = set()
    previous = -1
    for obj in _read_lines(path, result):
        number = obj.get("number") if isinstance(obj, dict) else None
        if number not in by_number:
            result.problems.append(f"{chain}/{path.name}: unexpected line {obj!r}")
            continue
        if number in seen or number <= previous or _canonical(obj) != by_number[number]:
            result.failed_blocks.add((chain, number))
        seen.add(number)
        previous = max(previous, number)
    for number in by_number.keys() - seen:
        result.failed_blocks.add((chain, number))


def _check_windows(path: Path, chain: str, want: list[tuple[dict, list[int]]],
                   result: CheckResult) -> None:
    got: dict[int, list[dict]] = {}
    for obj in _read_lines(path, result):
        if not isinstance(obj, dict) or "window_start" not in obj:
            result.problems.append(f"{chain}/{path.name}: unexpected line {obj!r}")
            continue
        got.setdefault(obj["window_start"], []).append(obj)
    wanted_starts = {line["window_start"] for line, _ in want}
    for start in got.keys() - wanted_starts:
        result.problems.append(f"{chain}/{path.name}: unexpected window {start}")
    for line, numbers in want:
        lines = got.get(line["window_start"], [])
        if len(lines) != 1 or not _fields_match(lines[0], line):
            result.failed_blocks.update((chain, n) for n in numbers)


def _check_report(report_path: Path, config: dict[str, Any],
                  chains: dict[str, dict[str, Any]], result: CheckResult) -> None:
    if not report_path.exists():
        result.problems.append("run_report.json: missing")
        return
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report.get("window_s") != config["window_s"] or \
            report.get("downsample_bucket_s") != config["downsample_bucket_s"]:
        result.problems.append("run_report.json: window settings differ from the config")
    for chain, info in chains.items():
        got = report.get("chains", {}).get(chain)
        n = info["blocks"]
        want = {
            "blocks_ingested": n, "raw_records": n, "normalized_records": n,
            "samples": {kind: n for kind in KINDS},
            "windows": {kind: info["windows"][kind] for kind in KINDS},
            "dead_letters": 0, "errors": [],
        }
        if not isinstance(got, dict):
            result.problems.append(f"run_report.json: no entry for {chain}")
            continue
        for key, value in want.items():
            if got.get(key) != value:
                result.problems.append(
                    f"run_report.json: {chain}.{key} is {got.get(key)!r}, expected {value!r}")
        for kind in KINDS:
            stats = (got.get("full_run_stats") or {}).get(kind)
            expected = _stats(info["values"][kind])
            if not isinstance(stats, dict) or not _fields_match(stats, expected):
                result.problems.append(f"run_report.json: {chain}.full_run_stats.{kind} wrong")


def check_run(out_dir: Path, ledger: dict[str, list[dict[str, Any]]],
              config: dict[str, Any]) -> CheckResult:
    """Check one run's output directory against the ledger it processed."""
    result = CheckResult()
    report_chains = {}
    for net in config["networks"]:
        chain = net["name"]
        chain_ledger = ledger.get(chain, [])
        result.blocks += len(chain_ledger)
        chain_dir = out_dir / chain
        want = expected_blocks(chain_ledger, net)
        for name in PER_BLOCK_FILES:
            _check_per_block(chain_dir / name, chain, want[name], result)
        info: dict[str, Any] = {"blocks": len(chain_ledger), "windows": {}, "values": {}}
        for kind in KINDS:
            windows = expected_windows(want[f"{kind}.jsonl"], config["window_s"])
            _check_windows(chain_dir / f"{kind}_windows.jsonl", chain, windows, result)
            info["windows"][kind] = len(windows)
            info["values"][kind] = [s["value"] for s in want[f"{kind}.jsonl"]]
        dead = chain_dir / "dead_letters.jsonl"
        if not dead.exists() or dead.stat().st_size:
            result.problems.append(f"{chain}/dead_letters.jsonl: missing or not empty")
        report_chains[chain] = info
    _check_report(out_dir / "run_report.json", config, report_chains, result)
    return result
