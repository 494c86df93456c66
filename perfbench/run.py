#!/usr/bin/env python3
"""evmon benchmark: batch replay, backlog catch-up and paced live monitoring.

Run from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

Each workload runs whole rounds, one program process per round, until
--seconds have passed, checks every round's outputs and prints, as the
last line of standard output, one JSON object with "correct", "attempted"
and "failed" (blocks summed over chains) and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. With
--workload all it runs the three workloads in turn. See perfbench/README.md
for the workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import golden  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("replay", "catchup", "live")
CHAINS = ("arbitrum_like", "ethereum_like")
KINDS = checker.KINDS
CHAIN_FILES = checker.PER_BLOCK_FILES + tuple(f"{k}_windows.jsonl" for k in KINDS) + (
    "dead_letters.jsonl",)

REPLAY_BLOCKS = 3_000      # per chain, per round
CATCHUP_BLOCKS = 2_000     # per chain, per round; stays below the topic retention
LIVE_RATE = 100.0          # virtual seconds per real second
LIVE_VIRTUAL_S = 500       # per round: 501 + 42 blocks, about 5 s of real time
SETUP_PROBES = 5           # extra set-up-only processes per run
CALIBRATION_LOOPS = 12_000
REFERENCE_CALIBRATION_S = 0.050  # the speed that scaled figures are expressed at
CHILD_TIMEOUT_S = 60.0
# how often the output files are read for lag: small next to the lag measured
TAIL_INTERVAL_S = {"replay": 0.01, "catchup": 0.01, "live": 0.001}

E2E_UNITS = {
    "setup_s": "s",
    "blocks_per_s": "blocks/s",
    "cpu_us_per_block": "us",
    "peak_rss_mb": "MB",
    "lag_ms_p50": "ms",
    "lag_ms_p95": "ms",
}


class BenchError(Exception):
    """The benchmark could not run (missing program, a process that failed)."""


def workload_blocks(workload: str) -> dict[str, int]:
    if workload == "replay":
        return dict.fromkeys(CHAINS, REPLAY_BLOCKS)
    if workload == "catchup":
        return dict.fromkeys(CHAINS, CATCHUP_BLOCKS)
    return {chain: LIVE_VIRTUAL_S // inputs.BLOCK_INTERVAL_S[chain] + 1 for chain in CHAINS}


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python job (JSON encoding, integers)."""
    wall, cpu = time.perf_counter(), time.process_time()
    total = 0
    record = {"chain": "calibration", "number": 0, "ts": 1_700_000_000, "value": 0.5}
    for i in range(CALIBRATION_LOOPS):
        record["number"] = i
        total += len(json.dumps(record)) + i * i % 7
    return time.perf_counter() - wall, time.process_time() - cpu


@dataclass
class Round:
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_dir: Path
    lags_ms: list[float] = field(default_factory=list)


class Tail:
    """Stamps, from outside the program, when each sample line appears."""

    def __init__(self, out_dir: Path) -> None:
        self.paths = {(c, k): out_dir / c / f"{k}.jsonl" for c in CHAINS for k in KINDS}
        self.files: dict[tuple[str, str], Any] = {}
        # per file: cumulative line counts and the time each count was first seen
        self.counts: dict[tuple[str, str], list[int]] = {key: [] for key in self.paths}
        self.times: dict[tuple[str, str], list[float]] = {key: [] for key in self.paths}

    def read(self) -> None:
        now = time.monotonic()
        for key, path in self.paths.items():
            fh = self.files.get(key)
            if fh is None:
                try:
                    fh = self.files[key] = open(path, "rb")
                except FileNotFoundError:
                    continue
            chunk = fh.read()
            lines = chunk.count(b"\n")
            if lines:
                counts = self.counts[key]
                counts.append((counts[-1] if counts else 0) + lines)
                self.times[key].append(now)

    def appeared(self, key: tuple[str, str], index: int) -> float | None:
        """When line `index` (0-based) of the file was first seen."""
        counts = self.counts[key]
        at = bisect_right(counts, index)
        return self.times[key][at] if at < len(counts) else None

    def close(self) -> None:
        for fh in self.files.values():
            fh.close()


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / "perfbench" / "_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.problems: list[str] = []
        self.children = 0
        self.calibrations: list[tuple[float, float]] = []

    # --- processes ---------------------------------------------------------

    def child(self, mode: str, ledger: Path, config: Path, *, trace: bool = False,
              tail: bool = False, **extra: Any) -> Round:
        """Run one program process to its end and measure it from outside."""
        self.calibrations.append(calibrate())
        self.children += 1
        out_dir = self.work / f"{self.children:03d}-{mode}"
        out_dir.mkdir(parents=True)
        spec = {"mode": mode, "ledger": str(ledger), "config": str(config),
                "out_dir": str(out_dir), "trace": trace, **extra}
        spec_path = out_dir.with_suffix(".spec.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log_path = out_dir.with_suffix(".log")
        tailer = Tail(out_dir) if tail else None
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    env=self.env, cwd=self.root, stdout=log,
                                    stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if tailer is not None:
                    tailer.read()
                if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                    raise BenchError(f"{mode} process ran over {CHILD_TIMEOUT_S} s")
                time.sleep(TAIL_INTERVAL_S[self.workload])
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
            if tailer is not None:
                tailer.read()
                tailer.close()
        if proc.returncode != 0:
            tail_text = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{mode} process exited with {proc.returncode}:\n{tail_text}")
        result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
        evmon_file = Path(result["evmon"]).resolve()
        if self.root / "src" not in evmon_file.parents:
            raise BenchError(f"the program was imported from {evmon_file}, not this checkout")
        rnd = Round(setup_s=result["ready"] - spawned,
                    wall_s=result.get("end", 0.0) - result.get("start", 0.0),
                    cpu_s=result.get("cpu_s", 0.0), rss_mb=usage.ru_maxrss / 1024,
                    out_dir=out_dir)
        if tailer is not None:
            rnd.lags_ms = self.lags(tailer, result)
        return rnd

    def lags(self, tailer: Tail, result: dict[str, Any]) -> list[float]:
        """Per block: from visible to the program until both sample lines appeared."""
        lags = []
        for chain, blocks in self.ledger.items():
            for i, block in enumerate(blocks):
                if self.workload == "live":
                    visible = result["start"] + (block["ts"] - inputs.START_TIME_S) / LIVE_RATE
                else:
                    visible = result["start"]  # the whole input is there from the start
                seen = [tailer.appeared((chain, kind), i) for kind in KINDS]
                if None not in seen:
                    lags.append((max(seen) - visible) * 1e3)
        return lags

    # --- checks ------------------------------------------------------------

    def check(self, rnd: Round, reference: tuple[dict[str, str], int] | None) -> int:
        """Failed blocks of a round; outputs equal to the reference reuse its count."""
        if reference is not None:
            digests, failed = reference
            if golden.digests(rnd.out_dir) == digests:
                return failed
            self.problems.append(f"{rnd.out_dir.name}: output differs from the replay of "
                                 "the same ledger")
        result = checker.check_run(rnd.out_dir, self.ledger, self.config)
        self.problems += [f"{rnd.out_dir.name}: {p}" for p in result.problems[:5]]
        return result.failed

    def check_replay_of(self, live: Round) -> None:
        """Replaying a live run's own raw.jsonl reproduces its other per-chain files."""
        recorded = self.work / "recorded.jsonl"
        with open(recorded, "wb") as fh:
            for chain in CHAINS:
                fh.write((live.out_dir / chain / "raw.jsonl").read_bytes())
        replayed = self.child("replay", recorded, self.config_path)
        for chain in CHAINS:
            for name in CHAIN_FILES:
                if (live.out_dir / chain / name).read_bytes() != \
                        (replayed.out_dir / chain / name).read_bytes():
                    self.problems.append(f"replay of the live raw.jsonl differs in {chain}/{name}")

    def check_golden(self) -> None:
        out_dir = self.child("replay", *golden.write_golden_inputs(self.work / "golden")).out_dir
        if golden.digests(out_dir) != golden.expected():
            self.problems.append("replay output differs from perfbench/golden.json")

    # --- the run -------------------------------------------------------------

    def run(self) -> dict[str, Any]:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.ledger_path, self.config_path = inputs.write_inputs(
            self.work / "inputs", self.seed, workload_blocks(self.workload))
        self.ledger = inputs.read_ledger(self.ledger_path)
        self.config = inputs.config_dict()
        blocks = sum(len(v) for v in self.ledger.values())
        mode = self.workload
        extra: dict[str, Any] = {}
        if mode == "catchup":
            extra = {"blocks": CATCHUP_BLOCKS}
        elif mode == "live":
            extra = {"rate": LIVE_RATE, "start_time_s": inputs.START_TIME_S}

        setups = [self.child("setup", self.ledger_path, self.config_path)
                  for _ in range(SETUP_PROBES)]
        reference = None
        if mode == "catchup":
            ref = self.child("replay", self.ledger_path, self.config_path)
            reference = (golden.digests(ref.out_dir), self.check(ref, None))
        elif mode == "replay":
            self.check_golden()

        rounds: list[Round] = []
        traced: list[Round] = []
        failed = 0
        started = time.monotonic()
        while not rounds or time.monotonic() - started < self.seconds or \
                (self.trace and not traced):
            trace_round = self.trace and len(rounds) > len(traced)
            rnd = self.child(mode, self.ledger_path, self.config_path, trace=trace_round,
                             tail=not trace_round, **extra)
            (traced if trace_round else rounds).append(rnd)
            setups.append(rnd)
            failed += self.check(rnd, reference)
            if mode == "replay" and reference is None:
                reference = (golden.digests(rnd.out_dir), failed)
            if mode == "live" and len(rounds) + len(traced) == 1:
                self.check_replay_of(rnd)
            if not self.trace:
                shutil.rmtree(rnd.out_dir)

        attempted = blocks * (len(rounds) + len(traced))
        if self.trace:
            metrics = self.layer_metrics(traced, rounds, blocks)
        else:
            metrics = self.e2e_metrics(rounds, setups, blocks)
        if not self.problems:
            shutil.rmtree(self.work)
        return {"correct": not self.problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def slowdown(self) -> tuple[float, float]:
        """Mean wall and CPU time of the calibration job over its reference time."""
        return tuple(statistics.fmean(c[i] for c in self.calibrations) / REFERENCE_CALIBRATION_S
                     for i in (0, 1))

    def e2e_metrics(self, rounds: list[Round], setups: list[Round],
                    blocks: int) -> dict[str, Any]:
        """Whole-run aggregates, with CPU-bound times at the reference speed.

        The calibration job ran before every program process of the run;
        its mean time over the reference time is how much slower the
        machine ran, and CPU-bound times are divided by it: set-up always,
        and every time on replay and catchup. Live is paced by the feed
        schedule and the poll sleeps, not by the interpreter's speed, so
        its run figures stay as measured.
        """
        wall_slowdown, cpu_slowdown = self.slowdown()
        run_slowdown = wall_slowdown
        if self.workload == "live":
            run_slowdown = cpu_slowdown = 1.0
        total_blocks = blocks * len(rounds)
        values = {
            "setup_s": statistics.median(r.setup_s for r in setups) / wall_slowdown,
            "blocks_per_s": total_blocks / sum(r.wall_s for r in rounds) * run_slowdown,
            "cpu_us_per_block": sum(r.cpu_s for r in rounds) / total_blocks * 1e6 / cpu_slowdown,
            "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
            "lag_ms_p50": lag_percentile(rounds, 0.50) / run_slowdown,
            "lag_ms_p95": lag_percentile(rounds, 0.95) / run_slowdown,
        }
        return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}

    def layer_metrics(self, traced: list[Round], untraced: list[Round],
                      blocks: int) -> dict[str, Any]:
        import spans

        per_round = [spans.layer_metrics(r.out_dir, blocks) for r in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
        overhead = (statistics.median(r.cpu_s for r in traced)
                    - statistics.median(r.cpu_s for r in untraced)) / blocks * 1e6
        metrics["trace.overhead_cpu_us_per_block"] = {"value": overhead, "unit": "us"}
        for rnd in traced + untraced:
            shutil.rmtree(rnd.out_dir)
        return metrics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (nan when there are no values)."""
    if not values:
        return float("nan")
    return sorted(values)[max(1, math.ceil(len(values) * p)) - 1]


def lag_percentile(rounds: list[Round], p: float) -> float:
    """The median over rounds of each round's lag percentile."""
    return statistics.median(percentile(r.lags_ms, p) for r in rounds)


def describe(bench: Bench, result: dict[str, Any]) -> str:
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    wall, cpu = bench.slowdown()
    return (f"{bench.workload}: attempted={result['attempted']} blocks "
            f"failed={result['failed']} correct={result['correct']} " + " ".join(parts)
            + f" (machine slowdown: wall {wall:.3f}, cpu {cpu:.3f})"
            + "".join(f"\n  problem: {p}" for p in bench.problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "evmon" / "cli.py").is_file():
        print(f"error: run from the repository root; {root}/src/evmon is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        bench = Bench(root, workload, args.seed, args.seconds, bool(args.trace))
        try:
            result = bench.run()
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(describe(bench, result), file=sys.stderr)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
