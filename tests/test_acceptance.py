"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and bound is pinned here, not configurable.
"""

import csv
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import adaptive_fee_scenario, constant_fee_scenario, make_profile
from evmon.cli import RunConfig, load_config, run_monitor, run_plot, run_replay, run_stats
from evmon.metrics import block_usage_sample, summarize
from evmon.model import (
    FeeQuantity,
    Flag,
    GasQuantity,
    OverrideLimit,
    PriorityPolicy,
    RawBlockHeader,
)
from evmon.normalize import Normalizer
from evmon.records import (
    header_from_dict,
    header_to_dict,
    read_jsonl,
    sample_from_dict,
    to_line,
    window_summary_from_dict,
)
from evmon.simnode import LedgerRpcClient, ManualClock, generate_scenario
from evmon.streamlog import StreamLog

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def passed(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {message}")


def test_acceptance_1_statistics_oracle():
    """Quartiles/median/IQR match an independent implementation within
    1e-12 over 1_000 random series of lengths 1..1_000, in under 10 s."""
    started = time.monotonic()
    rng = random.Random(123)
    for _ in range(1_000):
        n = rng.randint(1, 1_000)
        values = [rng.uniform(0.0, 1_000.0) for _ in range(n)]
        stats = summarize(values)
        q1, median, q3 = stats.q1, stats.median, stats.q3
        arr = np.asarray(values, dtype=float)
        expected_q1 = float(np.quantile(arr, 0.25, method="linear"))
        expected_median = float(np.quantile(arr, 0.5, method="linear"))
        expected_q3 = float(np.quantile(arr, 0.75, method="linear"))
        assert abs(q1 - expected_q1) <= 1e-12
        assert abs(median - expected_median) <= 1e-12
        assert abs(q3 - expected_q3) <= 1e-12
        assert abs((q3 - q1) - (expected_q3 - expected_q1)) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"statistics oracle took {elapsed:.1f}s"
    passed(1, f"1000 series match the independent quantile oracle within 1e-12 "
              f"({elapsed:.1f}s)")


def test_acceptance_2_constant_fee_reproduction(tmp_path):
    """A constant-0.01-gwei, priority-excluding chain yields whole-run
    gas-price median exactly 0.01 gwei and IQR exactly 0, in under 5 s."""
    started = time.monotonic()
    scenario = constant_fee_scenario(block_count=1_000, base_fee_wei=10**7)
    input_path = tmp_path / "arb.jsonl"
    with open(input_path, "w", encoding="utf-8") as fh:
        for header in generate_scenario(scenario):
            fh.write(to_line(header_to_dict(header)))
    config = RunConfig(
        networks=(make_profile(
            chain=scenario.chain,
            limit_policy=OverrideLimit(GasQuantity(32_000_000)),
            priority_policy=PriorityPolicy.EXCLUDE,
            constant_base_fee_expected=True,
        ),),
        output_dir=tmp_path / "out",
    )
    report = run_replay(input_path, config)
    stats = report["chains"]["arbitrum_like"]["full_run_stats"]["gas_price_gwei"]
    assert stats["count"] == 1_000
    assert stats["median"] == 0.01
    assert stats["iqr"] == 0.0
    series_stats = run_stats(tmp_path / "out" / "arbitrum_like" / "gas_price_gwei.jsonl")
    assert series_stats.median == 0.01 and series_stats.iqr == 0.0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"constant-fee pipeline took {elapsed:.1f}s"
    passed(2, f"full-pipeline gas price median 0.01 gwei, IQR 0 exactly ({elapsed:.1f}s)")


VOLATILITY_TABLE = """\
network           blocks    price IQR    price med  ratio IQR  ratio med
------------------------------------------------------------------------
ethereum_like       3600       4.5368       4.1422     0.3389     0.4827
arbitrum_like      43200       0.0000       0.0100     0.0141     0.0200
op_like            21600       0.0032       0.0067     0.0198     0.1599
linea_like         14400       0.0305       0.0916     0.0041     0.0090

mainnet-style IQR strictly widest: gas price True, block ratio True
"""


def test_acceptance_3_volatility_ordering(tmp_path):
    """The mainnet-style chain shows strictly larger gas-price and
    block-ratio IQRs than every rollup-style chain over 12 virtual hours,
    replayed through the engine by scripts/volatility_experiment.py from
    its committed scenarios, whose table it prints unchanged, in under 30 s."""
    started = time.monotonic()
    csv_path = tmp_path / "rows.csv"
    result = subprocess.run(
        [sys.executable, "scripts/volatility_experiment.py", "--csv", str(csv_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == VOLATILITY_TABLE.splitlines() + [f"wrote {csv_path}"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        eth, *rollups = csv.DictReader(fh)
    assert eth["network"] == "ethereum_like" and len(rollups) == 3
    for row in rollups:
        for column in ("gas_price_iqr", "block_ratio_iqr"):
            assert float(eth[column]) > float(row[column]), (
                f"{row['network']}: {column} {row[column]} not below {eth[column]}"
            )
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"volatility ordering took {elapsed:.1f}s"
    passed(3, f"mainnet-style IQRs strictly dominate all three rollup-style chains "
              f"on both metrics ({elapsed:.1f}s)")


def test_acceptance_4_conservation_end_to_end(tmp_path):
    """10_000 blocks across 2 chains flow through ingest, broker, and the
    operator pipelines with zero loss, zero duplicates, strictly
    increasing block numbers at every sink, and window counts summing to
    the input count, in under 30 s."""
    started = time.monotonic()
    blocks = 5_000
    scenarios = [
        constant_fee_scenario(block_count=blocks),
        adaptive_fee_scenario(block_count=blocks),
    ]
    ledgers = {s.chain.name: generate_scenario(s) for s in scenarios}
    clocks = {s.chain.name: ManualClock(s.start_time_s + 10**9) for s in scenarios}
    config = RunConfig(
        networks=tuple(make_profile(chain=s.chain) for s in scenarios),
        output_dir=tmp_path / "out",
        window_s=300,
    )
    report = run_monitor(
        config,
        max_blocks=blocks,
        start_number=0,
        client_factory=lambda p: LedgerRpcClient(ledgers[p.chain.name],
                                                 clocks[p.chain.name], p.chain),
    )
    for scenario in scenarios:
        chain = scenario.chain.name
        chain_dir = config.output_dir / chain
        assert report["chains"][chain]["errors"] == []
        raw_numbers = [h.number for h in read_jsonl(chain_dir / "raw.jsonl",
                                                    header_from_dict)]
        assert raw_numbers == list(range(blocks))  # no loss, no dups, ordered
        norm_lines = (chain_dir / "normalized.jsonl").read_text().splitlines()
        norm_numbers = [json.loads(line)["number"] for line in norm_lines]
        assert norm_numbers == list(range(blocks))
        for kind in ("gas_price_gwei", "block_usage_ratio"):
            samples = list(read_jsonl(chain_dir / f"{kind}.jsonl", sample_from_dict))
            numbers = [s.block_number for s in samples]
            assert numbers == list(range(blocks))
            windows = list(read_jsonl(chain_dir / f"{kind}_windows.jsonl",
                                      window_summary_from_dict))
            assert sum(w.stats.count for w in windows) == blocks
        assert report["chains"][chain]["dead_letters"] == 0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"conservation run took {elapsed:.1f}s"
    passed(4, f"2x{blocks} blocks conserved through every sink; window counts "
              f"sum to inputs ({elapsed:.1f}s)")


def test_acceptance_5_ratio_bounds():
    """Reported limits keep every usage ratio in [0, 1] over 10_000
    blocks; an override below generated usage produces flagged ratios
    above 1 and never clamps them."""
    scenario = constant_fee_scenario(block_count=10_000)
    ledger = generate_scenario(scenario)

    reported_profile = make_profile(chain=scenario.chain)
    normalizer = Normalizer(reported_profile)
    for header in ledger:
        record = normalizer.normalize(header)
        ratio = block_usage_sample(record).value
        assert 0.0 <= ratio <= 1.0
        assert Flag.USAGE_EXCEEDS_EFFECTIVE_LIMIT not in record.flags

    # generated usage averages ~22.5M gas; force the effective limit below it
    override_profile = make_profile(
        chain=scenario.chain, limit_policy=OverrideLimit(GasQuantity(10_000_000))
    )
    normalizer = Normalizer(override_profile)
    flagged = 0
    above_one = 0
    for header in ledger:
        record = normalizer.normalize(header)
        ratio = block_usage_sample(record).value
        if Flag.USAGE_EXCEEDS_EFFECTIVE_LIMIT in record.flags:
            flagged += 1
            assert ratio > 1.0  # never clamped
        if ratio > 1.0:
            above_one += 1
            assert Flag.USAGE_EXCEEDS_EFFECTIVE_LIMIT in record.flags
    assert flagged > 0 and flagged == above_one
    passed(5, f"10_000 reported-limit ratios in [0,1]; override produced {flagged} "
              f"flagged ratios above 1, unclamped")


def test_acceptance_6_broker_resume():
    """100 randomized kill/commit/resume cycles over 10_000 records on each
    of two topics deliver exactly offsets 0..9_999 to each topic's consumer
    with no post-commit redelivery."""
    total = 10_000
    broker = StreamLog()
    topics = ("blocks0", "blocks1")
    for topic in topics:
        broker.create_topic(topic)
        for i in range(total):
            broker.append(topic, b"%d" % i)

    for topic_index, topic in enumerate(topics):
        rng = random.Random(1000 + topic_index)
        delivered = set()
        committed = -1
        for _ in range(100):
            handle = broker.subscribe(topic)
            polled = []
            for _ in range(rng.randint(1, 4)):
                polled += [o for o, _ in broker.poll(handle, rng.randint(1, 120))]
            if polled:
                # resume must restart exactly after the commit: nothing at or
                # before `committed` may be redelivered
                assert polled[0] == committed + 1
                assert all(o > committed for o in polled)
                delivered.update(polled)
                committed = rng.choice(polled)
                broker.commit(handle, committed)
            # handle dropped here: uncommitted progress is lost on purpose
        handle = broker.subscribe(topic)
        while True:
            batch = broker.poll(handle, 1_000)
            if not batch:
                break
            delivered.update(o for o, _ in batch)
        assert delivered == set(range(total))
    passed(6, "both topics' consumers saw offsets 0..9_999 exactly, no post-commit "
              "redelivery across 100 kill/resume cycles")


def test_acceptance_7_determinism(tmp_path):
    """Replaying the bundled fixture twice produces byte-identical JSONL,
    CSV and SVG outputs; simnode ledgers are byte-identical per seed."""
    fixture = FIXTURES / "replay_fixture.jsonl"
    base_config = load_config(FIXTURES / "replay_config.json")

    def replay_into(subdir: str) -> dict[str, bytes]:
        out = tmp_path / subdir
        config = RunConfig(
            networks=base_config.networks, output_dir=out,
            window_s=base_config.window_s,
            downsample_bucket_s=base_config.downsample_bucket_s,
        )
        run_replay(fixture, config)
        series = out / "ethereum_like" / "gas_price_gwei.jsonl"
        run_stats(series, out / "stats.json")
        run_plot(series, base_config.downsample_bucket_s, out / "plot.svg")
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    first = replay_into("run1")
    second = replay_into("run2")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between replays"
    assert any(name.endswith(".csv") for name in first)
    assert any(name.endswith(".svg") for name in first)

    scenario = adaptive_fee_scenario(block_count=500)
    ledger_bytes = [
        b"".join(to_line(header_to_dict(h)).encode() for h in generate_scenario(scenario))
        for _ in range(2)
    ]
    assert ledger_bytes[0] == ledger_bytes[1]
    passed(7, f"replay outputs byte-identical across runs ({len(first)} files, "
              "JSONL + CSV + SVG); ledgers byte-identical per seed")


def test_acceptance_8_normalization_independence():
    """Under the priority-excluding policy, perturbing every block's
    observed priority fee changes no effective gas price."""
    scenario = constant_fee_scenario(block_count=1_000)
    ledger = generate_scenario(scenario)
    profile = make_profile(chain=scenario.chain, priority_policy=PriorityPolicy.EXCLUDE)

    def effective_prices(headers: list[RawBlockHeader]) -> list[int]:
        normalizer = Normalizer(profile)
        return [normalizer.normalize(h).effective_gas_price.value_wei for h in headers]

    baseline = effective_prices(ledger)
    rng = random.Random(321)
    perturbed = [
        RawBlockHeader(
            chain=h.chain, number=h.number, timestamp=h.timestamp,
            gas_used=h.gas_used, gas_limit=h.gas_limit,
            base_fee_per_gas=h.base_fee_per_gas,
            priority_fee_observed=rng.choice(
                [None, FeeQuantity(rng.randrange(0, 10**12))]
            ),
        )
        for h in ledger
    ]
    assert effective_prices(perturbed) == baseline
    passed(8, "1_000-block priority perturbation left every effective gas price "
              "unchanged under the excluding policy")
