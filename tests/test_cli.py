import dataclasses
import json
from pathlib import Path

import pytest

from conftest import adaptive_fee_scenario, constant_fee_scenario
from evmon import records
from evmon.cli import (
    ConfigParse,
    InputDataError,
    load_config,
    main,
    run_monitor,
    run_plot,
    run_replay,
    run_stats,
)
from evmon.model import InvalidProfile, MetricKind, OverrideLimit, PriorityPolicy
from evmon.records import header_to_dict, sample_to_dict, to_line
from evmon.simnode import LedgerRpcClient, ManualClock, SimNodeServer, generate_scenario
from evmon.metrics import EmptySeries
from evmon.model import ChainRef, MetricSample


def network_entry(name, chain_id, rpc_url="http://127.0.0.1:1", **overrides):
    entry = {"name": name, "chain_id": chain_id, "rpc_url": rpc_url, "poll_interval_ms": 5}
    entry.update(overrides)
    return entry


def write_config(tmp_path, networks, **top):
    config = {"networks": networks, "output_dir": str(tmp_path / "out"), "window_s": 300}
    config.update(top)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_load_config_four_networks(tmp_path):
    path = write_config(
        tmp_path,
        [
            network_entry("arb_like", 42161,
                          limit_policy={"type": "override", "effective_limit": 32_000_000},
                          priority_policy="exclude", constant_base_fee_expected=True),
            network_entry("op_like", 10),
            network_entry("linea_like", 59144, constant_base_fee_expected=True),
            network_entry("eth_like", 1),
        ],
    )
    config = load_config(path)
    assert len(config.networks) == 4
    arb = config.networks[0]
    assert isinstance(arb.limit_policy, OverrideLimit)
    assert arb.priority_policy is PriorityPolicy.EXCLUDE
    assert config.window_s == 300


def test_load_config_rejects_duplicate_names(tmp_path):
    path = write_config(tmp_path, [network_entry("same", 1), network_entry("same", 2)])
    with pytest.raises(ConfigParse, match="duplicate"):
        load_config(path)


def test_load_config_names_network_missing_rpc_url(tmp_path):
    entry = network_entry("broken", 5)
    del entry["rpc_url"]
    path = write_config(tmp_path, [network_entry("fine", 1), entry])
    with pytest.raises(ConfigParse, match="broken"):
        load_config(path)


def test_load_config_propagates_invalid_profile(tmp_path):
    path = write_config(tmp_path, [network_entry("bad", 7, poll_interval_ms=0)])
    with pytest.raises(InvalidProfile, match="bad"):
        load_config(path)


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("EVMON_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    path = write_config(tmp_path, [network_entry("a", 1)])
    assert load_config(path).output_dir == tmp_path / "elsewhere"


def write_headers(path, ledgers):
    with open(path, "w", encoding="utf-8") as fh:
        for ledger in ledgers:
            for header in ledger:
                fh.write(to_line(header_to_dict(header)))


def two_chain_fixture(tmp_path, blocks=100):
    arb = constant_fee_scenario(block_count=blocks)
    eth = adaptive_fee_scenario(block_count=blocks)
    input_path = tmp_path / "recorded.jsonl"
    write_headers(input_path, [generate_scenario(arb), generate_scenario(eth)])
    config_path = write_config(
        tmp_path,
        [
            network_entry("arbitrum_like", 42161,
                          limit_policy={"type": "override", "effective_limit": 32_000_000},
                          priority_policy="exclude", constant_base_fee_expected=True),
            network_entry("ethereum_like", 1),
        ],
    )
    return input_path, config_path


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_replay_produces_all_outputs(tmp_path):
    input_path, config_path = two_chain_fixture(tmp_path, blocks=100)
    config = load_config(config_path)
    report = run_replay(input_path, config)
    for chain in ("arbitrum_like", "ethereum_like"):
        chain_dir = config.output_dir / chain
        assert len(read_lines(chain_dir / "raw.jsonl")) == 100
        assert len(read_lines(chain_dir / "normalized.jsonl")) == 100
        assert len(read_lines(chain_dir / "gas_price_gwei.jsonl")) == 100
        assert len(read_lines(chain_dir / "block_usage_ratio.jsonl")) == 100
        assert report["chains"][chain]["blocks_ingested"] == 100
        assert report["chains"][chain]["dead_letters"] == 0
    assert (config.output_dir / "run_report.json").exists()


def test_replay_is_byte_deterministic(tmp_path):
    input_path, config_path = two_chain_fixture(tmp_path, blocks=60)

    def run_into(subdir):
        out = tmp_path / subdir
        config = load_config(config_path)
        config = type(config)(
            networks=config.networks, output_dir=out,
            window_s=config.window_s, downsample_bucket_s=config.downsample_bucket_s,
            topic_retention=config.topic_retention,
        )
        run_replay(input_path, config)
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    assert run_into("run1") == run_into("run2")


def test_replay_serializes_each_record_once_at_its_file(tmp_path, monkeypatch):
    """The broker carries the records themselves: replay decodes no
    normalized record, encodes each header once (for raw.jsonl) and writes
    the same bytes."""
    fixtures = Path(__file__).parent / "fixtures"
    fixture = fixtures / "replay_fixture.jsonl"
    config = load_config(fixtures / "replay_config.json")

    def run_into(subdir):
        out = tmp_path / subdir
        run_replay(fixture, dataclasses.replace(config, output_dir=out))
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    expected = run_into("plain")

    def refuse(obj):
        raise AssertionError("a normalized record was decoded")

    encoded = []
    header_to_dict = records.header_to_dict

    def counting(header):
        encoded.append(header)
        return header_to_dict(header)

    monkeypatch.setattr(records, "normalized_from_dict", refuse)
    monkeypatch.setattr(records, "header_to_dict", counting)
    assert run_into("patched") == expected
    assert len(encoded) == len(read_lines(fixture))


def test_replay_empty_input(tmp_path):
    input_path = tmp_path / "empty.jsonl"
    input_path.write_text("", encoding="utf-8")
    config = load_config(write_config(tmp_path, [network_entry("a", 1)]))
    report = run_replay(input_path, config)
    assert report["chains"]["a"]["blocks_ingested"] == 0
    assert read_lines(config.output_dir / "a" / "raw.jsonl") == []


def test_replay_rejects_unconfigured_chain(tmp_path):
    input_path, _ = two_chain_fixture(tmp_path, blocks=5)
    config = load_config(write_config(tmp_path, [network_entry("arbitrum_like", 42161)]))
    with pytest.raises(InputDataError, match="ethereum_like"):
        run_replay(input_path, config)


def test_replay_constant_fee_statistics(tmp_path):
    """1000 constant-fee blocks with priority excluded: median 0.01 gwei,
    IQR exactly 0 over the whole run."""
    scenario = constant_fee_scenario(block_count=1000)
    input_path = tmp_path / "arb.jsonl"
    write_headers(input_path, [generate_scenario(scenario)])
    config = load_config(write_config(
        tmp_path,
        [network_entry("arbitrum_like", 42161,
                       limit_policy={"type": "override", "effective_limit": 32_000_000},
                       priority_policy="exclude", constant_base_fee_expected=True)],
    ))
    report = run_replay(input_path, config)
    stats = report["chains"]["arbitrum_like"]["full_run_stats"]["gas_price_gwei"]
    assert stats["median"] == 0.01
    assert stats["iqr"] == 0.0
    assert stats["count"] == 1000


def test_monitor_two_simnode_chains(tmp_path):
    arb = constant_fee_scenario(block_count=100)
    eth = adaptive_fee_scenario(block_count=100)
    arb_ledger = generate_scenario(arb)
    eth_ledger = generate_scenario(eth)
    clock_a = ManualClock(arb.start_time_s + 10**6)
    clock_b = ManualClock(eth.start_time_s + 10**6)
    with SimNodeServer(arb_ledger, clock_a) as server_a, \
         SimNodeServer(eth_ledger, clock_b) as server_b:
        config = load_config(write_config(
            tmp_path,
            [
                network_entry("arbitrum_like", 42161, rpc_url=server_a.url,
                              priority_policy="exclude"),
                network_entry("ethereum_like", 1, rpc_url=server_b.url),
            ],
        ))
        report = run_monitor(config, max_blocks=100, start_number=0, duration_s=60)
    for chain in ("arbitrum_like", "ethereum_like"):
        chain_dir = config.output_dir / chain
        assert len(read_lines(chain_dir / "raw.jsonl")) == 100
        assert len(read_lines(chain_dir / "normalized.jsonl")) == 100
        for kind in MetricKind:
            assert len(read_lines(chain_dir / f"{kind.value}.jsonl")) == 100
        assert report["chains"][chain]["blocks_ingested"] == 100


def test_monitor_behind_retention_loses_nothing_silently(tmp_path):
    """A consumer that falls behind retention stops with an error that
    names its stage; otherwise every block reaches every file."""
    scenario = constant_fee_scenario(block_count=2000)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(tmp_path, [network_entry("arbitrum_like", 42161)],
                                      topic_retention=5))
    report = run_monitor(config, max_blocks=2000, start_number=0,
                         client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))
    chain = report["chains"]["arbitrum_like"]
    if chain["errors"]:
        for error in chain["errors"]:
            stage, _, reason = error.partition(": ")
            assert stage in ("normalize", *(kind.value for kind in MetricKind))
            assert "precedes earliest retained" in reason
    else:
        for kind in MetricKind:
            path = config.output_dir / "arbitrum_like" / f"{kind.value}.jsonl"
            assert len(read_lines(path)) == 2000


def test_monitor_partial_window_flagged(tmp_path):
    scenario = constant_fee_scenario(block_count=50, block_interval_s=10)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161)], window_s=300,
    ))
    run_monitor(config, max_blocks=50, duration_s=60, start_number=0,
                client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))
    windows = read_lines(config.output_dir / "arbitrum_like" / "gas_price_gwei_windows.jsonl")
    assert windows, "expected at least one window summary"
    last = json.loads(windows[-1])
    assert last["partial"] is True
    for line in windows[:-1]:
        assert json.loads(line)["partial"] is False


def test_monitor_isolates_dead_endpoint(tmp_path):
    scenario = constant_fee_scenario(block_count=40)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    with SimNodeServer(ledger, clock) as server:
        config = load_config(write_config(
            tmp_path,
            [
                network_entry("arbitrum_like", 42161, rpc_url=server.url),
                network_entry("dead_chain", 999, rpc_url="http://127.0.0.1:1"),
            ],
        ))
        report = run_monitor(config, max_blocks=40, duration_s=5, start_number=0)
    assert report["chains"]["arbitrum_like"]["blocks_ingested"] == 40
    assert len(read_lines(config.output_dir / "arbitrum_like" / "raw.jsonl")) == 40
    assert report["chains"]["dead_chain"]["blocks_ingested"] == 0


def test_replay_of_recorded_monitor_run_matches(tmp_path):
    """Replaying a monitor run's raw stream reproduces its series files."""
    scenario = constant_fee_scenario(block_count=80)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    monitor_out = tmp_path / "live"
    replay_out = tmp_path / "replayed"
    networks = [network_entry("arbitrum_like", 42161, priority_policy="exclude")]
    config = load_config(write_config(tmp_path, networks))
    config = type(config)(networks=config.networks, output_dir=monitor_out,
                          window_s=config.window_s,
                          downsample_bucket_s=config.downsample_bucket_s,
                          topic_retention=config.topic_retention)
    run_monitor(config, max_blocks=80, duration_s=60, start_number=0,
                client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))
    replay_config = type(config)(networks=config.networks, output_dir=replay_out,
                                 window_s=config.window_s,
                                 downsample_bucket_s=config.downsample_bucket_s,
                                 topic_retention=config.topic_retention)
    run_replay(monitor_out / "arbitrum_like" / "raw.jsonl", replay_config)
    for name in ("gas_price_gwei.jsonl", "block_usage_ratio.jsonl", "normalized.jsonl"):
        live = (monitor_out / "arbitrum_like" / name).read_bytes()
        replayed = (replay_out / "arbitrum_like" / name).read_bytes()
        assert live == replayed


def sample_line(chain, number, ts, kind, value):
    return to_line(sample_to_dict(MetricSample(chain, number, ts, kind, value)))


def test_stats_known_file(tmp_path, capsys):
    chain = ChainRef("c", 1)
    path = tmp_path / "series.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, value in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
            fh.write(sample_line(chain, i, i * 10, MetricKind.GAS_PRICE_GWEI, value))
    stats = run_stats(path)
    assert stats.median == 3.0
    assert stats.iqr == 2.0
    out = json.loads((tmp_path / "series.stats.json").read_text(encoding="utf-8"))
    assert out["median"] == 3.0
    assert "median=3.0" in capsys.readouterr().out


def test_stats_constant_series(tmp_path):
    chain = ChainRef("c", 1)
    path = tmp_path / "series.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(100):
            fh.write(sample_line(chain, i, i, MetricKind.GAS_PRICE_GWEI, 0.01))
    assert run_stats(path).iqr == 0.0


def test_stats_rejects_mixed_chains(tmp_path):
    path = tmp_path / "series.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sample_line(ChainRef("a", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.0))
        fh.write(sample_line(ChainRef("b", 2), 1, 1, MetricKind.GAS_PRICE_GWEI, 1.0))
    with pytest.raises(ValueError, match="single chain and kind"):
        run_stats(path)


def test_stats_empty_series(tmp_path):
    path = tmp_path / "series.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptySeries):
        run_stats(path)


def test_plot_single_bucket(tmp_path):
    chain = ChainRef("c", 1)
    path = tmp_path / "series.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sample_line(chain, 0, 0, MetricKind.GAS_PRICE_GWEI, 1.0))
        fh.write(sample_line(chain, 1, 30, MetricKind.GAS_PRICE_GWEI, 3.0))
    buckets = run_plot(path, 60, tmp_path / "plot.svg")
    assert len(buckets) == 1
    csv_lines = read_lines(tmp_path / "plot.csv")
    assert csv_lines[0] == "bucket_start,mean,count"
    assert csv_lines[1] == "0,2.0,2"
    assert (tmp_path / "plot.svg").read_text(encoding="utf-8").startswith("<svg")


def test_plot_is_deterministic(tmp_path):
    chain = ChainRef("c", 1)
    path = tmp_path / "series.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(500):
            fh.write(sample_line(chain, i, i * 7, MetricKind.BLOCK_USAGE_RATIO,
                                 (i % 13) / 13))
    run_plot(path, 300, tmp_path / "one.svg")
    run_plot(path, 300, tmp_path / "two.svg")
    assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_plot_twelve_hour_series_has_144_buckets(tmp_path):
    chain = ChainRef("c", 1)
    path = tmp_path / "series.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(12 * 3600 // 12):  # one sample every 12s for 12h
            fh.write(sample_line(chain, i, i * 12, MetricKind.GAS_PRICE_GWEI, 1.0))
    buckets = run_plot(path, 300, tmp_path / "plot.svg")
    assert len(buckets) == 12 * 3600 // 300 == 144


def test_main_exit_codes(tmp_path):
    missing_config = tmp_path / "nope.json"
    assert main(["monitor", "--config", str(missing_config)]) == 1

    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{}", encoding="utf-8")
    assert main(["replay", "--input", "x", "--config", str(bad_config)]) == 1

    config = write_config(tmp_path, [network_entry("a", 1)])
    missing_input = tmp_path / "missing.jsonl"
    assert main(["replay", "--input", str(missing_input), "--config", str(config)]) == 2

    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", "--input", str(empty)]) == 2


def test_main_replay_and_plot_end_to_end(tmp_path):
    input_path, config_path = two_chain_fixture(tmp_path, blocks=30)
    assert main(["replay", "--input", str(input_path), "--config", str(config_path)]) == 0
    series = tmp_path / "out" / "arbitrum_like" / "gas_price_gwei.jsonl"
    assert main(["stats", "--input", str(series)]) == 0
    assert main(["plot", "--input", str(series), "--bucket", "60",
                 "--out", str(tmp_path / "arb.svg")]) == 0
    assert (tmp_path / "arb.csv").exists()
