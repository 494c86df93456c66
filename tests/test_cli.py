import collections
import cProfile
import dataclasses
import errno
import io
import json
import signal
import sys
import threading
import time
from pathlib import Path
from xml.etree import ElementTree

import pytest

from conftest import adaptive_fee_scenario, constant_fee_scenario, make_header
from evmon import cli, metrics, records
from evmon.cli import (
    ConfigParse,
    InputDataError,
    RunConfig,
    load_config,
    main,
    run_monitor,
    run_plot,
    run_replay,
    run_stats,
)
from evmon.ingest import InvalidHeader
from evmon.model import GasQuantity, InvalidProfile, MetricKind, PriorityPolicy
from evmon.normalize import Normalizer
from evmon.records import header_to_dict, sample_to_dict, to_line
from evmon.rpc import RpcClient
from evmon.simnode import LedgerRpcClient, ManualClock, generate_scenario
from evmon.simserver import SimNodeServer
from evmon.metrics import EmptySeries
from evmon.streamlog import StreamLog
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
    assert arb.limit_override == GasQuantity(32_000_000)
    assert config.networks[1].limit_override is None
    assert arb.priority_policy is PriorityPolicy.EXCLUDE
    assert config.window_s == 300


def test_load_config_rejects_duplicate_names(tmp_path):
    path = write_config(tmp_path, [network_entry("same", 1), network_entry("same", 2)])
    with pytest.raises(ConfigParse, match="duplicate"):
        load_config(path)


@pytest.mark.parametrize("change, message", [
    (lambda config: {"window_s": 0}, "window_s and downsample_bucket_s must be positive"),
    (lambda config: {"downsample_bucket_s": -300},
     "window_s and downsample_bucket_s must be positive"),
    (lambda config: {"networks": ()}, "config needs a non-empty networks list"),
    (lambda config: {"networks": config.networks * 2}, "duplicate chain name 'a'"),
], ids=["window_zero", "bucket_negative", "no_networks", "duplicate_name"])
def test_a_replaced_run_config_is_checked_again(tmp_path, change, message):
    """RunConfig checks itself when built, so a config made by
    dataclasses.replace cannot reach the engine with a bad window or two
    chains on one topic."""
    config = load_config(write_config(tmp_path, [network_entry("a", 1)]))
    with pytest.raises(ConfigParse, match=message):
        dataclasses.replace(config, **change(config))


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


def test_load_config_rejects_an_endpoint_that_is_not_http(tmp_path):
    path = write_config(tmp_path, [network_entry("ws_chain", 7, rpc_url="ws://127.0.0.1:8546")])
    with pytest.raises(InvalidProfile, match="ws_chain: malformed endpoint"):
        load_config(path)
    assert main(["replay", "--input", "x", "--config", str(path)]) == 1


@pytest.mark.parametrize("config", [
    [network_entry("a", 1)],
    {"networks": [5]},
    {"networks": [network_entry("a", 1, limit_policy="override")]},
    {"networks": [network_entry(5, 1)]},
    {"networks": [network_entry("a", 1, rpc_url=5)]},
    {"networks": [network_entry("a", 1, constant_base_fee_expected="false")]},
    {"networks": [network_entry("a", 1)], "output_dir": 5},
    {"networks": [network_entry("a", 1, limit_policy={"type": "override",
                                                      "effective_limit": -1})]},
], ids=["top_level_list", "network_int", "limit_policy_string", "name_int", "rpc_url_int",
        "constant_base_fee_string", "output_dir_int", "override_negative"])
def test_malformed_config_shape_is_a_config_error(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ConfigParse):
        load_config(path)
    assert main(["replay", "--input", "x", "--config", str(path)]) == 1


@pytest.mark.parametrize("network, top", [
    ({"chain_id": True}, {}),
    ({"chain_id": 1.5}, {}),
    ({"poll_interval_ms": 2.9}, {}),
    ({"base_fee_tolerance_wei": "7"}, {}),
    ({"limit_policy": {"type": "override", "effective_limit": 3.2e7}}, {}),
    ({}, {"window_s": 300.7}),
    ({}, {"downsample_bucket_s": "300"}),
], ids=["chain_id_bool", "chain_id_fraction", "poll_interval_fraction",
        "tolerance_string", "effective_limit_float", "window_fraction",
        "bucket_string"])
def test_config_integer_fields_take_only_json_integers(tmp_path, network, top):
    entry = network_entry("a", 1)
    entry.update(network)
    path = write_config(tmp_path, [entry], **top)
    with pytest.raises(ConfigParse, match="must be an integer"):
        load_config(path)
    assert main(["replay", "--input", "x", "--config", str(path)]) == 1


def test_readme_config_example_loads(tmp_path, monkeypatch):
    """The config example in README.md loads, and its top-level keys are
    exactly the RunConfig fields, so it names no key the loader ignores."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config schema (JSON)", 1)[1].split("```json\n", 1)[1]
    example = example.split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(example, encoding="utf-8")
    monkeypatch.delenv("EVMON_OUTPUT_DIR", raising=False)
    config = load_config(path)
    assert set(json.loads(example)) == {f.name for f in dataclasses.fields(RunConfig)}
    assert [profile.chain.name for profile in config.networks] == [
        "arbitrum_like", "ethereum_like"]
    assert config.networks[0].limit_override == GasQuantity(32_000_000)
    assert (config.window_s, config.downsample_bucket_s, config.output_dir) == (
        300, 300, Path("out"))


def test_a_config_with_the_retired_topic_retention_replays_the_same(tmp_path):
    """An older config's topic_retention is not read: such a config loads,
    and its replay of the fixture is byte-identical to one without it."""
    fixtures = Path(__file__).parent / "fixtures"
    base = json.loads((fixtures / "replay_config.json").read_text(encoding="utf-8"))
    assert "topic_retention" not in base
    outputs = {}
    for name, extra in (("plain", {}), ("retired", {"topic_retention": 100_000})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, **extra, "output_dir": str(tmp_path / name)}),
                        encoding="utf-8")
        run_replay(fixtures / "replay_fixture.jsonl", load_config(path))
        outputs[name] = output_bytes(tmp_path / name)
    assert outputs["retired"] == outputs["plain"]
    assert "run_report.json" in outputs["plain"]


def test_replay_reads_no_clock(tmp_path, monkeypatch):
    """Replay's outputs are a function of its input and config alone, and
    it never reads the clock: with time.monotonic raising, every output
    file and run_report.json are byte-equal to an unpatched replay's."""
    fixtures = Path(__file__).parent / "fixtures"
    base = json.loads((fixtures / "replay_config.json").read_text(encoding="utf-8"))

    def replay_into(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "output_dir": str(tmp_path / name)}),
                        encoding="utf-8")
        run_replay(fixtures / "replay_fixture.jsonl", load_config(path))
        return output_bytes(tmp_path / name)

    plain = replay_into("plain")

    def no_clock():
        raise AssertionError("replay read the clock")

    monkeypatch.setattr(time, "monotonic", no_clock)
    assert replay_into("clockless") == plain
    assert "run_report.json" in plain


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


# the per-chain files with one line per block
SERIES_FILES = ("raw.jsonl", "normalized.jsonl", "gas_price_gwei.jsonl", "block_usage_ratio.jsonl")


def output_bytes(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


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
        )
        run_replay(input_path, config)
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    assert run_into("run1") == run_into("run2")


def test_replay_serializes_each_record_once_at_its_file(tmp_path, monkeypatch):
    """The broker carries the records themselves: replay decodes no
    normalized record, encodes each header once (for raw.jsonl), formats
    its fields once (the normalized line extends the raw one) and writes
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
    header_line = records.header_line

    def counting(header):
        encoded.append(header)
        return header_line(header)

    formatted = []
    block_fields = records._block_fields

    def counting_fields(header):
        formatted.append(header)
        return block_fields(header)

    monkeypatch.setattr(records, "normalized_from_dict", refuse)
    monkeypatch.setattr(records, "header_line", counting)
    monkeypatch.setattr(records, "_block_fields", counting_fields)
    assert run_into("patched") == expected
    assert len(encoded) == len(read_lines(fixture))
    assert len(formatted) == len(read_lines(fixture))


def test_replay_writes_each_window_line_without_json(tmp_path, monkeypatch):
    """records.window_line writes every window summary, and no window
    builds a dict or a json encode: a replay of the fixture, which has no
    dead letters, never calls window_summary_to_dict or to_line, and
    writes the same bytes."""
    fixtures = Path(__file__).parent / "fixtures"
    fixture = fixtures / "replay_fixture.jsonl"
    config = load_config(fixtures / "replay_config.json")
    run_replay(fixture, dataclasses.replace(config, output_dir=tmp_path / "plain"))
    expected = output_bytes(tmp_path / "plain")

    def refuse(*args):
        raise AssertionError("a line was encoded through json")

    monkeypatch.setattr(records, "window_summary_to_dict", refuse)
    monkeypatch.setattr(records, "to_line", refuse)
    report = run_replay(fixture, dataclasses.replace(config, output_dir=tmp_path / "patched"))
    assert output_bytes(tmp_path / "patched") == expected
    assert all(chain["windows"] and chain["dead_letters"] == 0
               for chain in report["chains"].values())


# Calls that cProfile counts (Python and C functions) per block of a warm
# replay of tests/fixtures/replay_fixture.jsonl, on CPython 3.11: in steps
# of 500 headers, and in steps of one header, the batches of a paced feed
REPLAY_CALLS_PER_BLOCK = 55.8
REPLAY_CALLS_PER_BLOCK_AT_STEP_1 = 80.7


def replay_calls_per_block(tmp_path):
    fixtures = Path(__file__).parent / "fixtures"
    fixture = fixtures / "replay_fixture.jsonl"
    config = load_config(fixtures / "replay_config.json")
    # warm: the chain prefixes and interned chains are built once per process
    run_replay(fixture, dataclasses.replace(config, output_dir=tmp_path / "warm"))
    profile = cProfile.Profile()
    profile.runcall(run_replay, fixture, dataclasses.replace(config, output_dir=tmp_path / "out"))
    # summed per code object: pstats keys by (file, line, name), under which
    # the __init__ of every dataclass is one entry
    return sum(entry.callcount for entry in profile.getstats()) / len(read_lines(fixture))


def test_replay_makes_a_bounded_number_of_calls_per_block(tmp_path):
    """A deterministic guard on the work per block: the calls cProfile
    counts over a whole replay, per block, stay within 3% of the figure
    the per-block path makes today. A second formatting of each header,
    or a method call per pipeline hop, exceeds it."""
    per_block = replay_calls_per_block(tmp_path)
    assert per_block <= REPLAY_CALLS_PER_BLOCK * 1.03, per_block


def test_replay_in_one_header_steps_makes_a_bounded_number_of_calls_per_block(
        tmp_path, monkeypatch):
    """The same guard on the work per consumer step: at one header per
    step, as a paced monitor feed mostly runs, each block pays a whole
    step's overhead (a poll, a commit, an empty poll, six flushes), which
    stays within 3% of today's figure."""
    monkeypatch.setattr(cli, "_STEP", 1)
    per_block = replay_calls_per_block(tmp_path)
    assert per_block <= REPLAY_CALLS_PER_BLOCK_AT_STEP_1 * 1.03, per_block


def test_replay_builds_one_flushed_window_per_window(tmp_path, monkeypatch):
    """A window stage builds a FlushedWindow only when it closes a window;
    every other record joins the open window's member list."""
    fixtures = Path(__file__).parent / "fixtures"
    config = load_config(fixtures / "replay_config.json")
    built = []
    flushed_window = cli.cep.FlushedWindow

    def counting(*args, **kwargs):
        built.append(flushed_window(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli.cep, "FlushedWindow", counting)
    report = run_replay(fixtures / "replay_fixture.jsonl",
                        dataclasses.replace(config, output_dir=tmp_path / "out"))
    windows = sum(n for chain in report["chains"].values() for n in chain["windows"].values())
    samples = sum(n for chain in report["chains"].values() for n in chain["samples"].values())
    assert len(built) == windows < samples


@pytest.mark.parametrize("switch_interval_s", [None, 1e-6])
def test_replay_at_retention_3_matches_a_default_replay(tmp_path, monkeypatch,
                                                         switch_interval_s):
    """Replay streams its input through topics of 3 records: consumers step
    every 3 headers and hold the reader back, so no record is lost and
    every output file, including run_report.json, equals a replay at the
    default step."""
    fixtures = Path(__file__).parent / "fixtures"
    fixture = fixtures / "replay_fixture.jsonl"
    config = load_config(fixtures / "replay_config.json")
    run_replay(fixture, dataclasses.replace(config, output_dir=tmp_path / "default"))
    expected = output_bytes(tmp_path / "default")

    append = StreamLog.append
    retained = collections.Counter()

    def counted_append(self, topic, payload):
        offset = append(self, topic, payload)
        retained[topic] = max(retained[topic], offset + 1 - self.earliest_offset(topic))
        return offset

    monkeypatch.setattr(StreamLog, "append", counted_append)
    monkeypatch.setattr(cli, "_STEP", 3)
    switch_interval = sys.getswitchinterval()
    if switch_interval_s is not None:
        sys.setswitchinterval(switch_interval_s)
    try:
        run_replay(fixture, dataclasses.replace(config, output_dir=tmp_path / "small"))
    finally:
        sys.setswitchinterval(switch_interval)
    assert output_bytes(tmp_path / "small") == expected
    assert len(retained) == 2
    assert max(retained.values()) == 3


def test_replay_writes_the_same_bytes_whatever_its_step(tmp_path, monkeypatch):
    """The consumer steps over whole batches, and where the batches end
    changes no output byte: a replay with a late header and a zero-limit
    block writes every per-chain file, dead_letters.jsonl and
    run_report.json identically at steps of 1, 7 and 500 headers."""
    arb = generate_scenario(constant_fee_scenario(block_count=120))
    eth = generate_scenario(adaptive_fee_scenario(block_count=120))
    eth[40] = dataclasses.replace(eth[40], timestamp=eth[38].timestamp - 1)  # late
    eth[77] = dataclasses.replace(eth[77], gas_used=GasQuantity(0), gas_limit=GasQuantity(0))
    input_path = tmp_path / "recorded.jsonl"
    write_headers(input_path, [arb, eth])
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161), network_entry("ethereum_like", 1)],
        window_s=60))
    outputs = []
    for step in (1, 7, 500):
        monkeypatch.setattr(cli, "_STEP", step)
        out = tmp_path / f"step_{step}"
        report = run_replay(input_path, dataclasses.replace(config, output_dir=out))
        outputs.append(output_bytes(out))
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 1 + 7 * 2  # run_report.json, six files and dead letters
    dead = read_lines(tmp_path / "step_1" / "ethereum_like" / "dead_letters.jsonl")
    assert [json.loads(line)["stage"] for line in dead] == [2, 2, 0]
    assert report["chains"]["ethereum_like"]["samples"] == {
        "gas_price_gwei": 120, "block_usage_ratio": 119}


def test_replay_at_default_retention_holds_the_reader_back(tmp_path, monkeypatch):
    """At the default step, 500, the reader runs each chain's consumer
    every 500 appends, in its own thread: a 3,000-block chain never has
    more than 500 records held in its topic, and the replay starts no
    thread."""
    input_path, config_path = two_chain_fixture(tmp_path, blocks=3000)
    append = StreamLog.append
    retained = collections.Counter()

    def counted_append(self, topic, payload):
        offset = append(self, topic, payload)
        retained[topic] = max(retained[topic], offset + 1 - self.earliest_offset(topic))
        return offset

    start = threading.Thread.start
    started = []

    def counted_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(StreamLog, "append", counted_append)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    report = run_replay(input_path, load_config(config_path))
    assert all(entry["normalized_records"] == 3000 for entry in report["chains"].values())
    assert len(retained) == 2
    assert max(retained.values()) == 500
    assert started == []


def test_replay_report_survives_an_aborted_pipeline(tmp_path, monkeypatch):
    """A pipeline that aborts still reports what it wrote: every count in
    run_report.json equals the lines in its file, and the error names the
    pipeline. The other chain runs to the end."""
    fixtures = Path(__file__).parent / "fixtures"
    config = dataclasses.replace(load_config(fixtures / "replay_config.json"),
                                 output_dir=tmp_path)
    normalized_line = records.normalized_line
    calls = []

    def disk_full_on_50th_arbitrum_record(record, *args):
        # counted per chain, so the fault pins arbitrum_like's 50th record
        if record.header.chain.name == "arbitrum_like":
            calls.append(record)
            if len(calls) == 50:
                raise OSError("disk full")
        return normalized_line(record, *args)

    monkeypatch.setattr(records, "normalized_line", disk_full_on_50th_arbitrum_record)
    run_replay(fixtures / "replay_fixture.jsonl", config)
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    for chain, entry in report["chains"].items():
        chain_dir = tmp_path / chain
        assert entry["raw_records"] == len(read_lines(chain_dir / "raw.jsonl"))
        assert entry["normalized_records"] == len(read_lines(chain_dir / "normalized.jsonl"))
        for kind in MetricKind:
            lines = read_lines(chain_dir / f"{kind.value}.jsonl")
            assert entry["samples"][kind.value] == len(lines)
            assert entry["samples"][kind.value] == entry["normalized_records"]
    arb = report["chains"]["arbitrum_like"]
    assert (arb["raw_records"], arb["normalized_records"]) == (50, 49)
    assert arb["blocks_ingested"] == 200  # replay counts every input record of the chain
    assert len(arb["errors"]) == 1
    assert arb["errors"][0].startswith("normalize: ")
    eth = report["chains"]["ethereum_like"]
    assert eth["errors"] == []
    assert eth["raw_records"] == eth["normalized_records"] == eth["blocks_ingested"] == 200


@pytest.mark.parametrize("chain,name", [
    ("arbitrum_like", "raw.jsonl"),
    ("ethereum_like", "gas_price_gwei.jsonl"),
    ("ethereum_like", "block_usage_ratio.jsonl"),
])
def test_replay_aborts_a_pipeline_whose_series_write_fails(tmp_path, monkeypatch, chain, name):
    """A failed per-block write aborts the pipeline that writes the file,
    as a failed window or normalized write does: the error names the
    pipeline, no dead letter hides the gap, and every count in the report
    equals the lines in its file. A dead normalize stops the chain's feed."""
    fixtures = Path(__file__).parent / "fixtures"
    config = dataclasses.replace(load_config(fixtures / "replay_config.json"),
                                 output_dir=tmp_path)
    pipeline = "normalize" if name == "raw.jsonl" else name.removesuffix(".jsonl")
    writer = "header_line" if pipeline == "normalize" else "sample_line"
    write_line = getattr(records, writer)
    calls = []

    def disk_full_on_50th_line(record):
        # counted per chain and pipeline, so the fault pins the 50th line of one file
        kind = getattr(record, "kind", None)
        if record.chain.name == chain and (kind is None or kind.value == pipeline):
            calls.append(record)
            if len(calls) == 50:
                raise OSError("disk full")
        return write_line(record)

    monkeypatch.setattr(records, writer, disk_full_on_50th_line)
    report = run_replay(fixtures / "replay_fixture.jsonl", config)
    entry = report["chains"][chain]
    assert entry["errors"] == [f"{pipeline}: disk full"]
    assert entry["dead_letters"] == 0
    chain_dir = tmp_path / chain
    assert len(read_lines(chain_dir / name)) == 49
    assert entry["raw_records"] == len(read_lines(chain_dir / "raw.jsonl"))
    assert entry["normalized_records"] == len(read_lines(chain_dir / "normalized.jsonl"))
    for kind in MetricKind:
        assert entry["samples"][kind.value] == len(read_lines(chain_dir / f"{kind.value}.jsonl"))
        assert entry["windows"][kind.value] == len(
            read_lines(chain_dir / f"{kind.value}_windows.jsonl"))
    if pipeline == "normalize":
        # the consumer took no record after the failed one
        assert (entry["raw_records"], entry["normalized_records"]) == (49, 49)
    else:
        assert entry["normalized_records"] == 200
        assert {k: n == 49 for k, n in entry["samples"].items()} == {
            kind.value: kind.value == pipeline for kind in MetricKind}
    others = [e for c, e in report["chains"].items() if c != chain]
    assert others and all(e["errors"] == [] and e["normalized_records"] == 200 for e in others)


def test_replay_writes_each_dead_letter_with_its_pipeline_stage_and_reason(tmp_path):
    """A late header is a dead letter at a metric pipeline's window stage,
    and a header with a zero gas limit one at block_usage_ratio's sample
    stage; dead_letters.jsonl holds exactly those lines, and the report
    counts them."""
    chain = ChainRef("ethereum_like", 1)
    headers = [make_header(number=n, timestamp=ts, chain=chain)
               for n, ts in enumerate((1000, 1012, 1005, 1024))]
    headers[1] = make_header(number=1, timestamp=1012, gas_used=0, gas_limit=0, chain=chain)
    input_path = tmp_path / "headers.jsonl"
    input_path.write_text("".join(records.header_line(h) for h in headers), encoding="utf-8")
    config = load_config(write_config(tmp_path, [network_entry("ethereum_like", 1)]))
    report = run_replay(input_path, config)
    assert read_lines(config.output_dir / "ethereum_like" / "dead_letters.jsonl") == [
        '{"pipeline":"gas_price_gwei","stage":2,"reason":"late: ts 1005 behind watermark 1012"}',
        '{"pipeline":"block_usage_ratio","stage":0,'
        '"reason":"map: block 1 of ethereum_like has effective limit 0"}',
    ]
    entry = report["chains"]["ethereum_like"]
    assert entry["samples"] == {"gas_price_gwei": 4, "block_usage_ratio": 3}
    assert entry["dead_letters"] == 2


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


def test_monitor_behind_retention_loses_nothing_silently(tmp_path, monkeypatch):
    """A 2,000-block backlog through a 5-record step: ingest runs its
    chain's consumer every 5 blocks, so every block reaches every file."""
    monkeypatch.setattr(cli, "_STEP", 5)
    scenario = constant_fee_scenario(block_count=2000)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(tmp_path, [network_entry("arbitrum_like", 42161)]))
    report = run_monitor(config, max_blocks=2000, start_number=0,
                         client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))
    chain = report["chains"]["arbitrum_like"]
    assert chain["errors"] == []
    for name in SERIES_FILES:
        assert len(read_lines(config.output_dir / "arbitrum_like" / name)) == 2000


def test_catchup_larger_than_retention_writes_every_block(tmp_path, monkeypatch):
    """Two chains catch up on 3,000 blocks each through a 100-record step."""
    monkeypatch.setattr(cli, "_STEP", 100)
    arb = constant_fee_scenario(block_count=3000)
    eth = adaptive_fee_scenario(block_count=3000)
    ledgers = {"arbitrum_like": generate_scenario(arb), "ethereum_like": generate_scenario(eth)}
    clock = ManualClock(max(arb.start_time_s, eth.start_time_s) + 10**6)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161), network_entry("ethereum_like", 1)]))
    report = run_monitor(config, max_blocks=3000, start_number=0,
                         client_factory=lambda p: LedgerRpcClient(
                             ledgers[p.chain.name], clock, p.chain))
    for chain in ledgers:
        entry = report["chains"][chain]
        assert entry["errors"] == []
        assert entry["blocks_ingested"] == entry["raw_records"] == 3000
        for name in SERIES_FILES:
            assert len(read_lines(config.output_dir / chain / name)) == 3000


@pytest.mark.parametrize("dead", [(MetricKind.BLOCK_USAGE_RATIO,), tuple(MetricKind)],
                         ids=["one", "both"])
def test_dead_metric_pipeline_does_not_stall_its_chain(tmp_path, monkeypatch, dead):
    """A metric pipeline whose window sink raises is dropped, so with a
    5-record step normalize, ingest and the other metric pipeline run on."""
    monkeypatch.setattr(cli, "_STEP", 5)
    window_line = records.window_line

    def disk_full_for_dead(chain, kind, *args):
        if kind in dead:
            raise OSError("disk full")
        return window_line(chain, kind, *args)

    monkeypatch.setattr(records, "window_line", disk_full_for_dead)
    scenario = constant_fee_scenario(block_count=1000)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(tmp_path, [network_entry("arbitrum_like", 42161)]))
    report = run_monitor(config, max_blocks=1000, start_number=0,
                         client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))
    chain = report["chains"]["arbitrum_like"]
    assert sorted(chain["errors"]) == sorted(f"{kind.value}: disk full" for kind in dead)
    assert chain["blocks_ingested"] == chain["normalized_records"] == 1000
    chain_dir = config.output_dir / "arbitrum_like"
    for name in ("raw.jsonl", "normalized.jsonl"):
        assert len(read_lines(chain_dir / name)) == 1000
    for kind in MetricKind:
        samples = len(read_lines(chain_dir / f"{kind.value}.jsonl"))
        assert chain["samples"][kind.value] == samples
        assert (samples < 1000) if kind in dead else (samples == 1000)


class FullDisk(io.RawIOBase):
    """A file on a full disk: every write its buffers pass on fails."""

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def replay_with_a_file_on_a_full_disk(tmp_path, monkeypatch, chain, name):
    """A replay of the fixture at a 5-header step, with chain's file name
    on a full disk: the buffered file takes each write and fails when the
    consumer run flushes it. Returns the report and the clean replay's
    output bytes."""
    fixtures = Path(__file__).parent / "fixtures"
    fixture = fixtures / "replay_fixture.jsonl"
    config = load_config(fixtures / "replay_config.json")
    run_replay(fixture, dataclasses.replace(config, output_dir=tmp_path / "plain"))
    expected = output_bytes(tmp_path / "plain")
    open_chain_files = cli._open_chain_files

    def one_file_on_a_full_disk(stack, chain_dir):
        files = open_chain_files(stack, chain_dir)
        if chain_dir.name == chain:
            files[name] = stack.enter_context(
                io.TextIOWrapper(io.BufferedWriter(FullDisk()), encoding="utf-8"))
        return files

    monkeypatch.setattr(cli, "_STEP", 5)
    monkeypatch.setattr(cli, "_open_chain_files", one_file_on_a_full_disk)
    report = run_replay(fixture, dataclasses.replace(config, output_dir=tmp_path / "out"))
    return report, expected


def assert_counts_are_lines_on_disk(report, out):
    """Every count in the report equals the lines its file holds, a file on
    the full disk included (it holds none), and a chain's full-run stats
    cover exactly its counted samples."""
    for chain, entry in report["chains"].items():
        chain_dir = out / chain
        assert entry["raw_records"] == len(read_lines(chain_dir / "raw.jsonl"))
        assert entry["normalized_records"] == len(read_lines(chain_dir / "normalized.jsonl"))
        for kind in MetricKind:
            samples = entry["samples"][kind.value]
            assert samples == len(read_lines(chain_dir / f"{kind.value}.jsonl"))
            assert entry["windows"][kind.value] == len(
                read_lines(chain_dir / f"{kind.value}_windows.jsonl"))
            stats = entry["full_run_stats"][kind.value]
            assert (stats["count"] if stats else 0) == samples


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", ["{}.jsonl", "{}_windows.jsonl"], ids=["samples", "windows"])
def test_a_failed_flush_drops_only_the_metric_pipeline_of_its_file(tmp_path, monkeypatch,
                                                                  kind, name):
    """A flush that fails on a metric pipeline's sample or window file
    drops that pipeline alone, which is not flushed again: normalize and
    the other metric pipeline run on to the end of the input, the run
    writes its report, and every file that the pipelines left running
    write equals a clean replay's."""
    report, expected = replay_with_a_file_on_a_full_disk(
        tmp_path, monkeypatch, "ethereum_like", name.format(kind.value))
    assert report["chains"]["ethereum_like"]["errors"] == [
        f"{kind.value}: [Errno 28] No space left on device"]
    assert report["chains"]["arbitrum_like"]["errors"] == []
    assert_counts_are_lines_on_disk(report, tmp_path / "out")
    got = output_bytes(tmp_path / "out")
    dropped = {f"ethereum_like/{kind.value}.jsonl", f"ethereum_like/{kind.value}_windows.jsonl"}
    assert {path: data for path, data in got.items()
            if path not in dropped and path != "run_report.json"} == {
        path: data for path, data in expected.items()
        if path not in dropped and path != "run_report.json"}


@pytest.mark.parametrize("name", ["raw.jsonl", "normalized.jsonl"])
def test_a_failed_flush_of_a_normalize_file_ends_its_chain_alone(tmp_path, monkeypatch, name):
    """A flush that fails on raw.jsonl or normalized.jsonl fails normalize,
    which ends the chain's consumer at its first run: the metric pipelines
    finish the 5 records they received, as partial windows, and the other
    chain runs to the end of the input."""
    report, expected = replay_with_a_file_on_a_full_disk(
        tmp_path, monkeypatch, "ethereum_like", name)
    chain = report["chains"]["ethereum_like"]
    assert chain["errors"] == ["normalize: [Errno 28] No space left on device"]
    assert chain["blocks_ingested"] == 200
    assert chain["samples"] == {kind.value: 5 for kind in MetricKind}
    assert report["chains"]["arbitrum_like"]["errors"] == []
    assert_counts_are_lines_on_disk(report, tmp_path / "out")
    got = output_bytes(tmp_path / "out")
    for kind in MetricKind:
        assert len(read_lines(tmp_path / "out" / "ethereum_like" / f"{kind.value}.jsonl")) == 5
    assert {path: data for path, data in got.items() if path.startswith("arbitrum_like/")} == {
        path: data for path, data in expected.items() if path.startswith("arbitrum_like/")}


def test_duration_timer_does_not_outlive_the_run(tmp_path):
    """A run that ends before duration_s cancels its timer, so the
    caller's stop_event stays clear afterwards."""
    scenario = constant_fee_scenario(block_count=5)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(tmp_path, [network_entry("arbitrum_like", 42161)]))
    stop = threading.Event()
    report = run_monitor(config, max_blocks=5, start_number=0, duration_s=0.5,
                         stop_event=stop,
                         client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))
    assert report["chains"]["arbitrum_like"]["blocks_ingested"] == 5
    assert not stop.is_set()
    assert not stop.wait(0.8)


def test_stop_while_ingest_is_held_back_flushes_partial_windows(tmp_path, monkeypatch):
    """With a 5-record step, ingest runs its consumer after every 5 blocks
    (the poll interval is too long to end a step first), so a metric pipeline
    that stalls in that step holds ingest back. Setting stop then ends the
    run once the stall clears: the step finishes its 5 records, ingest
    fetches no further block, and every window still open is written as
    partial."""
    entered, gate = threading.Event(), threading.Event()
    block_usage_sample = metrics.block_usage_sample

    def stalled(record):
        entered.set()
        gate.wait()
        return block_usage_sample(record)

    monkeypatch.setattr(metrics, "block_usage_sample", stalled)
    monkeypatch.setattr(cli, "_STEP", 5)
    scenario = constant_fee_scenario(block_count=1000)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161, poll_interval_ms=60_000)]))
    stop = threading.Event()
    reports = []
    run = threading.Thread(target=lambda: reports.append(run_monitor(
        config, start_number=0, stop_event=stop,
        client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))), daemon=True)
    run.start()
    try:
        assert entered.wait(10), "the consumer step never reached the metric pipeline"
        stop.set()
    finally:
        gate.set()
        run.join(timeout=10)
    assert not run.is_alive()
    chain = reports[0]["chains"]["arbitrum_like"]
    assert chain["errors"] == []
    assert chain["blocks_ingested"] == chain["normalized_records"] == 5
    chain_dir = config.output_dir / "arbitrum_like"
    for name in SERIES_FILES:
        assert len(read_lines(chain_dir / name)) == 5
    for kind in MetricKind:
        assert chain["samples"][kind.value] == 5
        windows = read_lines(chain_dir / f"{kind.value}_windows.jsonl")
        assert windows and json.loads(windows[-1])["partial"] is True


def test_monitor_output_trails_a_slow_backlog_by_a_poll_interval(tmp_path):
    """Each fetch takes at least 1 ms, as a network round trip does, and a
    400-block backlog is shorter than one 500-block step. Ingest still
    runs its consumer once a fetched block has waited the 20 ms poll
    interval, so when the last block is fetched the lines of all but the
    blocks of about the last 20 ms are on disk."""
    scenario = constant_fee_scenario(block_count=400)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161, poll_interval_ms=20)]))
    samples = config.output_dir / "arbitrum_like" / "gas_price_gwei.jsonl"
    on_disk = []

    class RoundTrip(LedgerRpcClient):
        def fetch_block(self, number):
            if number == 399:
                on_disk.append(len(read_lines(samples)))
            time.sleep(0.001)
            return super().fetch_block(number)

    report = run_monitor(config, max_blocks=400, start_number=0,
                         client_factory=lambda p: RoundTrip(ledger, clock, p.chain))
    assert report["chains"]["arbitrum_like"]["blocks_ingested"] == 400
    assert len(read_lines(samples)) == 400
    assert on_disk[0] >= 350


def test_monitor_reports_a_chain_halted_by_an_invalid_header(tmp_path):
    """A block that stays invalid halts its chain's ingest and names the
    block in run_report.json errors; what came before it is kept."""
    scenario = constant_fee_scenario(block_count=100)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)

    class PoisonedAt30(LedgerRpcClient):
        def fetch_block(self, number):
            if number == 30:
                raise InvalidHeader("poisoned block")
            return super().fetch_block(number)

    config = load_config(write_config(tmp_path, [network_entry("arbitrum_like", 42161)]))
    report = run_monitor(config, max_blocks=100, start_number=0,
                         client_factory=lambda p: PoisonedAt30(ledger, clock, p.chain))
    chain = report["chains"]["arbitrum_like"]
    assert chain["blocks_ingested"] == 30
    assert chain["errors"] == ["ingest: halted at block 30: poisoned block"]
    for name in SERIES_FILES:
        assert len(read_lines(config.output_dir / "arbitrum_like" / name)) == 30


def test_monitor_normalize_failure_stops_its_ingest(tmp_path, monkeypatch):
    """A normalize consumer that dies refuses every later header, so ingest
    stops short of max_blocks instead of fetching for nobody, and the
    report keeps the counts reached. Normalize dies in the consumer's first
    step, which ingest runs after 500 blocks (the poll interval is too long
    to end a step first); the next header it hands over is refused."""
    scenario = constant_fee_scenario(block_count=5000)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161, poll_interval_ms=60_000)]))
    normalized_line = records.normalized_line
    calls = []

    def disk_full_on_50th_call(record, *args):
        calls.append(record)
        if len(calls) == 50:
            raise OSError("disk full")
        return normalized_line(record, *args)

    monkeypatch.setattr(records, "normalized_line", disk_full_on_50th_call)
    report = run_monitor(config, max_blocks=5000, start_number=0,
                         client_factory=lambda p: LedgerRpcClient(ledger, clock, p.chain))
    chain = report["chains"]["arbitrum_like"]
    assert chain["blocks_ingested"] == 500
    assert len(chain["errors"]) == 1
    assert chain["errors"][0].startswith("normalize: ")
    chain_dir = config.output_dir / "arbitrum_like"
    assert chain["raw_records"] == len(read_lines(chain_dir / "raw.jsonl"))
    assert chain["normalized_records"] == len(read_lines(chain_dir / "normalized.jsonl")) == 49
    for kind in MetricKind:
        assert chain["samples"][kind.value] == len(read_lines(chain_dir / f"{kind.value}.jsonl"))
        assert chain["windows"][kind.value] == len(
            read_lines(chain_dir / f"{kind.value}_windows.jsonl"))


def test_idle_monitor_does_not_spin(tmp_path, monkeypatch):
    """With nothing new after the head, ingest runs its consumer only when
    a block came since the last run: the log is not polled at every idle
    pass of ingest."""
    arb = constant_fee_scenario(block_count=20)
    eth = adaptive_fee_scenario(block_count=20)
    ledgers = {"arbitrum_like": generate_scenario(arb), "ethereum_like": generate_scenario(eth)}
    clock = ManualClock(max(arb.start_time_s, eth.start_time_s) + 10**6)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161), network_entry("ethereum_like", 1)]))
    poll = StreamLog.poll
    empty_polls = collections.Counter()

    def counted_poll(self, handle, max_records):
        batch = poll(self, handle, max_records)
        if not batch:
            empty_polls[handle.topic] += 1
        return batch

    monkeypatch.setattr(StreamLog, "poll", counted_poll)
    report = run_monitor(config, duration_s=0.5, client_factory=lambda p: LedgerRpcClient(
        ledgers[p.chain.name], clock, p.chain))
    for chain in ledgers:
        assert report["chains"][chain]["blocks_ingested"] == 1
        assert report["chains"][chain]["errors"] == []
    assert len(empty_polls) == 2
    assert max(empty_polls.values()) <= 3


@pytest.mark.parametrize("fault", [None, "metric_sink", "normalize"])
def test_each_chain_runs_one_thread(tmp_path, monkeypatch, fault):
    """While a two-chain monitor runs, each chain has exactly one thread,
    its ingest, which also runs the chain's consumer: with no fault, once
    arbitrum_like's metric sinks have failed at their first window, and
    before its normalize fails at block 20. After the run, no thread is
    left (threads of earlier tests may have ended meanwhile)."""
    arb = constant_fee_scenario(block_count=100)
    eth = adaptive_fee_scenario(block_count=100)
    ledgers = {"arbitrum_like": generate_scenario(arb), "ethereum_like": generate_scenario(eth)}
    clock = ManualClock(max(arb.start_time_s, eth.start_time_s) + 10**6)
    monkeypatch.setattr(cli, "_STEP", 5)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161), network_entry("ethereum_like", 1)],
        window_s=5))
    before = set(threading.enumerate())
    during = []
    # both chains' consumer steps meet at block 10, each in its ingest thread
    meet = threading.Barrier(2, timeout=10, action=lambda: during.append(
        {thread.name for thread in set(threading.enumerate()) - before}))
    normalize = Normalizer.normalize

    def normalize_meeting_at_block_10(self, header):
        if header.number == 10:
            meet.wait()
        return normalize(self, header)

    monkeypatch.setattr(Normalizer, "normalize", normalize_meeting_at_block_10)
    failing = {"metric_sink": (records, "window_line"),
               "normalize": (records, "normalized_line")}.get(fault)
    if failing is not None:
        original = getattr(*failing)

        def disk_full_on_arbitrum_block_20(record, *args):
            # a window line's first argument is its chain; a normalized record
            # names its chain in its header
            chain = record if fault == "metric_sink" else record.header.chain
            if chain.name == "arbitrum_like" and (
                    fault == "metric_sink" or record.header.number == 20):
                raise OSError("disk full")
            return original(record, *args)

        monkeypatch.setattr(*failing, disk_full_on_arbitrum_block_20)
    report = run_monitor(config, max_blocks=100, start_number=0,
                         client_factory=lambda p: LedgerRpcClient(
                             ledgers[p.chain.name], clock, p.chain))
    assert during == [{f"{chain}-ingest" for chain in ledgers}]
    assert set(threading.enumerate()) <= before
    errors = {chain: entry["errors"] for chain, entry in report["chains"].items()}
    expected = {None: [], "metric_sink": ["gas_price_gwei: disk full",
                                          "block_usage_ratio: disk full"],
                "normalize": ["normalize: disk full"]}[fault]
    assert errors == {"arbitrum_like": expected, "ethereum_like": []}


def test_a_chain_thread_that_fails_to_start_stops_the_others(tmp_path, monkeypatch):
    """When the second chain's ingest thread fails to start, run_monitor
    sets the stop event, so the first chain ends although it has no new
    block to hand its consumer; the error propagates, and no ingest thread
    is left."""
    arb = constant_fee_scenario(block_count=5)
    eth = adaptive_fee_scenario(block_count=5)
    ledgers = {"arbitrum_like": generate_scenario(arb), "ethereum_like": generate_scenario(eth)}
    clock = ManualClock(max(arb.start_time_s, eth.start_time_s) + 10**6)
    config = load_config(write_config(
        tmp_path, [network_entry("arbitrum_like", 42161), network_entry("ethereum_like", 1)]))
    start = threading.Thread.start
    ingest_starts = []

    def second_ingest_fails_to_start(thread):
        if thread.name.endswith("-ingest"):
            ingest_starts.append(thread.name)
            if len(ingest_starts) == 2:
                raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", second_ingest_fails_to_start)
    stop = threading.Event()
    errors = []

    def monitor():
        try:
            run_monitor(config, start_number=5, stop_event=stop,
                        client_factory=lambda p: LedgerRpcClient(
                            ledgers[p.chain.name], clock, p.chain))
        except RuntimeError as exc:
            errors.append(str(exc))

    runner = threading.Thread(target=monitor, daemon=True)
    runner.start()
    try:
        runner.join(timeout=10)
        assert not runner.is_alive(), "run_monitor waits for a chain that never stops"
        assert stop.is_set()
    finally:
        stop.set()
        runner.join(timeout=10)
    assert errors == ["can't start new thread"]
    assert not [thread for thread in threading.enumerate() if thread.name.endswith("-ingest")]


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
        report = run_monitor(config, max_blocks=40, duration_s=1, start_number=0)
    assert report["chains"]["arbitrum_like"]["blocks_ingested"] == 40
    assert len(read_lines(config.output_dir / "arbitrum_like" / "raw.jsonl")) == 40
    assert report["chains"]["dead_chain"]["blocks_ingested"] == 0


def test_monitor_client_that_cannot_be_built_degrades_only_its_chain(tmp_path):
    """Each chain builds its client in its own ingest thread: a factory
    that raises for one chain ends that chain with an ingest error, and
    the other chain runs to max_blocks."""
    scenario = constant_fee_scenario(block_count=40)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    config = load_config(write_config(tmp_path, [network_entry("arbitrum_like", 42161),
                                                 network_entry("broken", 7)]))
    builders = []

    def factory(profile):
        builders.append(threading.current_thread().name)
        if profile.chain.name == "broken":
            raise ConnectionError("no route to broken")
        return LedgerRpcClient(ledger, clock, profile.chain)

    report = run_monitor(config, max_blocks=40, duration_s=60, start_number=0,
                         client_factory=factory)
    assert sorted(builders) == ["arbitrum_like-ingest", "broken-ingest"]
    broken = report["chains"]["broken"]
    assert broken["errors"] == ["ingest: no route to broken"]
    assert broken["blocks_ingested"] == broken["normalized_records"] == 0
    arb = report["chains"]["arbitrum_like"]
    assert arb["errors"] == []
    assert arb["blocks_ingested"] == arb["normalized_records"] == 40
    assert len(read_lines(config.output_dir / "arbitrum_like" / "raw.jsonl")) == 40


def test_monitor_closes_only_the_clients_it_built(tmp_path, monkeypatch):
    built = []

    class RecordingClient(RpcClient):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.closed = False
            built.append(self)

        def close(self):
            self.closed = True
            super().close()

    monkeypatch.setattr("evmon.rpc.RpcClient", RecordingClient)
    scenario = constant_fee_scenario(block_count=20)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    with SimNodeServer(ledger, clock) as server:
        config = load_config(write_config(tmp_path, [
            network_entry("chain_a", 1, rpc_url=server.url),
            network_entry("chain_b", 2, rpc_url=server.url),
        ]))
        report = run_monitor(config, max_blocks=20, duration_s=60, start_number=0)
        assert [c.closed for c in built] == [True, True]
        run_monitor(config, max_blocks=20, duration_s=60, start_number=0,
                    client_factory=lambda p: RecordingClient(p.rpc_url, p.chain))
        assert [c.closed for c in built] == [True, True, False, False]  # the caller's to close
        for client in built[2:]:
            client.close()
    assert report["chains"]["chain_a"]["blocks_ingested"] == 20


def test_replay_of_recorded_monitor_run_matches(tmp_path, monkeypatch):
    """Replaying a two-chain monitor run's raw streams, concatenated,
    reproduces every file it wrote, run_report.json included, at a
    3-record step and at the default step. 1,234 blocks per chain is not
    a multiple of the 500-record step, so the last step runs at the end
    of the run."""
    arb = constant_fee_scenario(block_count=1234)
    eth = adaptive_fee_scenario(block_count=1234)
    ledgers = {"arbitrum_like": generate_scenario(arb), "ethereum_like": generate_scenario(eth)}
    clock = ManualClock(max(arb.start_time_s, eth.start_time_s) + 10**6)
    config = load_config(write_config(tmp_path, [
        network_entry("arbitrum_like", 42161, priority_policy="exclude"),
        network_entry("ethereum_like", 1),
    ]))
    for step in (3, cli._STEP):
        monkeypatch.setattr(cli, "_STEP", step)
        monitor_out = tmp_path / f"live_{step}"
        report = run_monitor(
            dataclasses.replace(config, output_dir=monitor_out),
            max_blocks=1234, start_number=0,
            client_factory=lambda p: LedgerRpcClient(ledgers[p.chain.name], clock, p.chain))
        assert all(entry["blocks_ingested"] == entry["normalized_records"] == 1234
                   and entry["errors"] == [] for entry in report["chains"].values())
        recorded = tmp_path / f"recorded_{step}.jsonl"
        recorded.write_bytes(b"".join((monitor_out / chain / "raw.jsonl").read_bytes()
                                      for chain in ledgers))
        replay_out = tmp_path / f"replayed_{step}"
        run_replay(recorded, dataclasses.replace(config, output_dir=replay_out))
        live = output_bytes(monitor_out)
        assert len(live) == 1 + 7 * len(ledgers)  # run_report.json, six files and dead letters
        assert live == output_bytes(replay_out)


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


@pytest.mark.parametrize("command,input_name,out_name,clash", [
    ("stats", "series.jsonl", "series.jsonl", "the output path"),
    ("stats", "series.jsonl", "sub/../series.jsonl", "the output path"),
    ("plot", "series.jsonl", "series.jsonl", "the SVG path"),
    ("plot", "series.csv", "series.svg", "the CSV path"),
    ("plot", "series.jsonl", "chart.csv", "the SVG path"),
], ids=["stats-input", "stats-input-respelled", "plot-svg-input", "plot-csv-input",
        "plot-csv-svg"])
def test_stats_and_plot_refuse_to_overwrite_a_path_they_use(tmp_path, capsys, command,
                                                            input_name, out_name, clash):
    """No output path may be the input, nor plot's CSV its SVG: the command
    exits 2 naming the clash, before it writes anything."""
    (tmp_path / "sub").mkdir()
    path = tmp_path / input_name
    path.write_text(sample_line(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.0),
                    encoding="utf-8")
    before = path.read_bytes()
    assert main([command, "--input", str(path), "--out", str(tmp_path / out_name)]) == 2
    assert clash in capsys.readouterr().err
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["sub", input_name])


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


def test_plot_escapes_the_chain_name_in_its_svg(tmp_path):
    """A chain name with XML metacharacters still gives a well-formed SVG,
    whose title reads the name as it is."""
    chain = ChainRef("a<b&c", 1)
    path = tmp_path / "series.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sample_line(chain, 0, 0, MetricKind.GAS_PRICE_GWEI, 1.0))
        fh.write(sample_line(chain, 1, 30, MetricKind.GAS_PRICE_GWEI, 3.0))
    run_plot(path, 60, tmp_path / "plot.svg")
    root = ElementTree.parse(tmp_path / "plot.svg").getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a<b&c gas_price_gwei (bucket mean, 60s)" in texts


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
    assert not (tmp_path / "out").exists()  # no output file was opened

    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", "--input", str(empty)]) == 2

    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text("{not json\n", encoding="utf-8")
    assert main(["replay", "--input", str(malformed), "--config", str(config)]) == 2

    (tmp_path / "two").mkdir()
    unconfigured, _ = two_chain_fixture(tmp_path / "two", blocks=5)
    assert main(["replay", "--input", str(unconfigured), "--config", str(config)]) == 2

    # out-of-range monitor flags are usage errors; --duration-s bounds a run that starts anyway
    for flag, value in [("--start-block", "-1"), ("--start-block", "1.5"),
                        ("--max-blocks", "0"), ("--max-blocks", "-3"),
                        ("--duration-s", "0"), ("--duration-s", "-1"),
                        ("--duration-s", "nan"), ("--duration-s", "inf")]:
        with pytest.raises(SystemExit) as exited:
            main(["monitor", "--config", str(config), "--duration-s", "0.2", flag, value])
        assert exited.value.code == 2, (flag, value)


def disk_full_on_10th_normalized_line(monkeypatch):
    normalized_line = records.normalized_line
    calls = []

    def disk_full(record, *args):
        calls.append(record)
        if len(calls) == 10:
            raise OSError("disk full")
        return normalized_line(record, *args)

    monkeypatch.setattr(records, "normalized_line", disk_full)


def test_replay_with_a_chain_error_exits_4(tmp_path, monkeypatch, capsys):
    """A replay that ran to its end but whose report holds a chain error
    exits 4 and names the error; the report and the files are written."""
    input_path, config_path = two_chain_fixture(tmp_path, blocks=20)
    disk_full_on_10th_normalized_line(monkeypatch)
    assert main(["replay", "--input", str(input_path), "--config", str(config_path)]) == 4
    assert "chain error: arbitrum_like: normalize: disk full" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "run_report.json").read_text(encoding="utf-8"))
    assert report["chains"]["ethereum_like"]["normalized_records"] == 20


def test_monitor_with_a_chain_error_exits_4(tmp_path, monkeypatch, capsys):
    scenario = constant_fee_scenario(block_count=20)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**6)
    disk_full_on_10th_normalized_line(monkeypatch)
    with SimNodeServer(ledger, clock) as server:
        config = write_config(tmp_path, [network_entry("arbitrum_like", 42161,
                                                       rpc_url=server.url)])
        assert main(["monitor", "--config", str(config), "--max-blocks", "20",
                     "--start-block", "0"]) == 4
    assert "chain error: arbitrum_like: normalize: disk full" in capsys.readouterr().err
    assert (tmp_path / "out" / "run_report.json").exists()


def test_plot_bucket_must_be_positive_before_the_input_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    for value in ("0", "-5", "1.5"):
        with pytest.raises(SystemExit) as exited:
            main(["plot", "--input", str(missing), "--bucket", value,
                  "--out", str(tmp_path / "plot.svg")])
        assert exited.value.code == 2, value
        assert f"--bucket: must be a positive integer, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "plot.csv").exists()


def test_monitor_restores_the_signal_handlers_it_replaced(tmp_path):
    config = write_config(tmp_path, [network_entry("a", 1)])
    int_before, term_before = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
    assert int_before is signal.default_int_handler
    assert main(["monitor", "--config", str(config), "--duration-s", "0.2"]) == 0
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert signal.getsignal(signal.SIGTERM) == term_before


@pytest.mark.parametrize("key,value", [("number", 5.7), ("base_fee_wei", 3.9), ("ts", "100"),
                                       ("gas_used", True), ("number", -1)])
def test_replay_of_a_value_that_is_not_a_json_integer_exits_2(tmp_path, capsys, key, value):
    input_path, config_path = two_chain_fixture(tmp_path, blocks=5)
    lines = input_path.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = json.loads(lines[3])
    bad[key] = value
    lines[3] = json.dumps(bad) + "\n"
    input_path.write_text("".join(lines), encoding="utf-8")
    assert main(["replay", "--input", str(input_path), "--config", str(config_path)]) == 2
    assert f"line 4: {key} must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_report.json").exists()


def test_replay_of_a_chain_id_that_is_not_its_profiles_exits_2(tmp_path, capsys):
    """A header named as a configured chain but carrying another chain_id
    ends the replay at that record with both ids in the error, as a chain
    with no profile does: it is not written to raw.jsonl and does not
    become a dead letter."""
    fixtures = Path(__file__).parent / "fixtures"
    lines = read_lines(fixtures / "replay_fixture.jsonl")[:50]
    assert all(json.loads(line)["chain"] == "arbitrum_like" for line in lines)
    input_path = tmp_path / "renumbered.jsonl"
    input_path.write_text("".join(
        json.dumps({**json.loads(line), "chain_id": 7}) + "\n" for line in lines),
        encoding="utf-8")
    config = json.loads((fixtures / "replay_config.json").read_text(encoding="utf-8"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config, "output_dir": str(tmp_path / "out")}),
                           encoding="utf-8")
    assert main(["replay", "--input", str(input_path), "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "'arbitrum_like' with chain_id 7" in err and "chain_id 42161" in err
    assert not (tmp_path / "out" / "run_report.json").exists()
    assert read_lines(tmp_path / "out" / "arbitrum_like" / "raw.jsonl") == []


def test_replay_malformed_line_after_valid_records_exits_2(tmp_path):
    """The bad line ends the run after the consumers ran the records before
    it and ended: every per-block file holds each of those records, no
    run_report.json is written and no thread is left running."""
    input_path, config_path = two_chain_fixture(tmp_path, blocks=50)
    recorded = collections.defaultdict(list)
    for line in read_lines(input_path):
        recorded[json.loads(line)["chain"]].append(line)
    with open(input_path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    threads_before = set(threading.enumerate())
    assert main(["replay", "--input", str(input_path), "--config", str(config_path)]) == 2
    assert set(threading.enumerate()) <= threads_before
    assert not (tmp_path / "out" / "run_report.json").exists()
    assert sorted(recorded) == ["arbitrum_like", "ethereum_like"]
    for chain, lines in recorded.items():
        chain_dir = tmp_path / "out" / chain
        assert read_lines(chain_dir / "raw.jsonl") == lines
        assert [json.loads(line)["number"] for line in read_lines(
            chain_dir / "normalized.jsonl")] == list(range(50))
        for kind in MetricKind:
            assert [json.loads(line)["number"] for line in read_lines(
                chain_dir / f"{kind.value}.jsonl")] == list(range(50))


@pytest.mark.parametrize("line", ["[1,2]", "5", "null", '"x"'])
def test_replay_line_that_is_not_an_object_exits_2(tmp_path, line):
    input_path, config_path = two_chain_fixture(tmp_path, blocks=5)
    with open(input_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert main(["replay", "--input", str(input_path), "--config", str(config_path)]) == 2
    assert not (tmp_path / "out" / "run_report.json").exists()


def test_main_replay_and_plot_end_to_end(tmp_path):
    input_path, config_path = two_chain_fixture(tmp_path, blocks=30)
    assert main(["replay", "--input", str(input_path), "--config", str(config_path)]) == 0
    series = tmp_path / "out" / "arbitrum_like" / "gas_price_gwei.jsonl"
    assert main(["stats", "--input", str(series)]) == 0
    assert main(["plot", "--input", str(series), "--bucket", "60",
                 "--out", str(tmp_path / "arb.svg")]) == 0
    assert (tmp_path / "arb.csv").exists()
