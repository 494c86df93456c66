"""Operator-facing command line: monitor, replay, stats, plot.

monitor wires the full pipeline per configured chain: an ingest poll loop
feeding a raw topic, a normalization consumer publishing to a normalized
topic, and one metric pipeline per metric kind consuming that topic in its
own consumer group (the broker's fan-out). The topics carry the frozen
model records themselves; each output file has exactly one writer thread,
the only place its records are serialized. A consumer sleeps on the log
until the next append or until its producer closes the topic, which ends
its stream; a normalize consumer that dies closes its raw topic, which
stops the chain's ingest. replay drives the same pipelines synchronously
from a recorded JSONL stream, so its outputs are byte-identical across
runs.

Exit codes: 0 success, 1 config error, 2 input/data error, 3 runtime
abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from evmon import cep, metrics, records
from evmon.cep import RunReport
from evmon.ingest import BlockSource, IngestCursor, RpcClient, poll_chain
from evmon.model import (
    ChainRef,
    GasQuantity,
    InvalidProfile,
    MetricKind,
    NetworkProfile,
    NormalizedBlockRecord,
    OverrideLimit,
    PriorityPolicy,
    RawBlockHeader,
    ReportedLimit,
    SummaryStats,
    ValidatedProfile,
    validate_profile,
)
from evmon.normalize import Normalizer
from evmon.records import WindowSummary
from evmon.streamlog import AtOffset, StreamLog, TopicClosed

log = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "EVMON_OUTPUT_DIR"
METRIC_KINDS = (MetricKind.GAS_PRICE_GWEI, MetricKind.BLOCK_USAGE_RATIO)


class ConfigParse(Exception):
    """The run configuration failed to parse or validate."""


class InputDataError(ValueError):
    """Input records are inconsistent with the configuration."""


@dataclass(frozen=True)
class RunConfig:
    networks: tuple[ValidatedProfile, ...]
    output_dir: Path
    window_s: int = 300
    downsample_bucket_s: int = 300
    topic_retention: int = 100_000


def _profile_from_dict(obj: dict[str, Any]) -> NetworkProfile:
    name = obj.get("name", "<unnamed>")
    for key in ("name", "chain_id", "rpc_url"):
        if key not in obj:
            raise ConfigParse(f"network {name!r}: missing {key}")
    limit_obj = obj.get("limit_policy", {"type": "reported"})
    if limit_obj.get("type") == "reported":
        limit_policy: ReportedLimit | OverrideLimit = ReportedLimit()
    elif limit_obj.get("type") == "override":
        try:
            limit_policy = OverrideLimit(GasQuantity(int(limit_obj["effective_limit"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigParse(f"network {name!r}: bad override limit ({exc})") from exc
    else:
        raise ConfigParse(f"network {name!r}: unknown limit_policy {limit_obj!r}")
    try:
        priority = PriorityPolicy(obj.get("priority_policy", "include"))
    except ValueError as exc:
        raise ConfigParse(f"network {name!r}: {exc}") from None
    try:
        return NetworkProfile(
            chain=ChainRef(name=obj["name"], chain_id=int(obj["chain_id"])),
            rpc_url=obj["rpc_url"],
            poll_interval_ms=int(obj.get("poll_interval_ms", 1000)),
            limit_policy=limit_policy,
            priority_policy=priority,
            constant_base_fee_expected=bool(obj.get("constant_base_fee_expected", False)),
            base_fee_tolerance_wei=int(obj.get("base_fee_tolerance_wei", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"network {name!r}: {exc}") from exc


def load_config(path: Path | str) -> RunConfig:
    """Parse and validate a run configuration file (JSON).

    Every network profile passes validate_profile; InvalidProfile
    propagates with the network name in its message. The output directory
    can be overridden with the EVMON_OUTPUT_DIR environment variable.
    """
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigParse(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigParse(f"{path}: invalid JSON ({exc})") from exc
    networks_obj = obj.get("networks")
    if not isinstance(networks_obj, list) or not networks_obj:
        raise ConfigParse("config needs a non-empty networks list")
    profiles = []
    seen_names = set()
    for entry in networks_obj:
        profile = _profile_from_dict(entry)
        if profile.chain.name in seen_names:
            raise ConfigParse(f"duplicate chain name {profile.chain.name!r}")
        seen_names.add(profile.chain.name)
        profiles.append(validate_profile(profile))
    output_dir = os.environ.get(OUTPUT_DIR_ENV) or obj.get("output_dir", "out")
    try:
        config = RunConfig(
            networks=tuple(profiles),
            output_dir=Path(output_dir),
            window_s=int(obj.get("window_s", 300)),
            downsample_bucket_s=int(obj.get("downsample_bucket_s", 300)),
            topic_retention=int(obj.get("topic_retention", 100_000)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigParse(str(exc)) from exc
    if config.window_s <= 0 or config.downsample_bucket_s <= 0 or config.topic_retention <= 0:
        raise ConfigParse("window_s, downsample_bucket_s and topic_retention must be positive")
    return config


# --- the per-chain pipeline engine ------------------------------------------


@dataclass
class _ChainOutcome:
    blocks_ingested: int = 0
    # by pipeline: "normalize" and each metric kind
    reports: dict[str, RunReport] = field(default_factory=dict)
    full_run_values: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _raw_topic(chain: str) -> str:
    return f"raw.{chain}"


def _norm_topic(chain: str) -> str:
    return f"normalized.{chain}"


def _drain(broker: StreamLog, topic: str, group: str) -> Iterator[Any]:
    """Yield a topic's records from its first one, the very objects
    appended, until caught up on a closed topic.

    Blocks on the log only after an empty poll. Commits after every batch,
    so the group's progress would survive a handle loss. A consumer that
    starts or falls behind retention stops with OffsetEvicted instead of
    skipping records.
    """
    handle = broker.subscribe(topic, group, AtOffset(0))
    while True:
        batch = broker.poll(handle, 500)
        if batch:
            for _, record in batch:
                yield record
            broker.commit(handle, batch[-1][0])
        elif not broker.wait(handle):
            return


def _normalize_stages(
    profile: ValidatedProfile,
    broker: StreamLog,
    raw_file: TextIO,
    norm_file: TextIO,
) -> tuple[cep.Stage, ...]:
    normalizer = Normalizer(profile)
    norm_topic = _norm_topic(profile.chain.name)

    def tap_raw(header: RawBlockHeader) -> RawBlockHeader:
        raw_file.write(records.to_line(records.header_to_dict(header)))
        return header

    def publish(record: NormalizedBlockRecord) -> None:
        # write first: a record whose line failed must not reach the metrics
        norm_file.write(records.to_line(records.normalized_to_dict(record)))
        broker.append(norm_topic, record)

    return (cep.Map(tap_raw), cep.Map(normalizer.normalize), cep.Sink(publish))


def _metric_stages(
    kind: MetricKind,
    window_s: int,
    sample_file: TextIO,
    window_file: TextIO,
    collector: list[float],
) -> tuple[cep.Stage, ...]:
    make_sample = (
        metrics.gas_price_sample
        if kind is MetricKind.GAS_PRICE_GWEI
        else metrics.block_usage_sample
    )

    def tap(sample: Any) -> Any:
        sample_file.write(records.to_line(records.sample_to_dict(sample)))
        collector.append(sample.value)
        return sample

    def aggregate(window: cep.FlushedWindow) -> WindowSummary:
        return WindowSummary(
            chain=window.assignment.key,
            kind=kind,
            window_start=window.assignment.start,
            window_end=window.assignment.end,
            stats=metrics.summarize_samples(window.records),
            partial=window.partial,
        )

    def sink(summary: WindowSummary) -> None:
        window_file.write(records.to_line(records.window_summary_to_dict(summary)))

    return (
        cep.Map(make_sample),
        cep.Map(tap),
        cep.TumblingWindow(window_s, aggregate),
        cep.Sink(sink),
    )


_CHAIN_FILES = (
    "raw.jsonl",
    "normalized.jsonl",
    "gas_price_gwei.jsonl",
    "block_usage_ratio.jsonl",
    "gas_price_gwei_windows.jsonl",
    "block_usage_ratio_windows.jsonl",
)


def _open_chain_files(stack: ExitStack, chain_dir: Path) -> dict[str, TextIO]:
    chain_dir.mkdir(parents=True, exist_ok=True)
    return {
        name: stack.enter_context(open(chain_dir / name, "w", encoding="utf-8", buffering=1))
        for name in _CHAIN_FILES
    }


def _write_dead_letters(chain_dir: Path, outcome: _ChainOutcome) -> None:
    with open(chain_dir / "dead_letters.jsonl", "w", encoding="utf-8") as fh:
        for pipeline_name, report in outcome.reports.items():
            for dead in report.dead_letters:
                fh.write(records.to_line({"pipeline": pipeline_name, "stage": dead.stage_index,
                                          "reason": dead.reason}))


def _run_chain(
    profile: ValidatedProfile,
    config: RunConfig,
    broker: StreamLog,
    outcome: _ChainOutcome,
    stop: threading.Event,
    *,
    client: BlockSource | None = None,
    replay_records: list[RawBlockHeader] | None = None,
    max_blocks: int | None = None,
    start_number: int | None = None,
) -> None:
    """Run one chain's ingest + pipelines to completion.

    Live mode (client) spawns the poll loop and the three consumers as
    threads; replay mode (replay_records) appends the recorded stream and
    runs each pipeline synchronously, which makes outputs byte-stable. A
    pipeline that aborts still leaves its report, and an error naming it.
    Each producer closes its topic when it ends; the normalize consumer
    also closes the raw topic, so ingest stops when normalize dies.
    """
    chain = profile.chain.name
    chain_dir = config.output_dir / chain
    raw_topic, norm_topic = _raw_topic(chain), _norm_topic(chain)

    with ExitStack() as stack:
        files = _open_chain_files(stack, chain_dir)
        pipelines = {"normalize": cep.Pipeline(
            source=_drain(broker, raw_topic, "normalize"),
            stages=_normalize_stages(profile, broker, files["raw.jsonl"],
                                     files["normalized.jsonl"]),
        )}
        for kind in METRIC_KINDS:
            collector: list[float] = []
            outcome.full_run_values[kind.value] = collector
            pipelines[kind.value] = cep.Pipeline(
                source=_drain(broker, norm_topic, f"metric.{kind.value}"),
                stages=_metric_stages(kind, config.window_s, files[f"{kind.value}.jsonl"],
                                      files[f"{kind.value}_windows.jsonl"], collector),
            )

        def emit(header: RawBlockHeader) -> None:
            broker.append(raw_topic, header)
            outcome.blocks_ingested += 1

        def ingest() -> None:
            try:
                if replay_records is not None:
                    for header in replay_records:
                        emit(header)
                else:
                    assert client is not None
                    cursor = IngestCursor(chain=profile.chain, start_number=start_number)
                    poll_chain(profile, cursor, emit, client=client, stop=stop,
                               max_blocks=max_blocks)
            except TopicClosed:
                pass  # the normalize consumer died and closed the raw topic
            except Exception as exc:  # noqa: BLE001 - isolate this chain
                outcome.errors.append(f"ingest: {exc}")
                log.exception("%s: ingest failed", chain)
            finally:
                broker.close(raw_topic)

        def consume(name: str) -> None:
            try:
                outcome.reports[name] = cep.run_pipeline(pipelines[name])
            except cep.PipelineFailure as exc:
                outcome.reports[name] = exc.report
                outcome.errors.append(f"{name}: {exc.cause}")
                log.exception("%s: %s pipeline failed", chain, name)
            finally:
                if name == "normalize":
                    broker.close(raw_topic)
                    broker.close(norm_topic)

        if replay_records is not None:
            ingest()
            for name in pipelines:
                consume(name)
        else:
            workers = [threading.Thread(target=ingest, name=f"{chain}-ingest")]
            workers += [threading.Thread(target=consume, args=(name,), name=f"{chain}-{name}")
                        for name in pipelines]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()

    _write_dead_letters(chain_dir, outcome)


def _build_report(config: RunConfig, outcomes: dict[str, _ChainOutcome]) -> dict[str, Any]:
    chains: dict[str, Any] = {}
    for chain, outcome in outcomes.items():
        norm = outcome.reports["normalize"]
        samples = {}
        windows = {}
        full_run: dict[str, Any] = {}
        for kind in METRIC_KINDS:
            report = outcome.reports[kind.value]
            samples[kind.value] = report.stage_out[0]
            windows[kind.value] = report.records_out
            values = outcome.full_run_values[kind.value]
            full_run[kind.value] = (
                records.stats_to_dict(metrics.summarize(values)) if values else None
            )
        chains[chain] = {
            "blocks_ingested": outcome.blocks_ingested,
            "raw_records": norm.records_in,
            "normalized_records": norm.records_out,
            "samples": samples,
            "windows": windows,
            "dead_letters": sum(len(r.dead_letters) for r in outcome.reports.values()),
            "full_run_stats": full_run,
            "errors": outcome.errors,
        }
    return {
        "window_s": config.window_s,
        "downsample_bucket_s": config.downsample_bucket_s,
        "chains": chains,
    }


def _write_report(config: RunConfig, report: dict[str, Any]) -> None:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    path = config.output_dir / "run_report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def run_monitor(
    config: RunConfig,
    *,
    max_blocks: int | None = None,
    duration_s: float | None = None,
    stop_event: threading.Event | None = None,
    client_factory: Callable[[ValidatedProfile], BlockSource] | None = None,
    start_number: int | None = None,
) -> dict[str, Any]:
    """Monitor all configured chains until stopped.

    Each chain runs in isolation: an endpoint failure degrades only that
    chain. Stops when stop_event fires, duration_s elapses, or every chain
    has emitted max_blocks blocks. Returns (and writes) the run report;
    shutdown flushes open windows as partial summaries.
    """
    stop = stop_event if stop_event is not None else threading.Event()
    if duration_s is not None:
        timer = threading.Timer(duration_s, stop.set)
        timer.daemon = True
        timer.start()
    if client_factory is None:
        client_factory = lambda profile: RpcClient(profile.rpc_url, profile.chain)  # noqa: E731

    broker = StreamLog(default_retention=config.topic_retention)
    outcomes = {profile.chain.name: _ChainOutcome() for profile in config.networks}
    for profile in config.networks:
        broker.create_topic(_raw_topic(profile.chain.name))
        broker.create_topic(_norm_topic(profile.chain.name))

    chain_threads = []
    for profile in config.networks:
        thread = threading.Thread(
            target=_run_chain,
            args=(profile, config, broker, outcomes[profile.chain.name], stop),
            kwargs={
                "client": client_factory(profile),
                "max_blocks": max_blocks,
                "start_number": start_number,
            },
            name=f"chain-{profile.chain.name}",
        )
        thread.start()
        chain_threads.append(thread)
    for thread in chain_threads:
        thread.join()

    report = _build_report(config, outcomes)
    _write_report(config, report)
    return report


def run_replay(input_path: Path | str, config: RunConfig) -> dict[str, Any]:
    """Replay a recorded RawBlockHeader JSONL through the full pipeline.

    Chains are processed sequentially in config order; outputs are a pure
    function of (input bytes, config), hence byte-identical across runs.
    """
    input_path = Path(input_path)
    by_chain: dict[str, list[RawBlockHeader]] = {}
    for header in records.read_jsonl(input_path, records.header_from_dict):
        by_chain.setdefault(header.chain.name, []).append(header)
    configured = {profile.chain.name for profile in config.networks}
    unknown = sorted(set(by_chain) - configured)
    if unknown:
        raise InputDataError(f"input contains chains with no configured profile: {unknown}")

    broker = StreamLog(default_retention=config.topic_retention)
    outcomes = {profile.chain.name: _ChainOutcome() for profile in config.networks}
    stop = threading.Event()
    for profile in config.networks:
        chain = profile.chain.name
        chain_records = by_chain.get(chain, [])
        retention = max(config.topic_retention, len(chain_records) + 1)
        broker.create_topic(_raw_topic(chain), max_records=retention)
        broker.create_topic(_norm_topic(chain), max_records=retention)
        _run_chain(profile, config, broker, outcomes[chain], stop,
                   replay_records=chain_records)

    report = _build_report(config, outcomes)
    _write_report(config, report)
    return report


def _load_series(input_path: Path) -> metrics.Series:
    samples = list(records.read_jsonl(input_path, records.sample_from_dict))
    if not samples:
        raise metrics.EmptySeries(f"{input_path} contains no samples")
    return metrics.Series.from_samples(samples)


def run_stats(input_path: Path | str, out_path: Path | str | None = None) -> SummaryStats:
    """Whole-series summary statistics for one metric JSONL file."""
    input_path = Path(input_path)
    series = _load_series(input_path)
    stats = metrics.summarize(series.values())
    out = Path(out_path) if out_path is not None else input_path.with_suffix(".stats.json")
    payload = {"chain": series.chain.name, "kind": series.kind.value,
               **records.stats_to_dict(stats)}
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"{series.chain.name} {series.kind.value}: count={stats.count} "
          f"median={stats.median} q1={stats.q1} q3={stats.q3} iqr={stats.iqr} "
          f"min={stats.min} max={stats.max}")
    return stats


def run_plot(
    input_path: Path | str, bucket_s: int, out_path: Path | str
) -> list[metrics.BucketPoint]:
    """Downsample one metric JSONL file to CSV buckets plus an SVG chart.

    The CSV lands next to the SVG (same stem, .csv); both renderings are
    deterministic functions of the input bytes and bucket width.
    """
    from evmon.svgplot import render_line_chart

    input_path = Path(input_path)
    out_path = Path(out_path)
    series = _load_series(input_path)
    buckets = metrics.downsample(series.samples, bucket_s)
    csv_path = out_path.with_suffix(".csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("bucket_start,mean,count\n")
        for bucket in buckets:
            fh.write(f"{bucket.start},{bucket.mean!r},{bucket.count}\n")
    svg = render_line_chart(
        [(float(b.start), b.mean) for b in buckets],
        title=f"{series.chain.name} {series.kind.value} "
              f"(bucket mean, {bucket_s}s)",
        x_label="unix time (s)",
        y_label=series.kind.value,
    )
    out_path.write_text(svg, encoding="utf-8")
    print(f"wrote {len(buckets)} buckets to {csv_path} and {out_path}")
    return buckets


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmon",
        description="Stream-based gas-price and block-capacity monitoring for EVM networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    monitor = sub.add_parser("monitor", help="monitor configured chains live")
    monitor.add_argument("--config", required=True, help="run config JSON")
    monitor.add_argument("--max-blocks", type=int, default=None,
                         help="stop each chain after this many blocks")
    monitor.add_argument("--duration-s", type=float, default=None,
                         help="stop the whole run after this many seconds")
    monitor.add_argument("--start-block", type=int, default=None,
                         help="first block to ingest (default: head at startup)")

    replay = sub.add_parser("replay", help="replay a recorded header stream")
    replay.add_argument("--input", required=True, help="RawBlockHeader JSONL")
    replay.add_argument("--config", required=True, help="run config JSON")

    stats = sub.add_parser("stats", help="whole-series summary statistics")
    stats.add_argument("--input", required=True, help="metric sample JSONL")
    stats.add_argument("--out", default=None, help="output JSON path")

    plot = sub.add_parser("plot", help="downsample a series to CSV + SVG")
    plot.add_argument("--input", required=True, help="metric sample JSONL")
    plot.add_argument("--bucket", type=int, default=300, help="bucket width in seconds")
    plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "monitor":
            config = load_config(args.config)
            stop = threading.Event()
            signal.signal(signal.SIGINT, lambda *_: stop.set())
            signal.signal(signal.SIGTERM, lambda *_: stop.set())
            run_monitor(config, max_blocks=args.max_blocks, duration_s=args.duration_s,
                        stop_event=stop, start_number=args.start_block)
        elif args.command == "replay":
            config = load_config(args.config)
            run_replay(args.input, config)
        elif args.command == "stats":
            run_stats(args.input, args.out)
        elif args.command == "plot":
            run_plot(args.input, args.bucket, args.out)
    except (ConfigParse, InvalidProfile) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
