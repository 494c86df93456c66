"""Operator-facing command line: monitor, replay, stats, plot.

monitor and replay share one engine. Each configured chain has one
consumer of its raw topic: the normalize pipeline, whose sink pushes each
normalized record into one metric pipeline per metric kind in the same
thread. The consumer runs in the thread that feeds its topic, and no
thread ever blocks on the log. In both modes a consumer runs on what
its topic holds every 500 headers. replay runs in the calling thread:
its reader hands each header to its chain's consumer. monitor runs one
thread per chain, its ingest, which hands over each block it fetches;
ingest.poll_chain alone decides when else the consumer runs (its idle
callback). Each chain's files have one writer, which writes in offset
order, so replay's outputs are byte-identical across runs. A metric
pipeline whose file write fails is dropped; when normalize ends, the
consumer refuses every later header, which stops the chain's producer,
and flushes the metric pipelines' windows.

Exit codes: 0 success, 1 config error, 2 input/data error, 3 runtime
abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import signal
import sys
import threading
from array import array
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO, cast

from evmon import cep, metrics, records
from evmon.ingest import BlockSource, RpcClient, poll_chain
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
from evmon.streamlog import StreamLog

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


def _config_int(obj: dict[str, Any], key: str, default: int | None, where: str = "") -> int:
    """obj[key] (or default when absent), which must be a JSON integer; a
    bool, a fraction or a string is a ConfigParse, never coerced."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigParse(f"{where}{key} must be an integer, got {value!r}")
    return value


def _profile_from_dict(obj: Any) -> NetworkProfile:
    if not isinstance(obj, dict):
        raise ConfigParse(f"a networks entry must be an object, got {obj!r}")
    name = obj.get("name", "<unnamed>")
    for key in ("name", "chain_id", "rpc_url"):
        if key not in obj:
            raise ConfigParse(f"network {name!r}: missing {key}")
    for key in ("name", "rpc_url"):
        if not isinstance(obj[key], str):
            raise ConfigParse(f"network {name!r}: {key} must be a string, got {obj[key]!r}")
    constant_base_fee = obj.get("constant_base_fee_expected", False)
    if not isinstance(constant_base_fee, bool):
        raise ConfigParse(f"network {name!r}: constant_base_fee_expected must be true or "
                          f"false, got {constant_base_fee!r}")
    limit_obj = obj.get("limit_policy", {"type": "reported"})
    if not isinstance(limit_obj, dict):
        raise ConfigParse(f"network {name!r}: limit_policy must be an object, got {limit_obj!r}")
    if limit_obj.get("type") == "reported":
        limit_policy: ReportedLimit | OverrideLimit = ReportedLimit()
    elif limit_obj.get("type") == "override":
        effective_limit = _config_int(limit_obj, "effective_limit", None,
                                      f"network {name!r}: limit_policy.")
        try:
            limit_policy = OverrideLimit(GasQuantity(effective_limit))
        except ValueError as exc:
            raise ConfigParse(f"network {name!r}: bad override limit ({exc})") from exc
    else:
        raise ConfigParse(f"network {name!r}: unknown limit_policy {limit_obj!r}")
    try:
        priority = PriorityPolicy(obj.get("priority_policy", "include"))
    except ValueError as exc:
        raise ConfigParse(f"network {name!r}: {exc}") from None
    where = f"network {name!r}: "
    return NetworkProfile(
        chain=records.chain_ref(obj["name"], _config_int(obj, "chain_id", None, where)),
        rpc_url=obj["rpc_url"],
        poll_interval_ms=_config_int(obj, "poll_interval_ms", 1000, where),
        limit_policy=limit_policy,
        priority_policy=priority,
        constant_base_fee_expected=constant_base_fee,
        base_fee_tolerance_wei=_config_int(obj, "base_fee_tolerance_wei", 0, where),
    )


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
    if not isinstance(obj, dict):
        raise ConfigParse(f"{path}: the config must be a JSON object")
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
    if not isinstance(output_dir, str):
        raise ConfigParse(f"output_dir must be a string, got {output_dir!r}")
    config = RunConfig(
        networks=tuple(profiles),
        output_dir=Path(output_dir),
        window_s=_config_int(obj, "window_s", RunConfig.window_s),
        downsample_bucket_s=_config_int(obj, "downsample_bucket_s",
                                        RunConfig.downsample_bucket_s),
    )
    if config.window_s <= 0 or config.downsample_bucket_s <= 0:
        raise ConfigParse("window_s and downsample_bucket_s must be positive")
    return config


# --- the pipeline engine -----------------------------------------------------


@dataclass
class _ChainOutcome:
    blocks_ingested: int = 0
    full_run_values: dict[str, array] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


_STEP = 500  # headers per consumer step, and records per poll


class _ConsumerEnded(Exception):
    """A header offered to a chain's consumer after it ended."""


def _normalize_stages(profile: ValidatedProfile, files: dict[str, TextIO],
                      fan_out: Callable[[NormalizedBlockRecord], None]) -> tuple[cep.Stage, ...]:
    normalizer = Normalizer(profile)
    raw_file, norm_file = files["raw.jsonl"], files["normalized.jsonl"]

    def tap_raw(header: RawBlockHeader) -> RawBlockHeader:
        raw_file.write(records.header_line(header))
        return header

    def publish(record: NormalizedBlockRecord) -> None:
        # write first: a record whose line failed must not reach the metrics
        norm_file.write(records.normalized_line(record))
        fan_out(record)

    return (cep.Map(tap_raw), cep.Map(normalizer.normalize), cep.Sink(publish))


def _metric_stages(chain: ChainRef, kind: MetricKind, window_s: int, files: dict[str, TextIO],
                   collector: array) -> tuple[cep.Stage, ...]:
    sample_file, window_file = files[f"{kind.value}.jsonl"], files[f"{kind.value}_windows.jsonl"]
    make_sample = (
        metrics.gas_price_sample
        if kind is MetricKind.GAS_PRICE_GWEI
        else metrics.block_usage_sample
    )

    def tap(sample: Any) -> Any:
        sample_file.write(records.sample_line(sample))
        collector.append(sample.value)
        return sample

    def aggregate(window: cep.FlushedWindow) -> WindowSummary:
        return WindowSummary(
            chain=chain,
            kind=kind,
            window_start=window.start,
            window_end=window.end,
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
        name: stack.enter_context(open(chain_dir / name, "w", encoding="utf-8"))
        for name in _CHAIN_FILES
    }


class _ChainConsumer:
    """One chain's consumer of raw.<chain>: normalize, whose sink pushes
    each record into every metric pipeline still running, all in the
    thread that drives it, writing the chain's six files. A pipeline that
    aborts is dropped and leaves its report and an error naming it.

    Both modes drive it alike, from the thread that feeds the chain: take
    for each header, which steps every 500; run_held when the feed
    chooses (in monitor, poll_chain's idle); end finishes it.
    """

    def __init__(self, profile: ValidatedProfile, config: RunConfig, broker: StreamLog,
                 stack: ExitStack) -> None:
        self.chain = profile.chain
        self.topic = f"raw.{self.chain.name}"
        self.outcome = _ChainOutcome()
        self._unread = 0  # records appended since the last run_held
        self._broker = broker
        broker.create_topic(self.topic)
        self._handle = broker.subscribe(self.topic)
        self._files = _open_chain_files(stack, config.output_dir / self.chain.name)
        self._normalize = cep.PipelineRun(_normalize_stages(profile, self._files, self._fan_out))
        # every pipeline by name, normalize first: each run holds its report
        self.runs = {"normalize": self._normalize}
        for kind in METRIC_KINDS:
            self.outcome.full_run_values[kind.value] = collector = array("d")
            self.runs[kind.value] = cep.PipelineRun(
                _metric_stages(profile.chain, kind, config.window_s, self._files, collector))
        # (name, run) of each metric pipeline still running. _failed binds a
        # new tuple, so a loop over the old one goes on undisturbed.
        self._metric_runs = tuple(self.runs.items())[1:]
        self._ended = False

    def _failed(self, name: str, cause: BaseException) -> None:
        self._metric_runs = tuple(entry for entry in self._metric_runs if entry[0] != name)
        self.outcome.errors.append(f"{name}: {cause}")
        log.error("%s: %s pipeline failed", self.chain.name, name, exc_info=cause)

    def _fan_out(self, record: NormalizedBlockRecord) -> None:
        for name, run in self._metric_runs:
            try:
                run.push(record)
            except cep.PipelineFailure as exc:
                self._failed(name, exc.cause)

    def _held(self) -> Iterator[RawBlockHeader]:
        """The records the topic holds, the very objects appended,
        committing each batch; ends on the first empty poll."""
        while batch := self._broker.poll(self._handle, _STEP):
            for _, header in batch:
                yield header
            self._broker.commit(self._handle, batch[-1][0])

    def take(self, header: RawBlockHeader) -> None:
        """Append one header to the chain's topic and count it as ingested;
        every 500 unread ones, run the consumer. Raises _ConsumerEnded,
        with the header not counted, once the consumer ended."""
        if self._ended:
            raise _ConsumerEnded(self.chain.name)
        self._broker.append(self.topic, header)
        self.outcome.blocks_ingested += 1
        self._unread += 1
        if self._unread == _STEP:
            self.run_held()

    def run_held(self) -> None:
        """Push every record the topic holds through the pipelines, then
        flush the files; nothing to do when no record came since the last
        run. A failed normalize, or flush, ends the consumer."""
        if self._ended or not self._unread:
            return
        self._unread = 0
        push = self._normalize.push
        try:
            for header in self._held():
                push(header)
            for fh in self._files.values():
                fh.flush()
        except cep.PipelineFailure as exc:
            self.end(exc.cause)
        except OSError as exc:  # from a flush
            self.end(exc)

    def end(self, error: BaseException | None = None) -> None:
        """Refuse every later header, which stops the producer, and finish
        every pipeline still running, so open windows are written as
        partial. error is why normalize stopped early, if it did. Does
        nothing once ended."""
        if self._ended:
            return
        self._ended = True
        runs = self._metric_runs
        if error is None:
            runs = (("normalize", self._normalize), *runs)
        else:
            self._failed("normalize", error)
        for name, run in runs:
            try:
                run.finish()
            except cep.PipelineFailure as exc:
                self._failed(name, exc.cause)


def _run(config: RunConfig, drive: Callable[[dict[str, _ChainConsumer]], None]) -> dict[str, Any]:
    """Build every chain's consumer and let drive feed them. Then each
    consumer runs what its topic still holds and ends, and the run report
    is written and returned; if drive raised, its error propagates instead
    of the report. drive ends any thread it starts."""
    broker = StreamLog()
    with ExitStack() as stack:
        consumers = {profile.chain.name: _ChainConsumer(profile, config, broker, stack)
                     for profile in config.networks}
        try:
            drive(consumers)
        finally:
            for consumer in consumers.values():
                consumer.run_held()
                consumer.end()

    for chain, consumer in consumers.items():
        with open(config.output_dir / chain / "dead_letters.jsonl", "w", encoding="utf-8") as fh:
            for name, run in consumer.runs.items():
                for dead in run.report.dead_letters:
                    fh.write(records.to_line({"pipeline": name, "stage": dead.stage_index,
                                              "reason": dead.reason}))
    return _write_report(config, consumers)


def _write_report(config: RunConfig, consumers: dict[str, _ChainConsumer]) -> dict[str, Any]:
    chains: dict[str, Any] = {}
    for chain, consumer in consumers.items():
        outcome = consumer.outcome
        reports = {name: run.report for name, run in consumer.runs.items()}
        norm = reports["normalize"]
        samples = {}
        windows = {}
        full_run: dict[str, Any] = {}
        for kind in METRIC_KINDS:
            report = reports[kind.value]
            samples[kind.value] = report.stage_out[1]  # the samples tap wrote
            windows[kind.value] = report.records_out
            values = outcome.full_run_values[kind.value]
            full_run[kind.value] = (
                records.stats_to_dict(metrics.summarize(values)) if values else None
            )
        chains[chain] = {
            "blocks_ingested": outcome.blocks_ingested,
            "raw_records": norm.stage_out[0],  # the lines tap_raw wrote
            "normalized_records": norm.records_out,
            "samples": samples,
            "windows": windows,
            "dead_letters": sum(len(r.dead_letters) for r in reports.values()),
            "full_run_stats": full_run,
            "errors": outcome.errors,
        }
    report = {
        "window_s": config.window_s,
        "downsample_bucket_s": config.downsample_bucket_s,
        "chains": chains,
    }
    config.output_dir.mkdir(parents=True, exist_ok=True)
    path = config.output_dir / "run_report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return report


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

    Each chain runs in one thread of its own, its ingest, so an endpoint
    failure degrades only that chain. Ingest appends each block it fetches
    to the chain's raw topic, and poll_chain's idle runs the consumer, so
    during a backlog a block's output lines trail its fetch by at most one
    poll interval plus one fetch. Stops when stop_event fires, duration_s
    elapses, or every chain has emitted max_blocks blocks. Returns (and
    writes) the run report; shutdown flushes open windows as partial
    summaries. A chain thread that fails to start sets stop_event, which
    ends the chains already started, and its error propagates. Without a
    client_factory each chain gets an RpcClient, closed when its ingest
    ends; clients from a client_factory stay the caller's to close.
    """
    stop = stop_event if stop_event is not None else threading.Event()
    timer = None
    if duration_s is not None:
        timer = threading.Timer(duration_s, stop.set)
        timer.daemon = True
        timer.start()
    build_client = client_factory or (lambda profile: RpcClient(profile.rpc_url, profile.chain))

    def drive(consumers: dict[str, _ChainConsumer]) -> None:
        def ingest(profile: ValidatedProfile) -> None:
            consumer = consumers[profile.chain.name]
            client: BlockSource | None = None
            try:
                client = build_client(profile)
                poll_chain(profile, consumer.take, client=client, stop=stop,
                           max_blocks=max_blocks, start_number=start_number,
                           idle=consumer.run_held)
            except _ConsumerEnded:
                pass  # normalize ended, so the chain stops
            except Exception as exc:  # noqa: BLE001 - isolate this chain
                consumer.outcome.errors.append(f"ingest: {exc}")
                log.exception("%s: ingest failed", profile.chain.name)
            finally:
                if client_factory is None and client is not None:
                    cast(RpcClient, client).close()

        threads = [threading.Thread(target=ingest, args=(profile,),
                                    name=f"{profile.chain.name}-ingest")
                   for profile in config.networks]
        started: list[threading.Thread] = []
        try:
            for thread in threads:
                thread.start()
                started.append(thread)
        finally:
            if len(started) < len(threads):
                stop.set()  # end the threads that did start
            for thread in started:
                thread.join()

    try:
        return _run(config, drive)
    finally:
        if timer is not None:
            timer.cancel()  # a run that ended otherwise must not set the caller's event


def run_replay(input_path: Path | str, config: RunConfig) -> dict[str, Any]:
    """Replay a recorded RawBlockHeader JSONL through monitor's engine, in
    the calling thread.

    The reader is a pipeline whose sink hands each header to its chain's
    consumer, which appends it to the chain's raw topic and, every 500
    headers, runs on what the topic holds. So memory holds at most 500
    headers per chain. Outputs are a pure function of (input bytes,
    config). A chain's blocks_ingested is its number of input records. A
    record of an unconfigured chain, one whose chain_id is not its
    profile's, or a malformed line, raises at that record, once every
    consumer has run the records before it and ended.
    """
    input_path = Path(input_path)
    if not input_path.is_file():  # fail before the output files are truncated
        raise FileNotFoundError(f"no input file {input_path}")

    def drive(consumers: dict[str, _ChainConsumer]) -> None:
        def route(header: RawBlockHeader) -> None:
            chain = header.chain
            consumer = consumers.get(chain.name)
            if consumer is None:
                raise InputDataError(f"input contains chain {chain.name!r} "
                                     "with no configured profile")
            if chain is not consumer.chain and chain != consumer.chain:
                raise InputDataError(f"input contains chain {chain.name!r} with chain_id "
                                     f"{chain.chain_id}; its profile has chain_id "
                                     f"{consumer.chain.chain_id}")
            try:
                consumer.take(header)
            except _ConsumerEnded:  # its normalize pipeline died; the record still counts
                consumer.outcome.blocks_ingested += 1

        try:
            cep.run_pipeline(cep.Pipeline(
                source=records.read_jsonl(input_path, records.header_from_dict),
                stages=(cep.Sink(route),)))
        except cep.PipelineFailure as exc:
            error = exc.cause
        else:
            return
        raise error  # outside the handler, so it keeps its own type and chain

    return _run(config, drive)


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


def _number_flag(parse: Callable[[str], Any], rule: str,
                 ok: Callable[[Any], bool]) -> Callable[[str], Any]:
    """An argparse type: a value that does not parse or breaks the rule is a
    usage error (exit 2)."""
    def check(text: str) -> Any:
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmon",
        description="Stream-based gas-price and block-capacity monitoring for EVM networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    monitor = sub.add_parser("monitor", help="monitor configured chains live")
    monitor.add_argument("--config", required=True, help="run config JSON")
    monitor.add_argument("--max-blocks", default=None,
                         type=_number_flag(int, "a positive integer", lambda n: n > 0),
                         help="stop each chain after this many blocks")
    monitor.add_argument("--duration-s", default=None,
                         type=_number_flag(float, "a positive finite number",
                                           lambda s: 0 < s < math.inf),
                         help="stop the whole run after this many seconds")
    monitor.add_argument("--start-block", default=None,
                         type=_number_flag(int, "a non-negative integer", lambda n: n >= 0),
                         help="first block to ingest (default: head at startup)")

    replay = sub.add_parser("replay", help="replay a recorded header stream")
    replay.add_argument("--input", required=True, help="RawBlockHeader JSONL")
    replay.add_argument("--config", required=True, help="run config JSON")

    stats = sub.add_parser("stats", help="whole-series summary statistics")
    stats.add_argument("--input", required=True, help="metric sample JSONL")
    stats.add_argument("--out", default=None, help="output JSON path")

    plot = sub.add_parser("plot", help="downsample a series to CSV + SVG")
    plot.add_argument("--input", required=True, help="metric sample JSONL")
    plot.add_argument("--bucket", default=300,
                      type=_number_flag(int, "a positive integer", lambda n: n > 0),
                      help="bucket width in seconds")
    plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "monitor":
            config = load_config(args.config)
            stop = threading.Event()
            previous = {sig: signal.signal(sig, lambda *_: stop.set())
                        for sig in (signal.SIGINT, signal.SIGTERM)}
            try:
                run_monitor(config, max_blocks=args.max_blocks, duration_s=args.duration_s,
                            stop_event=stop, start_number=args.start_block)
            finally:
                for sig, handler in previous.items():
                    # None: the handler was not set from Python and cannot be put back
                    signal.signal(sig, signal.SIG_DFL if handler is None else handler)
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
