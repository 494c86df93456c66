"""Operator-facing command line: monitor, replay, stats, plot.

monitor and replay share one engine. Each configured chain has one
consumer of its raw topic, which steps over each batch of up to 500
headers it polls: the normalize pipeline runs over the whole batch, and
then one metric pipeline per metric kind runs over the records normalize
published, each a single loop in the same thread. The consumer runs in
the thread that feeds its topic, and no thread ever blocks on the log.
In both modes a consumer runs on what its topic holds every 500
headers. replay runs in the calling thread: its reader hands each header
to its chain's consumer. monitor runs one thread per chain, its ingest,
which hands over each block it fetches; ingest.poll_chain alone decides
when else the consumer runs (its idle callback). Each chain's files have
one writer, which writes in offset order, so replay's outputs are
byte-identical across runs, whatever the batch sizes. A metric pipeline
whose file write or flush fails is dropped; when normalize, or the flush
of its files, fails, the consumer refuses every later header, which
stops the chain's producer, and flushes the metric pipelines' windows.
Each count in the run report is the lines its file held at its last
successful flush or close.

Exit codes: 0 success, 1 config error, 2 input/data error, 3 runtime
abort, 4 a run whose report holds chain errors (monitor, replay).
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
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, TextIO, cast

from evmon import cep, metrics, records
from evmon.ingest import BlockSource, poll_chain
from evmon.model import (
    ChainRef,
    GasQuantity,
    InvalidProfile,
    MetricKind,
    NetworkProfile,
    NormalizedBlockRecord,
    PriorityPolicy,
    RawBlockHeader,
    SummaryStats,
)
from evmon.normalize import Normalizer
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
    """Every instance is valid, one made by dataclasses.replace included:
    construction raises ConfigParse for no networks, a repeated chain name,
    or a window_s or downsample_bucket_s that is not positive."""

    networks: tuple[NetworkProfile, ...]
    output_dir: Path
    window_s: int = 300
    downsample_bucket_s: int = 300

    def __post_init__(self) -> None:
        if not self.networks:
            raise ConfigParse("config needs a non-empty networks list")
        seen_names = set()
        for profile in self.networks:
            if profile.chain.name in seen_names:
                raise ConfigParse(f"duplicate chain name {profile.chain.name!r}")
            seen_names.add(profile.chain.name)
        if self.window_s <= 0 or self.downsample_bucket_s <= 0:
            raise ConfigParse("window_s and downsample_bucket_s must be positive")


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
        limit_override: GasQuantity | None = None
    elif limit_obj.get("type") == "override":
        effective_limit = _config_int(limit_obj, "effective_limit", None,
                                      f"network {name!r}: limit_policy.")
        try:
            limit_override = GasQuantity(effective_limit)
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
        limit_override=limit_override,
        priority_policy=priority,
        constant_base_fee_expected=constant_base_fee,
        base_fee_tolerance_wei=_config_int(obj, "base_fee_tolerance_wei", 0, where),
    )


def load_config(path: Path | str) -> RunConfig:
    """Parse and validate a run configuration file (JSON).

    A network entry that builds no valid NetworkProfile raises
    InvalidProfile with the network name in its message. The output
    directory can be overridden with the EVMON_OUTPUT_DIR environment
    variable.
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
    if not isinstance(networks_obj, list):
        raise ConfigParse("config needs a non-empty networks list")
    profiles = tuple(_profile_from_dict(entry) for entry in networks_obj)
    output_dir = os.environ.get(OUTPUT_DIR_ENV) or obj.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigParse(f"output_dir must be a string, got {output_dir!r}")
    return RunConfig(
        networks=profiles,
        output_dir=Path(output_dir),
        window_s=_config_int(obj, "window_s", RunConfig.window_s),
        downsample_bucket_s=_config_int(obj, "downsample_bucket_s",
                                        RunConfig.downsample_bucket_s),
    )


# --- the pipeline engine -----------------------------------------------------


_STEP = 500  # headers per consumer step, and records per poll


class _ConsumerEnded(Exception):
    """A header offered to a chain's consumer after it ended."""


def _metric_run(chain: ChainRef, kind: MetricKind, window_s: int, files: dict[str, TextIO],
                written: dict[str, int], collector: array) -> cep.WindowRun:
    """sample (stage 0), tap (1), window (2) and sink for one metric kind.
    The tap and the sink count in written, by file name, the lines they
    wrote; the tap collects the value of each sample it wrote."""
    sample_name = f"{kind.value}.jsonl"
    write_sample = files[sample_name].write
    window_name = f"{kind.value}_windows.jsonl"
    write_window = files[window_name].write
    sample_line, window_line, collect = records.sample_line, records.window_line, collector.append
    make_sample = (
        metrics.gas_price_sample
        if kind is MetricKind.GAS_PRICE_GWEI
        else metrics.block_usage_sample
    )

    def tap(sample: Any) -> None:
        write_sample(sample_line(sample))
        written[sample_name] += 1
        collect(sample.value)

    def aggregate(window: cep.FlushedWindow) -> str:
        return window_line(chain, kind, window.start, window.end,
                           metrics.summarize_samples(window.records), window.partial)

    def sink(line: str) -> None:
        write_window(line)
        written[window_name] += 1

    return cep.WindowRun(make_sample, tap, window_s, aggregate, sink)


# each pipeline's two files, by pipeline name
_PIPELINE_FILES = {
    "normalize": ("raw.jsonl", "normalized.jsonl"),
    **{kind.value: (f"{kind.value}.jsonl", f"{kind.value}_windows.jsonl")
       for kind in METRIC_KINDS},
}
_CHAIN_FILES = tuple(name for names in _PIPELINE_FILES.values() for name in names)


def _open_chain_files(stack: ExitStack, chain_dir: Path) -> dict[str, TextIO]:
    chain_dir.mkdir(parents=True, exist_ok=True)
    return {
        name: stack.enter_context(open(chain_dir / name, "w", encoding="utf-8"))
        for name in _CHAIN_FILES
    }


class _ChainConsumer:
    """One chain's consumer of raw.<chain>, which writes the chain's six
    files in the thread that drives it. Each step takes one polled batch:
    normalize runs over all of it, and then every metric pipeline still
    running over the records normalize published. A pipeline that aborts
    is dropped and leaves its dead letters and an error naming it.

    Both modes drive it alike, from the thread that feeds the chain: take
    for each header, which steps every 500; run_held when the feed
    chooses (in monitor, poll_chain's idle); end finishes it.
    """

    def __init__(self, profile: NetworkProfile, config: RunConfig, broker: StreamLog,
                 stack: ExitStack) -> None:
        self.chain = profile.chain
        self.topic = f"raw.{self.chain.name}"
        self.blocks_ingested = 0
        self.errors: list[str] = []
        # one value per sample line written, and per line on disk once the run ended
        self.full_run_values: dict[str, array] = {}
        self.lines = dict.fromkeys(_CHAIN_FILES, 0)  # by file name, its lines on disk
        self._written = dict.fromkeys(_CHAIN_FILES, 0)  # and the lines written into it
        self._unread = 0  # records appended since the last run_held
        self._broker = broker
        broker.create_topic(self.topic)
        self._handle = broker.subscribe(self.topic)
        self._files = _open_chain_files(stack, config.output_dir / self.chain.name)
        # whoever replaces normalize, a records writer or a sample function
        # (a test, the tracer) does so before the run builds its consumers
        self._normalize_fns = (records.header_line, self._files["raw.jsonl"].write,
                               Normalizer(profile).normalize, records.normalized_line,
                               self._files["normalized.jsonl"].write)
        # every pipeline's dead letters by name, normalize first
        self.dead_letters: dict[str, list[cep.DeadLetter]] = {"normalize": []}
        runs = []
        for kind in METRIC_KINDS:
            self.full_run_values[kind.value] = collector = array("d")
            run = _metric_run(profile.chain, kind, config.window_s, self._files,
                              self._written, collector)
            self.dead_letters[kind.value] = run.dead_letters
            runs.append((kind.value, run))
        # (name, run) of each metric pipeline still running. _failed binds a
        # new tuple, so a loop over the old one goes on undisturbed.
        self._metric_runs = tuple(runs)
        self._ended = False

    def _flush(self, pipeline: str) -> None:
        """Flush pipeline's files, counting the lines written into each one
        flushed as on disk. A file's count moves only here and when _failed
        closes it."""
        files, lines, written = self._files, self.lines, self._written
        for name in _PIPELINE_FILES[pipeline]:
            files[name].flush()
            lines[name] = written[name]

    def _failed(self, pipeline: str, exc: BaseException) -> None:
        """Drop pipeline, which writes nothing more, so its files are closed
        at once. Closing a file whose write or flush failed raises that
        failure again, the one reported here, so it is ignored rather than
        ending the run when the files are closed; such a file keeps the
        count of its last flush, and so do the pipeline's sample values."""
        self._metric_runs = tuple(entry for entry in self._metric_runs if entry[0] != pipeline)
        self.errors.append(f"{pipeline}: {exc}")
        log.error("%s: %s pipeline failed", self.chain.name, pipeline, exc_info=exc)
        for name in _PIPELINE_FILES[pipeline]:
            with suppress(OSError):
                self._files[name].close()
                self.lines[name] = self._written[name]
        if pipeline in self.full_run_values:
            del self.full_run_values[pipeline][self.lines[f"{pipeline}.jsonl"]:]

    def _step(self, batch: list[tuple[int, RawBlockHeader]]) -> None:
        """Run normalize over batch, each header through tap_raw (stage 0),
        normalize (1) and publish (2), then every metric pipeline still
        running over the records published; a metric pipeline that aborts
        is dropped. An abort of normalize propagates once the records
        published before it reached the metric pipelines."""
        header_line, write_raw, normalize, normalized_line, write_normalized = \
            self._normalize_fns
        dead = self.dead_letters["normalize"]
        published: list[NormalizedBlockRecord] = []
        raw = 0
        try:
            for _, header in batch:
                try:
                    raw_line = header_line(header)
                    write_raw(raw_line)
                except OSError:
                    raise
                except Exception as exc:  # noqa: BLE001 - per-record isolation
                    dead.append(cep.DeadLetter(0, header, f"map: {exc}"))
                    continue
                raw += 1
                try:
                    record = normalize(header)
                except OSError:
                    raise
                except Exception as exc:  # noqa: BLE001 - per-record isolation
                    dead.append(cep.DeadLetter(1, header, f"map: {exc}"))
                    continue
                # write first: a record whose line failed must not reach the metrics
                write_normalized(normalized_line(record, raw_line))
                published.append(record)
        finally:
            self._written["raw.jsonl"] += raw
            self._written["normalized.jsonl"] += len(published)
            for pipeline, run in self._metric_runs:
                try:
                    run.step(published)
                except Exception as exc:  # noqa: BLE001 - drop only this pipeline
                    self._failed(pipeline, exc)

    def take(self, header: RawBlockHeader) -> None:
        """Append one header to the chain's topic and count it as ingested;
        every 500 unread ones, run the consumer. Raises _ConsumerEnded,
        with the header not counted, once the consumer ended."""
        if self._ended:
            raise _ConsumerEnded(self.chain.name)
        self._broker.append(self.topic, header)
        self.blocks_ingested += 1
        self._unread += 1
        if self._unread == _STEP:
            self.run_held()

    def run_held(self) -> None:
        """Step over every batch the topic holds, the very objects appended,
        committing each, until a poll comes back empty; then flush each
        pipeline's files. Nothing to do when no record came since the last
        run. A failed normalize, or flush of its files, ends the consumer;
        a failed flush of a metric pipeline's file drops that pipeline
        alone."""
        if self._ended or not self._unread:
            return
        self._unread = 0
        broker, handle = self._broker, self._handle
        try:
            while batch := broker.poll(handle, _STEP):
                self._step(batch)
                broker.commit(handle, batch[-1][0])
            self._flush("normalize")
        except Exception as exc:  # noqa: BLE001 - from normalize or its flush
            self.end(exc)
            return
        for pipeline, _ in self._metric_runs:
            try:
                self._flush(pipeline)
            except Exception as exc:  # noqa: BLE001 - drop only this pipeline
                self._failed(pipeline, exc)

    def end(self, error: BaseException | None = None) -> None:
        """Refuse every later header, which stops the producer, and finish
        every metric pipeline still running, so open windows are written as
        partial, and flush its files. error is why normalize stopped early,
        if it did. Does nothing once ended."""
        if self._ended:
            return
        self._ended = True
        if error is not None:
            self._failed("normalize", error)
        for pipeline, run in self._metric_runs:
            try:
                run.finish()
                self._flush(pipeline)
            except Exception as exc:  # noqa: BLE001 - drop only this pipeline
                self._failed(pipeline, exc)


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
            for name, dead_letters in consumer.dead_letters.items():
                for dead in dead_letters:
                    fh.write(records.to_line({"pipeline": name, "stage": dead.stage_index,
                                              "reason": dead.reason}))
    return _write_report(config, consumers)


def _write_report(config: RunConfig, consumers: dict[str, _ChainConsumer]) -> dict[str, Any]:
    chains: dict[str, Any] = {}
    for chain, consumer in consumers.items():
        lines, values = consumer.lines, consumer.full_run_values
        chains[chain] = {
            "blocks_ingested": consumer.blocks_ingested,
            "raw_records": lines["raw.jsonl"],
            "normalized_records": lines["normalized.jsonl"],
            "samples": {k: len(v) for k, v in values.items()},
            "windows": {k: lines[f"{k}_windows.jsonl"] for k in values},
            "dead_letters": sum(map(len, consumer.dead_letters.values())),
            "full_run_stats": {k: records.stats_to_dict(metrics.summarize(v)) if v else None
                               for k, v in values.items()},
            "errors": consumer.errors,
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
    client_factory: Callable[[NetworkProfile], BlockSource] | None = None,
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
    client_factory each chain gets an evmon.rpc.RpcClient, closed when its
    ingest ends; clients from a client_factory stay the caller's to close.
    """
    stop = stop_event if stop_event is not None else threading.Event()
    timer = None
    if duration_s is not None:
        timer = threading.Timer(duration_s, stop.set)
        timer.daemon = True
        timer.start()
    if client_factory is None:
        # only a run that speaks HTTP loads it, and before any chain thread starts
        from evmon.rpc import RpcClient
    build_client = client_factory or (lambda profile: RpcClient(profile.rpc_url, profile.chain))

    def drive(consumers: dict[str, _ChainConsumer]) -> None:
        def ingest(profile: NetworkProfile) -> None:
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
                consumer.errors.append(f"ingest: {exc}")
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
                consumer.blocks_ingested += 1

        cep.run_pipeline(cep.Pipeline(
            source=records.read_jsonl(input_path, records.header_from_dict),
            stages=(cep.Sink(route),)))

    return _run(config, drive)


def _refuse_overwrite(**paths: Path) -> None:
    """Raise ValueError if two of the named paths are one file."""
    seen: dict[Path, str] = {}
    for role, path in paths.items():
        if (other := seen.setdefault(path.resolve(), role)) != role:
            raise ValueError(f"the {role} path {path} is also the {other} path")


def _load_series(input_path: Path) -> metrics.Series:
    samples = list(records.read_jsonl(input_path, records.sample_from_dict))
    if not samples:
        raise metrics.EmptySeries(f"{input_path} contains no samples")
    return metrics.Series.from_samples(samples)


def run_stats(input_path: Path | str, out_path: Path | str | None = None) -> SummaryStats:
    """Whole-series summary statistics for one metric JSONL file; out_path
    (default: the input's, suffix .stats.json) may not be the input."""
    input_path = Path(input_path)
    out = Path(out_path) if out_path is not None else input_path.with_suffix(".stats.json")
    _refuse_overwrite(input=input_path, output=out)
    series = _load_series(input_path)
    stats = metrics.summarize(series.values())
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
    deterministic functions of the input bytes and bucket width. Neither
    may be the input, nor each other (an out_path ending in .csv).
    """
    from evmon.svgplot import render_line_chart

    input_path = Path(input_path)
    out_path = Path(out_path)
    csv_path = out_path.with_suffix(".csv")
    _refuse_overwrite(input=input_path, CSV=csv_path, SVG=out_path)
    series = _load_series(input_path)
    buckets = metrics.downsample(series.samples, bucket_s)
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
    report: dict[str, Any] = {"chains": {}}
    try:
        if args.command == "monitor":
            config = load_config(args.config)
            stop = threading.Event()
            previous = {sig: signal.signal(sig, lambda *_: stop.set())
                        for sig in (signal.SIGINT, signal.SIGTERM)}
            try:
                report = run_monitor(config, max_blocks=args.max_blocks,
                                     duration_s=args.duration_s, stop_event=stop,
                                     start_number=args.start_block)
            finally:
                for sig, handler in previous.items():
                    # None: the handler was not set from Python and cannot be put back
                    signal.signal(sig, signal.SIG_DFL if handler is None else handler)
        elif args.command == "replay":
            config = load_config(args.config)
            report = run_replay(args.input, config)
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
    errors = [f"{chain}: {error}" for chain, entry in report["chains"].items()
              for error in entry["errors"]]
    for error in errors:
        print(f"chain error: {error}", file=sys.stderr)
    return 4 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
