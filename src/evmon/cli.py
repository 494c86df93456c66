"""Operator-facing command line: monitor, replay, stats, plot.

monitor and replay drive one engine, evmon.cep, in which each chain's
consumer runs in the thread that feeds it. replay runs in the calling
thread: its reader hands each header to its chain's consumer. monitor
runs one thread per chain, its ingest, which hands over each block it
fetches; ingest.poll_chain alone decides when else the consumer runs
(its idle callback).

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, cast

from evmon import cep, metrics, records
from evmon.ingest import BlockSource, poll_chain
from evmon.model import (
    GasQuantity,
    InvalidProfile,
    NetworkProfile,
    PriorityPolicy,
    RawBlockHeader,
    SummaryStats,
)

log = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "EVMON_OUTPUT_DIR"


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


def _run(config: RunConfig,
         drive: Callable[[dict[str, cep.ChainConsumer]], None]) -> dict[str, Any]:
    """Run the engine (cep.run_chains) with drive feeding it, then write the
    run report and return it; if drive raised, its error propagates."""
    report = {
        "window_s": config.window_s,
        "downsample_bucket_s": config.downsample_bucket_s,
        "chains": cep.run_chains(config.networks, config.window_s, config.output_dir, drive),
    }
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

    def drive(consumers: dict[str, cep.ChainConsumer]) -> None:
        def ingest(profile: NetworkProfile) -> None:
            consumer = consumers[profile.chain.name]
            client: BlockSource | None = None
            try:
                client = build_client(profile)
                poll_chain(profile, consumer.take, client=client, stop=stop,
                           max_blocks=max_blocks, start_number=start_number,
                           idle=consumer.run_held)
            except cep.ConsumerEnded:
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

    def drive(consumers: dict[str, cep.ChainConsumer]) -> None:
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
            except cep.ConsumerEnded:  # its normalize pipeline died; the record still counts
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
