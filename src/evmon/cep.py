"""The stream engine behind monitor and replay, run a batch at a time.

Each configured chain has one ChainConsumer of its raw topic, which
writes the chain's six files in the thread that feeds the topic, so no
thread ever blocks on the log. It steps over each batch of up to 500
headers it polls: the normalize pipeline, tap_raw (stage 0), normalize
(1) and publish (2), runs over the whole batch, and then each metric
pipeline, a WindowRun per metric kind, over the records normalize
published, each as one loop, so a hop between stages is a line of that
loop rather than a call. Each file has one writer, which writes in
offset order, so the outputs are the same bytes whatever the batch sizes.

A WindowRun's tumbling window keeps one event-time watermark, the
maximum record timestamp seen: a window [start, start+width) flushes
when a record with timestamp >= its end arrives, and the open window
flushes, marked partial, when the stream ends. Ingest keeps per-chain
order, so a record behind the watermark (late) shows an upstream defect.

A record or window that a stage function fails on, and a late record,
becomes a dead letter at that stage, and the batch goes on; a normalized
line is written before its record reaches the metrics. An exception from
a sink, or an OSError (a failed write) or a BaseException that is no
Exception (KeyboardInterrupt) from any stage function, aborts the
pipeline: the exception propagates, and the pipeline takes no further
batch. A metric pipeline that aborts, or whose file flush fails, is
dropped alone; when normalize, or the flush of its files, fails, the
consumer refuses every later header, which stops the chain's producer,
and finishes the metric pipelines' windows. A dropped pipeline's files
are closed at once. Each count in the run report is the lines its file
holds: the lines written into it, all flushed, or for a dropped
pipeline the complete lines its closed files hold.

A Pipeline is a source and its Sink; run_pipeline hands the sink each
record the source yields, in the caller's thread.
"""

from __future__ import annotations

import logging
import math
from array import array
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, TextIO

from evmon import metrics, records
from evmon.model import ChainRef, MetricKind, NetworkProfile, NormalizedBlockRecord, RawBlockHeader
from evmon.normalize import Normalizer
from evmon.streamlog import StreamLog

log = logging.getLogger(__name__)

METRIC_KINDS = (MetricKind.GAS_PRICE_GWEI, MetricKind.BLOCK_USAGE_RATIO)
_STEP = 500  # headers per consumer step, and records per poll


@dataclass(frozen=True)
class FlushedWindow:
    """A closed window [start, end) handed to its WindowRun's aggregate.

    partial is True when the flush came from the end of the stream (finish,
    at shutdown or source exhaustion) rather than from the watermark.
    """

    start: int
    end: int
    records: tuple
    partial: bool


@dataclass(frozen=True)
class Sink:
    consume: Callable[[Any], None]


@dataclass(frozen=True)
class Pipeline:
    source: Iterable[Any]
    stages: tuple[Sink]


@dataclass(frozen=True)
class DeadLetter:
    """A record that could not pass a stage, with the reason."""

    stage_index: int
    record: Any
    reason: str


class WindowRun:
    """A map fn, a tap, a tumbling window width_s wide and a sink, stepped a
    batch at a time; finish() flushes the open window as partial.

    fn's value passes on to tap, whose own value is ignored, and then to
    the window, which reads its timestamp; the window rule below is the
    only one.
    """

    def __init__(self, fn: Callable[[Any], Any], tap: Callable[[Any], Any], width_s: int,
                 aggregate: Callable[[FlushedWindow], Any],
                 consume: Callable[[Any], None]) -> None:
        if width_s <= 0:
            raise ValueError(f"window width must be positive, got {width_s}")
        self.dead_letters: list[DeadLetter] = []
        self._fn, self._tap, self._width = fn, tap, width_s
        self._aggregate, self._consume = aggregate, consume
        # the window state: one watermark, at most one open window, whose
        # records are members; members is empty when none is open
        self._watermark: float = -math.inf
        self._start, self._end = 0, -math.inf
        self._members: list = []

    def step(self, records: Iterable[Any]) -> None:
        """Run every stage over records, in order. A record below the open
        window's end joins it; one at or past the end closes it and opens
        [floor(ts / width) * width, +width)."""
        fn, tap, width, dead = self._fn, self._tap, self._width, self.dead_letters
        watermark, start, end, members = self._watermark, self._start, self._end, self._members
        for record in records:
            try:
                value = fn(record)
            except OSError:
                raise
            except Exception as exc:  # noqa: BLE001 - per-record isolation is the contract
                dead.append(DeadLetter(0, record, f"map: {exc}"))
                continue
            try:
                tap(value)
            except OSError:
                raise
            except Exception as exc:  # noqa: BLE001 - per-record isolation is the contract
                dead.append(DeadLetter(1, value, f"map: {exc}"))
                continue
            ts = value.timestamp
            if ts < watermark:
                dead.append(DeadLetter(2, value, f"late: ts {ts} behind watermark {watermark}"))
                continue
            watermark = ts
            if ts >= end:
                if members:
                    self._emit(FlushedWindow(start, end, tuple(members), partial=False))
                start = (ts // width) * width
                end = start + width
                members = []
            members.append(value)
        self._watermark, self._start, self._end, self._members = watermark, start, end, members

    def finish(self) -> None:
        if self._members:
            closed, self._members = tuple(self._members), []
            self._emit(FlushedWindow(self._start, self._end, closed, partial=True))

    def _emit(self, window: FlushedWindow) -> None:
        try:
            value = self._aggregate(window)
        except OSError:
            raise
        except Exception as exc:  # noqa: BLE001 - per-window isolation is the contract
            self.dead_letters.append(DeadLetter(2, window, f"map: {exc}"))
            return
        self._consume(value)


def run_pipeline(pipeline: Pipeline) -> None:
    """Hand each record of the source to the pipeline's Sink until the
    source is exhausted. An exception from the source or the sink
    propagates as it is."""
    if len(pipeline.stages) != 1 or not isinstance(pipeline.stages[0], Sink):
        raise ValueError("a pipeline's stages are exactly one Sink")
    consume = pipeline.stages[0].consume
    for record in pipeline.source:
        consume(record)


class ConsumerEnded(Exception):
    """A header offered to a chain's consumer after it ended."""


def _metric_run(chain: ChainRef, kind: MetricKind, window_s: int, files: dict[str, TextIO],
                lines: dict[str, int], collector: array) -> WindowRun:
    """sample (stage 0), tap (1), window (2) and sink for one metric kind.
    The tap collects the value of each sample it wrote, and the sink
    counts in lines the windows it wrote."""
    write_sample = files[f"{kind.value}.jsonl"].write
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
        collect(sample.value)

    def aggregate(window: FlushedWindow) -> str:
        return window_line(chain, kind, window.start, window.end,
                           metrics.summarize_samples(window.records), window.partial)

    def sink(line: str) -> None:
        write_window(line)
        lines[window_name] += 1

    return WindowRun(make_sample, tap, window_s, aggregate, sink)


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


class ChainConsumer:
    """One chain's consumer of raw.<chain>, which writes the chain's six
    files under output_dir/<chain> in the thread that drives it. Each
    step takes one polled batch: normalize runs over all of it, and then
    every metric pipeline still running over the records normalize
    published. A pipeline that aborts is dropped and leaves its dead
    letters and an error naming it.

    Both modes drive it alike, from the thread that feeds the chain: take
    for each header, which steps every 500; run_held when the feed
    chooses (in monitor, poll_chain's idle); end finishes it.
    """

    def __init__(self, profile: NetworkProfile, window_s: int, output_dir: Path,
                 broker: StreamLog, stack: ExitStack) -> None:
        self.chain = profile.chain
        self.topic = f"raw.{self.chain.name}"
        self.blocks_ingested = 0
        self.errors: list[str] = []
        # by metric kind, the value of each sample line written (see _failed)
        self.full_run_values: dict[str, array] = {}
        # by file name, the sample files' apart, the lines written (see _failed)
        self.lines = dict.fromkeys(("raw.jsonl", "normalized.jsonl",
                                    *(f"{kind.value}_windows.jsonl" for kind in METRIC_KINDS)), 0)
        self._unread = 0  # records appended since the last run_held
        self._broker = broker
        broker.create_topic(self.topic)
        self._handle = broker.subscribe(self.topic)
        self._dir = output_dir / self.chain.name
        self._files = _open_chain_files(stack, self._dir)
        # whoever replaces normalize, a records writer or a sample function
        # (a test, the tracer) does so before the run builds its consumers
        self._normalize_fns = (records.header_line, self._files["raw.jsonl"].write,
                               Normalizer(profile).normalize, records.normalized_line,
                               self._files["normalized.jsonl"].write)
        # every pipeline's dead letters by name, normalize first
        self.dead_letters: dict[str, list[DeadLetter]] = {"normalize": []}
        runs = []
        for kind in METRIC_KINDS:
            self.full_run_values[kind.value] = collector = array("d")
            run = _metric_run(profile.chain, kind, window_s, self._files, self.lines, collector)
            self.dead_letters[kind.value] = run.dead_letters
            runs.append((kind.value, run))
        # (name, run) of each metric pipeline still running. _failed binds a
        # new tuple, so a loop over the old one goes on undisturbed.
        self._metric_runs = tuple(runs)
        self._ended = False

    def _flush(self, pipeline: str) -> None:
        for name in _PIPELINE_FILES[pipeline]:
            self._files[name].flush()

    def _failed(self, pipeline: str, exc: BaseException) -> None:
        """Drop pipeline, which writes nothing more, so its files are closed
        at once. Closing a file whose write or flush failed raises that
        failure again, the one reported here, so it is ignored rather than
        ending the run. Each of the pipeline's counts then becomes the
        complete lines its closed file holds (0 if it cannot be read), and
        its sample values are trimmed to those of its sample file."""
        self._metric_runs = tuple(entry for entry in self._metric_runs if entry[0] != pipeline)
        self.errors.append(f"{pipeline}: {exc}")
        log.error("%s: %s pipeline failed", self.chain.name, pipeline, exc_info=exc)
        for name in _PIPELINE_FILES[pipeline]:
            with suppress(OSError):
                self._files[name].close()
            try:
                with open(self._dir / name, "rb") as fh:
                    held = sum(line.endswith(b"\n") for line in fh)
            except OSError:
                held = 0
            if name in self.lines:
                self.lines[name] = held
            else:
                del self.full_run_values[pipeline][held:]

    def _step(self, batch: list[tuple[int, RawBlockHeader]]) -> None:
        """Run normalize over batch, each header through tap_raw (stage 0),
        normalize (1) and publish (2), then every metric pipeline still
        running over the records published. An abort of normalize
        propagates once the records published before it reached the
        metric pipelines."""
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
                    dead.append(DeadLetter(0, header, f"map: {exc}"))
                    continue
                raw += 1
                try:
                    record = normalize(header)
                except OSError:
                    raise
                except Exception as exc:  # noqa: BLE001 - per-record isolation
                    dead.append(DeadLetter(1, header, f"map: {exc}"))
                    continue
                # write first: a record whose line failed must not reach the metrics
                write_normalized(normalized_line(record, raw_line))
                published.append(record)
        finally:
            self.lines["raw.jsonl"] += raw
            self.lines["normalized.jsonl"] += len(published)
            for pipeline, run in self._metric_runs:
                try:
                    run.step(published)
                except Exception as exc:  # noqa: BLE001 - drop only this pipeline
                    self._failed(pipeline, exc)

    def take(self, header: RawBlockHeader) -> None:
        """Append one header to the chain's topic and count it as ingested;
        every 500 unread ones, run the consumer. Raises ConsumerEnded,
        with the header not counted, once the consumer ended."""
        if self._ended:
            raise ConsumerEnded(self.chain.name)
        self._broker.append(self.topic, header)
        self.blocks_ingested += 1
        self._unread += 1
        if self._unread == _STEP:
            self.run_held()

    def run_held(self) -> None:
        """Step over every batch the topic holds, the very objects appended,
        committing each, until a poll comes back empty; then flush each
        pipeline's files. Nothing to do when no record came since the last
        run."""
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

    def report(self) -> dict[str, Any]:
        """Write the chain's dead_letters.jsonl and return its entry in the
        run report; call once the run's files are closed."""
        with open(self._dir / "dead_letters.jsonl", "w", encoding="utf-8") as fh:
            for name, dead_letters in self.dead_letters.items():
                for dead in dead_letters:
                    fh.write(records.to_line({"pipeline": name, "stage": dead.stage_index,
                                              "reason": dead.reason}))
        lines, values = self.lines, self.full_run_values
        return {
            "blocks_ingested": self.blocks_ingested,
            "raw_records": lines["raw.jsonl"],
            "normalized_records": lines["normalized.jsonl"],
            "samples": {k: len(v) for k, v in values.items()},
            "windows": {k: lines[f"{k}_windows.jsonl"] for k in values},
            "dead_letters": sum(map(len, self.dead_letters.values())),
            "full_run_stats": {k: records.stats_to_dict(metrics.summarize(v)) if v else None
                               for k, v in values.items()},
            "errors": self.errors,
        }


def run_chains(networks: Iterable[NetworkProfile], window_s: int, output_dir: Path,
               drive: Callable[[dict[str, ChainConsumer]], None]) -> dict[str, Any]:
    """Build every chain's consumer and let drive feed them. Then each
    consumer runs what its topic still holds and ends, and each chain's
    report entry is returned, by chain name, with its dead_letters.jsonl
    written; if drive raised, its error propagates instead. drive ends
    any thread it starts."""
    broker = StreamLog()
    with ExitStack() as stack:
        consumers = {profile.chain.name: ChainConsumer(profile, window_s, output_dir, broker, stack)
                     for profile in networks}
        try:
            drive(consumers)
        finally:
            for consumer in consumers.values():
                consumer.run_held()
                consumer.end()
    return {chain: consumer.report() for chain, consumer in consumers.items()}
