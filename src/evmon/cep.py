"""Minimal complex-event-processing framework: typed operator chains.

A Pipeline is a source plus an ordered list of stages (Map, TumblingWindow,
Aggregate, Sink) ending in exactly one Sink. Windowing is event-time, keyed
by chain: the watermark per key is the maximum record timestamp seen, a
window [start, start+width) flushes when a record with timestamp >= its end
arrives for that key, and all open windows flush when the source is
exhausted (marked partial). Records whose timestamp falls behind the key's
watermark are late; since upstream ingest guarantees per-chain order,
lateness indicates an upstream defect and such records go to the
dead-letter diagnostics rather than terminating the stream.

A pipeline instance is single-threaded end to end; run one instance per
chain topic for parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Protocol


class KeyedRecord(Protocol):
    """What window stages need from a record."""

    @property
    def chain(self) -> Any: ...

    @property
    def timestamp(self) -> int: ...


@dataclass(frozen=True)
class WindowAssignment:
    """The single tumbling window a record falls into, for its key."""

    key: Any
    start: int
    end: int


def assign_tumbling_window(record: KeyedRecord, width_s: int) -> WindowAssignment:
    """Window [floor(ts / width) * width, +width) for the record's chain."""
    if width_s <= 0:
        raise ValueError(f"window width must be positive, got {width_s}")
    start = (record.timestamp // width_s) * width_s
    return WindowAssignment(key=record.chain, start=start, end=start + width_s)


@dataclass(frozen=True)
class FlushedWindow:
    """A closed window handed to the Aggregate stage.

    partial is True when the flush came from source exhaustion (shutdown or
    end of stream) rather than from the watermark passing the window end.
    """

    assignment: WindowAssignment
    records: tuple
    partial: bool


@dataclass(frozen=True)
class Map:
    fn: Callable[[Any], Any]


@dataclass(frozen=True)
class TumblingWindow:
    width_s: int


@dataclass(frozen=True)
class Aggregate:
    fn: Callable[[FlushedWindow], Any]


@dataclass(frozen=True)
class Sink:
    consume: Callable[[Any], None]


Stage = Map | TumblingWindow | Aggregate | Sink


@dataclass(frozen=True)
class Pipeline:
    source: Iterable[Any]
    stages: tuple[Stage, ...]


@dataclass(frozen=True)
class DeadLetter:
    """A record that could not pass a stage, with the reason."""

    stage_index: int
    record: Any
    reason: str


@dataclass
class RunReport:
    """Exact record accounting for one pipeline run."""

    records_in: int = 0
    stage_out: list[int] = field(default_factory=list)
    dead_letters: list[DeadLetter] = field(default_factory=list)

    @property
    def records_out(self) -> int:
        return self.stage_out[-1] if self.stage_out else 0

    @property
    def dead_letter_count(self) -> int:
        return len(self.dead_letters)


class SinkFailure(Exception):
    """The terminal sink raised; the run aborts with the report so far."""

    def __init__(self, cause: BaseException, report: RunReport) -> None:
        super().__init__(f"sink failed: {cause}")
        self.cause = cause
        self.report = report


def apply_map(
    stream: Iterable[Any],
    fn: Callable[[Any], Any],
    dead_letters: list[DeadLetter] | None = None,
    stage_index: int = 0,
) -> Iterator[Any]:
    """Map fn over the stream; per-record errors become dead letters."""
    for record in stream:
        try:
            yield fn(record)
        except Exception as exc:  # noqa: BLE001 - per-record isolation is the contract
            if dead_letters is None:
                raise
            dead_letters.append(DeadLetter(stage_index, record, f"map: {exc}"))


def _apply_window(
    stream: Iterable[KeyedRecord],
    width_s: int,
    dead_letters: list[DeadLetter],
    stage_index: int,
) -> Iterator[FlushedWindow]:
    open_windows: dict[Any, tuple[WindowAssignment, list]] = {}
    watermarks: dict[Any, int] = {}
    for record in stream:
        key = record.chain
        ts = record.timestamp
        watermark = watermarks.get(key)
        if watermark is not None and ts < watermark:
            dead_letters.append(
                DeadLetter(stage_index, record, f"late: ts {ts} behind watermark {watermark}")
            )
            continue
        watermarks[key] = ts
        assignment = assign_tumbling_window(record, width_s)
        current = open_windows.get(key)
        if current is not None and assignment.start > current[0].start:
            yield FlushedWindow(assignment=current[0], records=tuple(current[1]), partial=False)
            current = None
        if current is None:
            open_windows[key] = (assignment, [record])
        else:
            current[1].append(record)
    # source exhausted: flush the remainder in a deterministic key order
    for key in sorted(open_windows, key=repr):
        assignment, records = open_windows[key]
        yield FlushedWindow(assignment=assignment, records=tuple(records), partial=True)


def _validate(pipeline: Pipeline) -> None:
    stages = pipeline.stages
    if not stages or not isinstance(stages[-1], Sink):
        raise ValueError("pipeline must end in a Sink")
    if sum(isinstance(s, Sink) for s in stages) != 1:
        raise ValueError("pipeline must contain exactly one Sink, the terminal stage")
    for i, stage in enumerate(stages):
        if isinstance(stage, Aggregate):
            if i == 0 or not isinstance(stages[i - 1], TumblingWindow):
                raise ValueError("Aggregate must directly follow a TumblingWindow")
        if isinstance(stage, TumblingWindow):
            if i + 1 >= len(stages) or not isinstance(stages[i + 1], Aggregate):
                raise ValueError("TumblingWindow must be directly followed by an Aggregate")


def run_pipeline(pipeline: Pipeline) -> RunReport:
    """Drive the source through the stages until exhaustion.

    Returns exact counts: records in, records out of every stage, dead
    letters. A sink exception aborts the run by raising SinkFailure with
    the report accumulated so far.
    """
    _validate(pipeline)
    report = RunReport(stage_out=[0] * len(pipeline.stages))

    def counted_source() -> Iterator[Any]:
        for record in pipeline.source:
            report.records_in += 1
            yield record

    def counted(stream: Iterator[Any], index: int) -> Iterator[Any]:
        for record in stream:
            report.stage_out[index] += 1
            yield record

    stream: Iterator[Any] = counted_source()
    sink = pipeline.stages[-1]
    assert isinstance(sink, Sink)
    for i, stage in enumerate(pipeline.stages[:-1]):
        if isinstance(stage, Map):
            stream = apply_map(stream, stage.fn, report.dead_letters, i)
        elif isinstance(stage, TumblingWindow):
            stream = _apply_window(stream, stage.width_s, report.dead_letters, i)
        elif isinstance(stage, Aggregate):
            stream = apply_map(stream, stage.fn, report.dead_letters, i)
        else:
            raise TypeError(f"unexpected stage {stage!r}")
        stream = counted(stream, i)

    sink_index = len(pipeline.stages) - 1
    for record in stream:
        try:
            sink.consume(record)
        except Exception as exc:  # noqa: BLE001 - abort contract
            raise SinkFailure(exc, report) from exc
        report.stage_out[sink_index] += 1
    return report
