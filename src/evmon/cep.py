"""Minimal complex-event-processing framework: typed operator chains.

A Pipeline is a source plus an ordered list of stages (Map, TumblingWindow,
Sink) ending in exactly one Sink. A pipeline serves one stream (evmon
builds one per chain), so a window stage keeps one event-time watermark,
the maximum record timestamp seen: a window [start, start+width) flushes
when a record with timestamp >= its end arrives, and the open window
flushes when the stream ends (marked partial). A TumblingWindow owns its
aggregate: each flushed window leaves the stage only as the value of the
window's fn. Records whose timestamp falls behind the watermark are late;
since upstream ingest guarantees per-chain order, lateness indicates an
upstream defect and such records go to the dead-letter diagnostics rather
than terminating the stream, as do records (or windows) a stage function
fails on. An exception from the source or the sink, or an OSError (a
failed write) or a BaseException that is no Exception (KeyboardInterrupt)
from any stage function, aborts the run: the original exception
propagates, and the run's report holds the counts reached.

The engine is push-driven: a PipelineRun carries each record through
every stage in the caller's thread, and run_pipeline feeds one from a
source. A sink that pushes into further PipelineRuns fans a stream out
to several pipelines in one thread, with no queue between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class FlushedWindow:
    """A closed window [start, end) handed to its TumblingWindow's aggregate.

    partial is True when the flush came from the end of the stream (finish,
    at shutdown or source exhaustion) rather than from the watermark.
    """

    start: int
    end: int
    records: tuple
    partial: bool


@dataclass(frozen=True)
class Map:
    fn: Callable[[Any], Any]


@dataclass(frozen=True)
class TumblingWindow:
    """Tumbling windows width_s wide; fn turns each flushed window into the
    record the stage emits."""

    width_s: int
    fn: Callable[[FlushedWindow], Any]

    def __post_init__(self) -> None:
        if self.width_s <= 0:
            raise ValueError(f"window width must be positive, got {self.width_s}")


@dataclass(frozen=True)
class Sink:
    consume: Callable[[Any], None]


Stage = Map | TumblingWindow | Sink


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
    """Exact record accounting for one pipeline run.

    Besides records_in, only the rare events are counted as they happen:
    a dead letter, an abort (an exception that leaves a stage function or
    the sink, and propagates) and a window a window stage emits. stage_out,
    the records each stage passed on, is derived from those, so a record
    crossing a Map costs no increment: a Map or the Sink passes what it
    received less its dead letters and aborts, and a window stage passes
    the windows it emitted. The counts are exact under aborts: a record
    that aborts at a stage counts at every stage before it and at none
    from it on.
    """

    records_in: int = 0
    dead_letters: list[DeadLetter] = field(default_factory=list)
    aborts: list[int] = field(default_factory=list)  # per stage
    windows_out: list[int | None] = field(default_factory=list)  # None: not a window stage

    @property
    def stage_out(self) -> list[int]:
        dead = [0] * len(self.aborts)
        for letter in self.dead_letters:
            dead[letter.stage_index] += 1
        out, passed = [], self.records_in
        for emitted, failed, aborted in zip(self.windows_out, dead, self.aborts):
            passed = passed - failed - aborted if emitted is None else emitted
            out.append(passed)
        return out

    @property
    def records_out(self) -> int:
        out = self.stage_out
        return out[-1] if out else 0


Push = Callable[[Any], None]


def _map(fn: Callable[[Any], Any], index: int, report: RunReport, downstream: Push) -> Push:
    """Push fn(record) downstream; a record fn fails on becomes a dead letter,
    except for an OSError (a failed write) or a BaseException that is no
    Exception, which count as an abort and propagate."""
    dead_letters, aborts = report.dead_letters, report.aborts

    def push(record: Any) -> None:
        try:
            value = fn(record)
        except OSError:
            aborts[index] += 1
            raise
        except Exception as exc:  # noqa: BLE001 - per-record isolation is the contract
            dead_letters.append(DeadLetter(index, record, f"map: {exc}"))
            return
        except BaseException:
            aborts[index] += 1
            raise
        downstream(value)

    return push


def _window(width_s: int, fn: Callable[[FlushedWindow], Any], index: int, report: RunReport,
            downstream: Push) -> tuple[Push, Callable[[], None]]:
    """A window stage's push and end-of-stream flush, which pass fn of each
    closed window downstream, as a Map of the windows would.

    The stream has one watermark and at most one open window. A record
    below the open window's end joins it; one at or past the end closes
    it and opens [floor(ts / width) * width, +width).
    """
    windows_out = report.windows_out
    watermark: float = -math.inf
    start, end = 0, -math.inf
    members: list = []  # the open window's records; empty when none is open

    def counted(value: Any) -> None:
        windows_out[index] += 1
        downstream(value)

    emit = _map(fn, index, report, counted)

    def push(record: Any) -> None:
        nonlocal watermark, start, end, members
        ts = record.timestamp
        if ts < watermark:
            report.dead_letters.append(
                DeadLetter(index, record, f"late: ts {ts} behind watermark {watermark}")
            )
            return
        watermark = ts
        if ts >= end:
            if members:
                emit(FlushedWindow(start, end, tuple(members), partial=False))
            start = (ts // width_s) * width_s
            end = start + width_s
            members = []
        members.append(record)

    def flush() -> None:
        nonlocal members
        if members:
            closed, members = tuple(members), []
            emit(FlushedWindow(start, end, closed, partial=True))

    return push, flush


class PipelineRun:
    """A stage tuple driven by push: each record passes every stage before
    push returns; finish() flushes open windows as partial and returns the
    report. An exception from the sink, or an OSError or a BaseException
    that is no Exception from a stage function, aborts: it propagates as it
    is, and report holds the counts reached. Any other failure of a map or
    window aggregate is per record, a dead letter.

    push is a plain function bound at construction, the stage closures
    chained: it counts the record in and calls the first stage, and a Map
    stage runs its fn and then the next stage, with no count of its own.
    """

    def __init__(self, stages: tuple[Stage, ...]) -> None:
        if not stages or not isinstance(stages[-1], Sink):
            raise ValueError("pipeline must end in a Sink")
        if sum(isinstance(s, Sink) for s in stages) != 1:
            raise ValueError("pipeline must contain exactly one Sink, the terminal stage")
        self.report = report = RunReport(
            aborts=[0] * len(stages),
            windows_out=[0 if isinstance(s, TumblingWindow) else None for s in stages])
        sink_index = len(stages) - 1
        consume, aborts = stages[sink_index].consume, report.aborts

        def sink(record: Any) -> None:
            try:
                consume(record)
            except BaseException:
                aborts[sink_index] += 1
                raise

        self._flushes: list[Callable[[], None]] = []
        first = sink
        for i in reversed(range(sink_index)):
            stage = stages[i]
            if isinstance(stage, TumblingWindow):
                first, flush = _window(stage.width_s, stage.fn, i, report, first)
                self._flushes.insert(0, flush)  # upstream windows flush first
            else:
                first = _map(stage.fn, i, report, first)

        def push(record: Any) -> None:
            report.records_in += 1
            first(record)

        self.push = push

    def finish(self) -> RunReport:
        for flush in self._flushes:
            flush()
        return self.report


def run_pipeline(pipeline: Pipeline) -> RunReport:
    """A PipelineRun fed from the source until exhaustion, then finished,
    returning its report. An exception from the source aborts the run like
    one from the sink: it propagates as it is, and no report is returned."""
    run = PipelineRun(pipeline.stages)
    for record in pipeline.source:
        run.push(record)
    return run.finish()
