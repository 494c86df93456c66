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
propagates, and the run's dead letters are those reached. The engine
counts nothing else: what a run produced is what its sink consumed, so
a caller that needs counts has its writers count the lines they wrote.

The engine is push-driven: a PipelineRun carries each record through
every stage in the caller's thread, and run_pipeline feeds one from a
source. A sink that pushes into further PipelineRuns fans a stream out
to several pipelines in one thread, with no queue between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


Push = Callable[[Any], None]


def _map(fn: Callable[[Any], Any], index: int, dead_letters: list[DeadLetter],
         downstream: Push) -> Push:
    """Push fn(record) downstream; a record fn fails on becomes a dead letter,
    except for an OSError (a failed write) or a BaseException that is no
    Exception, which propagate."""

    def push(record: Any) -> None:
        try:
            value = fn(record)
        except OSError:
            raise
        except Exception as exc:  # noqa: BLE001 - per-record isolation is the contract
            dead_letters.append(DeadLetter(index, record, f"map: {exc}"))
            return
        downstream(value)

    return push


def _window(width_s: int, fn: Callable[[FlushedWindow], Any], index: int,
            dead_letters: list[DeadLetter], downstream: Push) -> tuple[Push, Callable[[], None]]:
    """A window stage's push and end-of-stream flush, which pass fn of each
    closed window downstream, as a Map of the windows would.

    The stream has one watermark and at most one open window. A record
    below the open window's end joins it; one at or past the end closes
    it and opens [floor(ts / width) * width, +width).
    """
    watermark: float = -math.inf
    start, end = 0, -math.inf
    members: list = []  # the open window's records; empty when none is open
    emit = _map(fn, index, dead_letters, downstream)

    def push(record: Any) -> None:
        nonlocal watermark, start, end, members
        ts = record.timestamp
        if ts < watermark:
            dead_letters.append(
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
    dead letters. An exception from the sink, or an OSError or a
    BaseException that is no Exception from a stage function, aborts: it
    propagates as it is, and dead_letters holds those reached. Any other
    failure of a map or window aggregate is per record, a dead letter.

    push is a plain function bound at construction, the stage closures
    chained: it is the first stage's own closure, and a Map stage runs its
    fn and then the next stage. The Sink's consume is the last closure.
    """

    def __init__(self, stages: tuple[Stage, ...]) -> None:
        if not stages or not isinstance(stages[-1], Sink):
            raise ValueError("pipeline must end in a Sink")
        if sum(isinstance(s, Sink) for s in stages) != 1:
            raise ValueError("pipeline must contain exactly one Sink, the terminal stage")
        self.dead_letters: list[DeadLetter] = []
        self._flushes: list[Callable[[], None]] = []
        push = stages[-1].consume
        for i in reversed(range(len(stages) - 1)):
            stage = stages[i]
            if isinstance(stage, TumblingWindow):
                push, flush = _window(stage.width_s, stage.fn, i, self.dead_letters, push)
                self._flushes.insert(0, flush)  # upstream windows flush first
            else:
                push = _map(stage.fn, i, self.dead_letters, push)
        self.push = push

    def finish(self) -> list[DeadLetter]:
        for flush in self._flushes:
            flush()
        return self.dead_letters


def run_pipeline(pipeline: Pipeline) -> list[DeadLetter]:
    """A PipelineRun fed from the source until exhaustion, then finished,
    returning its dead letters. An exception from the source aborts the run
    like one from the sink: it propagates as it is, and nothing is
    returned."""
    run = PipelineRun(pipeline.stages)
    for record in pipeline.source:
        run.push(record)
    return run.finish()
