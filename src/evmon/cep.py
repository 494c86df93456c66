"""Minimal complex-event-processing framework, run a batch at a time.

A WindowRun is one stream's metric pipeline: a map (stage 0), a tap
(stage 1) and a tumbling window (stage 2) whose aggregate turns each
closed window into the value its sink consumes. step runs one loop over
a whole batch, each record through every stage before the next record,
so a hop between stages is a line of that loop rather than a call. A run
serves one stream (evmon builds one per chain and metric kind), so its
window keeps one event-time watermark, the maximum record timestamp
seen: a window [start, start+width) flushes when a record with timestamp
>= its end arrives, and the open window flushes when the stream ends
(marked partial). Records whose timestamp falls behind the watermark are
late; since upstream ingest guarantees per-chain order, lateness
indicates an upstream defect and such records go to the dead-letter
diagnostics rather than terminating the stream, as do records (or
windows) a stage function fails on. An exception from the sink, or an
OSError (a failed write) or a BaseException that is no Exception
(KeyboardInterrupt) from any stage function, aborts the run: the
original exception propagates, the run's dead letters are those
reached, and the run takes no further batch. The engine counts nothing
else: what a run produced is what its sink consumed, so a caller that
needs counts has its writers count the lines they wrote.

A Pipeline is a source and its Sink; run_pipeline hands the sink each
record the source yields, in the caller's thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable


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
    the window, which reads its timestamp. A record fn or tap fails on,
    or whose value is late, becomes a dead letter at that stage, as does a
    window aggregate fails on; the window rule below is the only one.
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
