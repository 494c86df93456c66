from dataclasses import dataclass
from itertools import cycle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TEST_CHAIN, constant_fee_scenario, make_header, make_profile
from evmon.cep import FlushedWindow, Pipeline, Sink, WindowRun, run_pipeline
from evmon.metrics import gas_price_sample, summarize_samples
from evmon.normalize import Normalizer
from evmon.simnode import generate_scenario


def headers(n, chain=TEST_CHAIN, interval=30):
    return [make_header(number=i, timestamp=1000 + i * interval, chain=chain) for i in range(n)]


def identity(record):
    return record


def ignore(value):
    pass


def windows_of(records, width_s):
    """The windows a WindowRun of width_s flushes for records, in order."""
    flushed = []
    run = WindowRun(identity, ignore, width_s, identity, flushed.append)
    run.step(records)
    run.finish()
    return flushed


def test_window_assignment_floor_rule():
    (window,) = windows_of([make_header(timestamp=125)], 60)
    assert (window.start, window.end) == (120, 180)


def test_window_boundary_belongs_to_own_window():
    before, at = make_header(number=0, timestamp=119), make_header(number=1, timestamp=120)
    first, second = windows_of([before, at], 60)
    assert (first.start, first.end, first.records) == (60, 120, (before,))
    assert (second.start, second.end, second.records) == (120, 180, (at,))


def test_window_origin():
    (window,) = windows_of([make_header(timestamp=0)], 3600)
    assert (window.start, window.end) == (0, 3600)


def test_window_rejects_nonpositive_width():
    for width_s in (0, -60):
        with pytest.raises(ValueError, match="window width must be positive"):
            WindowRun(identity, ignore, width_s, identity, ignore)


def run_map(records, fn):
    """What the tap of a WindowRun mapping with fn saw, and its dead letters."""
    out = []
    run = WindowRun(fn, out.append, 3600, identity, ignore)
    run.step(records)
    return out, run.dead_letters


def test_map_identity_preserves_stream():
    records = headers(100)
    assert run_map(records, identity)[0] == records


def test_map_extracts_metric_per_record():
    profile = make_profile()
    normalizer = Normalizer(profile)
    normalized = [normalizer.normalize(h) for h in headers(50)]
    samples, _ = run_map(normalized, gas_price_sample)
    assert len(samples) == 50
    assert [s.block_number for s in samples] == [r.header.number for r in normalized]


def test_map_failure_goes_to_dead_letters():
    def explode_on_three(record):
        if record.number == 3:
            raise RuntimeError("boom")
        return record

    out, dead_letters = run_map(headers(10), explode_on_three)
    assert len(out) == 9
    assert len(dead_letters) == 1
    assert (dead_letters[0].stage_index, dead_letters[0].reason) == (0, "map: boom")
    assert dead_letters[0].record.number == 3


def test_run_pipeline_counts_identity():
    out = []
    assert run_pipeline(Pipeline(source=headers(10), stages=(Sink(out.append),))) is None
    assert out == headers(10)


def test_window_flushes_when_timestamp_passes_end():
    records = [make_header(number=i, timestamp=t) for i, t in enumerate((0, 30, 61))]
    run = WindowRun(identity, ignore, 60, identity, (flushed := []).append)
    run.step(records)
    assert len(flushed) == 1  # the open window waits for the end of the stream
    run.finish()
    assert len(flushed) == 2
    first, last = flushed
    assert first.partial is False
    assert len(first.records) == 2
    assert (first.start, first.end) == (0, 60)
    assert last.partial is True  # open window flushed at exhaustion
    assert len(last.records) == 1
    assert run.dead_letters == []


def test_late_record_goes_to_dead_letters():
    records = [
        make_header(number=0, timestamp=100),
        make_header(number=1, timestamp=90),
        make_header(number=2, timestamp=100),
    ]
    out = []
    run = WindowRun(identity, ignore, 60, identity, out.append)
    for record in records:  # one record per batch: the watermark outlives its batch
        run.step([record])
    run.finish()
    assert len(run.dead_letters) == 1
    assert run.dead_letters[0].stage_index == 2
    assert run.dead_letters[0].reason == "late: ts 90 behind watermark 100"
    assert sum(len(fw.records) for fw in out) == 2


def test_pipeline_shape_validation():
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=()))
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(Sink(print), Sink(print))))
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(print,)))


def test_sink_failure_aborts_with_report():
    """A sink that raises ends the step at the record whose window it was
    handed: one header every 30 s from 1000, so the second closes the
    first 60 s window."""
    def bad_sink(record):
        raise OSError("disk full")

    tapped = []
    run = WindowRun(identity, tapped.append, 60, identity, bad_sink)
    with pytest.raises(OSError, match="disk full"):
        run.step(headers(5))
    assert [r.number for r in tapped] == [0, 1]
    assert run.dead_letters == []


@pytest.mark.parametrize("stage,tapped", [("map", 0), ("tap", 0), ("window", 2)],
                         ids=["map", "tap", "window"])
def test_stage_oserror_aborts_with_report(stage, tapped):
    """An OSError from a stage function is a failed write: it aborts the
    run like a sink failure instead of becoming a dead letter."""
    def disk_full(value):
        raise OSError("disk full")

    # one header every 30 s from 1000: the second closes the first 60 s window
    out, seen = [], []
    fns = {"map": identity, "tap": seen.append, "window": identity}
    fns[stage] = disk_full
    run = WindowRun(fns["map"], fns["tap"], 60, fns["window"], out.append)
    with pytest.raises(OSError, match="disk full"):
        run.step(headers(5))
    assert len(seen) == tapped
    assert out == []
    assert run.dead_letters == []


def test_source_failure_aborts_with_report():
    def failing_source(k):
        yield from headers(k)
        raise OSError("connection reset")

    received = []
    with pytest.raises(OSError, match="connection reset"):
        run_pipeline(Pipeline(source=failing_source(7), stages=(Sink(received.append),)))
    assert [r.number for r in received] == list(range(7))


def test_aggregate_failure_goes_to_dead_letters_at_window_stage():
    # one record per minute: windows start at 0, 60, 120, 180
    records = [make_header(number=i, timestamp=i * 60) for i in range(4)]

    def count_or_explode(window):
        if window.start == 60:
            raise RuntimeError("boom")
        return len(window.records)

    out = []
    run = WindowRun(identity, ignore, 60, count_or_explode, out.append)
    run.step(records)
    run.finish()
    assert out == [1, 1, 1]
    assert len(run.dead_letters) == 1
    dead = run.dead_letters[0]
    assert dead.stage_index == 2
    assert dead.record.start == 60


def test_order_preserved_through_map_and_filter():
    """Batches of any size reach the tap, and the windows, in order."""
    tapped, flushed = [], []
    run = WindowRun(identity, tapped.append, 60, identity, flushed.append)
    for batch in batches_of(headers(200), (1, 7, 60)):
        run.step(batch)
    run.finish()
    assert [r.number for r in tapped] == list(range(200))
    assert [r.number for fw in flushed for r in fw.records] == list(range(200))


def test_window_conservation_over_scenario_stream():
    """Conservation oracle: sum of aggregated window counts equals the
    number of records entering the window stage."""
    ledger = generate_scenario(constant_fee_scenario(block_count=1000))
    profile = make_profile(chain=ledger[0].chain)
    normalizer = Normalizer(profile)
    summaries = []
    run = WindowRun(gas_price_sample, ignore, 300,
                    lambda fw: summarize_samples(fw.records), summaries.append)
    normalized = [normalizer.normalize(header) for header in ledger]
    for start in range(0, 1000, 500):
        run.step(normalized[start:start + 500])
    run.finish()
    assert run.dead_letters == []
    assert sum(stats.count for stats in summaries) == 1000


def test_windows_tile_time_range_disjointly():
    ledger = generate_scenario(constant_fee_scenario(block_count=500, block_interval_s=7))
    flushed = windows_of(ledger, 60)
    spans = [(fw.start, fw.end) for fw in flushed]
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert start >= prev_end
    for fw in flushed:
        for record in fw.records:
            assert fw.start <= record.timestamp < fw.end


@dataclass(frozen=True)
class Event:
    timestamp: int
    seq: int


class _Stop(Exception):
    """The reference model's abort: the run stops where it is raised."""


STAGES = ("map", "tap", "aggregate", "sink")


def reference_run(events, width, map_fails, tap_fails, aggregate_fails, abort=None):
    """The contract of a WindowRun as one plain loop over the whole stream,
    with no batches: (sink outputs, dead letters, whether the run aborted).
    abort is None or (where, n): the n-th call (from 0) of the map, the
    tap, the window aggregate or the sink raises, which ends the run with
    every output and dead letter reached."""
    out, dead = [], []
    calls = dict.fromkeys(STAGES, 0)
    open_window, watermark = None, None

    def call(where):
        n, calls[where] = calls[where], calls[where] + 1
        if abort == (where, n):
            raise _Stop

    def aggregate(start, members, partial):
        call("aggregate")
        if start // width in aggregate_fails:
            window = FlushedWindow(start, start + width, tuple(members), partial)
            dead.append((2, f"map: window {start}", window))
        else:
            call("sink")
            out.append((start, [e.seq for e in members], partial))

    try:
        for event in events:
            call("map")
            if event.seq in map_fails:
                dead.append((0, f"map: event {event.seq}", event))
                continue
            call("tap")
            if event.seq in tap_fails:
                dead.append((1, f"map: tap {event.seq}", event))
                continue
            ts = event.timestamp
            if watermark is not None and ts < watermark:
                dead.append((2, f"late: ts {ts} behind watermark {watermark}", event))
                continue
            watermark = ts
            start = ts - ts % width
            if open_window is not None and open_window[0] < start:
                aggregate(*open_window, False)
                open_window = None
            if open_window is None:
                open_window = (start, [])
            open_window[1].append(event)
        if open_window is not None:
            aggregate(*open_window, True)
    except _Stop:
        return out, dead, True
    return out, dead, False


def batches_of(events, sizes):
    """events cut into consecutive batches whose sizes cycle through sizes."""
    batches, start = [], 0
    for size in cycle(sizes):
        if start >= len(events):
            return batches
        batches.append(events[start:start + size])
        start += size


# where an abort is raised, and what: an OSError (a failed write) from any
# stage function or the sink, or a KeyboardInterrupt from the map
ABORTS = [("map", OSError), ("tap", OSError), ("aggregate", OSError), ("sink", OSError),
          ("map", KeyboardInterrupt)]


@settings(max_examples=300, deadline=None)
@given(
    stamps=st.lists(st.integers(0, 300), max_size=60),
    width=st.integers(1, 90),
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=60),
    map_fails=st.sets(st.integers(0, 59), max_size=10),
    tap_fails=st.sets(st.integers(0, 59), max_size=5),
    aggregate_fails=st.sets(st.integers(0, 300), max_size=10),
    abort=st.none() | st.tuples(st.sampled_from(ABORTS), st.integers(0, 20)),
)
@example(stamps=[0, 30, 61, 200], width=60, sizes=[1], map_fails={1}, tap_fails=set(),
         aggregate_fails=set(), abort=(("map", KeyboardInterrupt), 2))
@example(stamps=[0, 30, 61, 200], width=60, sizes=[2], map_fails=set(), tap_fails=set(),
         aggregate_fails=set(), abort=(("map", OSError), 1))
@example(stamps=[0, 30, 61, 200], width=60, sizes=[3, 1], map_fails=set(), tap_fails={0},
         aggregate_fails=set(), abort=(("tap", OSError), 2))
@example(stamps=[0, 30, 61, 200], width=60, sizes=[60], map_fails=set(), tap_fails=set(),
         aggregate_fails={0}, abort=(("aggregate", OSError), 1))
@example(stamps=[0, 30, 61, 200], width=60, sizes=[1], map_fails=set(), tap_fails=set(),
         aggregate_fails=set(), abort=(("sink", OSError), 1))
@example(stamps=[0, 30, 61, 200], width=60, sizes=[2, 1], map_fails=set(), tap_fails=set(),
         aggregate_fails=set(), abort=(("sink", OSError), 2))
@example(stamps=[100, 90, 100, 250, 30], width=60, sizes=[1], map_fails=set(), tap_fails=set(),
         aggregate_fails=set(), abort=None)
def test_push_engine_matches_reference_model(stamps, width, sizes, map_fails, tap_fails,
                                             aggregate_fails, abort):
    """Outputs and dead letters of a WindowRun stepped over drawn batches
    equal the unbatched model's, also when a stage aborts the run at a
    drawn call."""
    events = [Event(ts, seq) for seq, ts in enumerate(stamps)]
    (where, error), at = abort if abort is not None else ((None, None), None)
    calls = dict.fromkeys(STAGES, 0)

    def call(stage):
        n, calls[stage] = calls[stage], calls[stage] + 1
        if (stage, n) == (where, at):
            raise error(f"abort at {stage} call {n}")

    def check(event):
        call("map")
        if event.seq in map_fails:
            raise RuntimeError(f"event {event.seq}")
        return event

    def tap(event):
        call("tap")
        if event.seq in tap_fails:
            raise RuntimeError(f"tap {event.seq}")

    def aggregate(window):
        call("aggregate")
        if window.start // width in aggregate_fails:
            raise RuntimeError(f"window {window.start}")
        return (window.start, [e.seq for e in window.records], window.partial)

    out = []

    def sink(value):
        call("sink")
        out.append(value)

    run = WindowRun(check, tap, width, aggregate, sink)
    aborted = False
    try:
        for batch in batches_of(events, sizes):
            run.step(batch)
        run.finish()
    except (OSError, KeyboardInterrupt) as exc:
        assert type(exc) is error
        aborted = True
    expected_out, expected_dead, expected_aborted = reference_run(
        events, width, map_fails, tap_fails, aggregate_fails,
        None if abort is None else (where, at))
    assert aborted == expected_aborted
    assert out == expected_out
    assert [(d.stage_index, d.reason, d.record) for d in run.dead_letters] == expected_dead
