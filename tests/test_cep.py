from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEST_CHAIN, constant_fee_scenario, make_header, make_profile
from evmon.cep import (
    FlushedWindow,
    Map,
    Pipeline,
    PipelineFailure,
    Sink,
    TumblingWindow,
    WindowAssignment,
    assign_tumbling_window,
    run_pipeline,
)
from evmon.metrics import gas_price_sample, summarize_samples
from evmon.normalize import Normalizer
from evmon.simnode import generate_scenario


def headers(n, chain=TEST_CHAIN, interval=30):
    return [make_header(number=i, timestamp=1000 + i * interval, chain=chain) for i in range(n)]


def test_window_assignment_floor_rule():
    record = make_header(timestamp=125)
    assert assign_tumbling_window(record, 60).start == 120
    assert assign_tumbling_window(record, 60).end == 180


def test_window_boundary_belongs_to_own_window():
    record = make_header(timestamp=120)
    window = assign_tumbling_window(record, 60)
    assert (window.start, window.end) == (120, 180)


def test_window_origin():
    window = assign_tumbling_window(make_header(timestamp=0), 3600)
    assert (window.start, window.end) == (0, 3600)


def test_window_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        assign_tumbling_window(make_header(), 0)


def collecting_sink(into):
    return Sink(into.append)


def run_map(records, fn):
    out = []
    report = run_pipeline(Pipeline(source=records, stages=(Map(fn), collecting_sink(out))))
    return out, report


def test_map_identity_preserves_stream():
    records = headers(100)
    assert run_map(records, lambda r: r)[0] == records


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

    out, report = run_map(headers(10), explode_on_three)
    assert len(out) == 9
    assert len(report.dead_letters) == 1
    assert report.dead_letters[0].record.number == 3


def test_run_pipeline_counts_identity():
    out = []
    report = run_pipeline(Pipeline(source=headers(10), stages=(Map(lambda r: r),
                                                               collecting_sink(out))))
    assert report.records_in == 10
    assert report.stage_out == [10, 10]
    assert len(out) == 10


def test_window_flushes_when_timestamp_passes_end():
    records = [make_header(number=i, timestamp=t) for i, t in enumerate((0, 30, 61))]
    flushed = []
    report = run_pipeline(
        Pipeline(
            source=records,
            stages=(TumblingWindow(60, lambda fw: fw), collecting_sink(flushed)),
        )
    )
    assert len(flushed) == 2
    first, last = flushed
    assert first.partial is False
    assert len(first.records) == 2
    assert (first.assignment.start, first.assignment.end) == (0, 60)
    assert last.partial is True  # open window flushed at exhaustion
    assert len(last.records) == 1
    assert len(report.dead_letters) == 0


def test_late_record_goes_to_dead_letters():
    records = [
        make_header(number=0, timestamp=100),
        make_header(number=1, timestamp=90),
        make_header(number=2, timestamp=100),
    ]
    out = []
    report = run_pipeline(
        Pipeline(source=records,
                 stages=(TumblingWindow(60, lambda fw: fw), collecting_sink(out)))
    )
    assert len(report.dead_letters) == 1
    assert "late" in report.dead_letters[0].reason
    assert sum(len(fw.records) for fw in out) == 2


def test_pipeline_shape_validation():
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(Map(lambda r: r),)))
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(Sink(print), Sink(print))))


def test_sink_failure_aborts_with_report():
    def bad_sink(record):
        raise OSError("disk full")

    with pytest.raises(PipelineFailure) as excinfo:
        run_pipeline(Pipeline(source=headers(5), stages=(Map(lambda r: r), Sink(bad_sink))))
    assert excinfo.value.report.records_in >= 1


def test_source_failure_aborts_with_report():
    def failing_source(k):
        yield from headers(k)
        raise OSError("connection reset")

    with pytest.raises(PipelineFailure) as excinfo:
        run_pipeline(Pipeline(source=failing_source(7),
                              stages=(Map(lambda r: r), collecting_sink([]))))
    assert isinstance(excinfo.value.cause, OSError)
    assert excinfo.value.report.records_in == 7
    assert excinfo.value.report.stage_out == [7, 7]


def test_aggregate_failure_goes_to_dead_letters_at_window_stage():
    # one record per minute: windows start at 0, 60, 120, 180
    records = [make_header(number=i, timestamp=i * 60) for i in range(4)]

    def count_or_explode(window):
        if window.assignment.start == 60:
            raise RuntimeError("boom")
        return len(window.records)

    out = []
    report = run_pipeline(
        Pipeline(source=records,
                 stages=(Map(lambda r: r), TumblingWindow(60, count_or_explode),
                         collecting_sink(out)))
    )
    assert out == [1, 1, 1]
    assert len(report.dead_letters) == 1
    dead = report.dead_letters[0]
    assert dead.stage_index == 1
    assert dead.record.assignment.start == 60
    assert report.stage_out == [4, 3, 3]


def test_order_preserved_through_map_and_filter():
    out = []
    run_pipeline(
        Pipeline(
            source=headers(200),
            stages=(Map(lambda r: r), collecting_sink(out)),
        )
    )
    assert [r.number for r in out] == list(range(200))


def test_window_conservation_over_scenario_stream():
    """Conservation oracle: sum of aggregated window counts equals the
    number of records entering the window stage."""
    ledger = generate_scenario(constant_fee_scenario(block_count=1000))
    profile = make_profile(chain=ledger[0].chain)
    normalizer = Normalizer(profile)
    summaries = []
    report = run_pipeline(
        Pipeline(
            source=ledger,
            stages=(
                Map(normalizer.normalize),
                Map(gas_price_sample),
                TumblingWindow(300, lambda fw: summarize_samples(fw.records)),
                collecting_sink(summaries),
            ),
        )
    )
    assert report.records_in == 1000
    assert sum(stats.count for stats in summaries) == 1000


def test_windows_tile_time_range_disjointly():
    ledger = generate_scenario(constant_fee_scenario(block_count=500, block_interval_s=7))
    flushed = []
    run_pipeline(
        Pipeline(source=ledger,
                 stages=(TumblingWindow(60, lambda fw: fw), collecting_sink(flushed)))
    )
    spans = [(fw.assignment.start, fw.assignment.end) for fw in flushed]
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert start >= prev_end
    for fw in flushed:
        for record in fw.records:
            assert fw.assignment.start <= record.timestamp < fw.assignment.end


@dataclass(frozen=True)
class Event:
    chain: str
    timestamp: int
    seq: int


def reference_run(events, width, map_fails, aggregate_fails):
    """The engine's contract for (Map, TumblingWindow, Sink) as one plain
    loop over lists: (sink outputs, stage_out, dead letters)."""
    out, stage_out, dead = [], [0, 0, 0], []
    open_windows, watermarks = {}, {}

    def aggregate(key, start, members, partial):
        if start // width in aggregate_fails:
            window = FlushedWindow(WindowAssignment(key, start, start + width),
                                   tuple(members), partial)
            dead.append((1, f"map: window {start}", window))
        else:
            stage_out[1] += 1
            out.append((key, start, [e.seq for e in members], partial))
            stage_out[2] += 1

    for event in events:
        if event.seq in map_fails:
            dead.append((0, f"map: event {event.seq}", event))
            continue
        stage_out[0] += 1
        key, ts = event.chain, event.timestamp
        if key in watermarks and ts < watermarks[key]:
            dead.append((1, f"late: ts {ts} behind watermark {watermarks[key]}", event))
            continue
        watermarks[key] = ts
        start = ts - ts % width
        if key in open_windows and open_windows[key][0] < start:
            aggregate(key, *open_windows.pop(key), False)
        open_windows.setdefault(key, (start, []))[1].append(event)
    for key in sorted(open_windows, key=repr):
        aggregate(key, *open_windows[key], True)
    return out, stage_out, dead


@settings(max_examples=200, deadline=None)
@given(
    stamps=st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 300)), max_size=60),
    width=st.integers(1, 90),
    map_fails=st.sets(st.integers(0, 59), max_size=10),
    aggregate_fails=st.sets(st.integers(0, 300), max_size=10),
)
def test_push_engine_matches_reference_model(stamps, width, map_fails, aggregate_fails):
    events = [Event(chain, ts, seq) for seq, (chain, ts) in enumerate(stamps)]

    def check(event):
        if event.seq in map_fails:
            raise RuntimeError(f"event {event.seq}")
        return event

    def aggregate(window):
        start = window.assignment.start
        if start // width in aggregate_fails:
            raise RuntimeError(f"window {start}")
        return (window.assignment.key, start, [e.seq for e in window.records], window.partial)

    out = []
    report = run_pipeline(Pipeline(source=events, stages=(
        Map(check), TumblingWindow(width, aggregate), collecting_sink(out))))
    expected_out, expected_stage_out, expected_dead = reference_run(
        events, width, map_fails, aggregate_fails)
    assert out == expected_out
    assert report.records_in == len(events)
    assert report.stage_out == expected_stage_out
    assert [(d.stage_index, d.reason, d.record) for d in report.dead_letters] == expected_dead
