import pytest

from conftest import TEST_CHAIN, constant_fee_scenario, make_header, make_profile
from evmon.cep import (
    Aggregate,
    Map,
    Pipeline,
    Sink,
    SinkFailure,
    TumblingWindow,
    apply_map,
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


def test_map_identity_preserves_stream():
    records = headers(100)
    assert list(apply_map(iter(records), lambda r: r)) == records


def test_map_extracts_metric_per_record():
    profile = make_profile()
    normalizer = Normalizer(profile)
    normalized = [normalizer.normalize(h) for h in headers(50)]
    samples = list(apply_map(iter(normalized), gas_price_sample))
    assert len(samples) == 50
    assert [s.block_number for s in samples] == [h.number for h in normalized]


def test_map_failure_goes_to_dead_letters():
    dead = []

    def explode_on_three(record):
        if record.number == 3:
            raise RuntimeError("boom")
        return record

    out = list(apply_map(iter(headers(10)), explode_on_three, dead))
    assert len(out) == 9
    assert len(dead) == 1
    assert dead[0].record.number == 3


def collecting_sink(into):
    return Sink(into.append)


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
            stages=(
                TumblingWindow(60),
                Aggregate(lambda fw: fw),
                collecting_sink(flushed),
            ),
        )
    )
    assert len(flushed) == 2
    first, last = flushed
    assert first.partial is False
    assert len(first.records) == 2
    assert (first.assignment.start, first.assignment.end) == (0, 60)
    assert last.partial is True  # open window flushed at exhaustion
    assert len(last.records) == 1
    assert report.dead_letter_count == 0


def test_late_record_goes_to_dead_letters():
    records = [
        make_header(number=0, timestamp=100),
        make_header(number=1, timestamp=90),
        make_header(number=2, timestamp=100),
    ]
    out = []
    report = run_pipeline(
        Pipeline(source=records,
                 stages=(TumblingWindow(60), Aggregate(lambda fw: fw), collecting_sink(out)))
    )
    assert report.dead_letter_count == 1
    assert "late" in report.dead_letters[0].reason
    assert sum(len(fw.records) for fw in out) == 2


def test_pipeline_shape_validation():
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(Map(lambda r: r),)))
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(Sink(print), Sink(print))))
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(Aggregate(lambda fw: fw), Sink(print))))
    with pytest.raises(ValueError):
        run_pipeline(Pipeline(source=[], stages=(TumblingWindow(60), Sink(print))))


def test_sink_failure_aborts_with_report():
    def bad_sink(record):
        raise OSError("disk full")

    with pytest.raises(SinkFailure) as excinfo:
        run_pipeline(Pipeline(source=headers(5), stages=(Map(lambda r: r), Sink(bad_sink))))
    assert excinfo.value.report.records_in >= 1


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
                TumblingWindow(300),
                Aggregate(lambda fw: summarize_samples(fw.records)),
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
                 stages=(TumblingWindow(60), Aggregate(lambda fw: fw),
                         collecting_sink(flushed)))
    )
    spans = [(fw.assignment.start, fw.assignment.end) for fw in flushed]
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert start >= prev_end
    for fw in flushed:
        for record in fw.records:
            assert fw.assignment.start <= record.timestamp < fw.assignment.end
