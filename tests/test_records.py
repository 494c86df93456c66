import json
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evmon.metrics import summarize
from evmon.model import (
    ChainRef,
    FeeQuantity,
    Flag,
    GasQuantity,
    MetricKind,
    MetricSample,
    NormalizedBlockRecord,
    RawBlockHeader,
    SummaryStats,
)
from evmon.records import (
    MalformedRecord,
    WindowSummary,
    header_from_dict,
    header_line,
    header_to_dict,
    normalized_from_dict,
    normalized_line,
    normalized_to_dict,
    read_jsonl,
    sample_from_dict,
    sample_line,
    sample_to_dict,
    to_line,
    window_line,
    window_summary_from_dict,
    window_summary_to_dict,
)

chains = st.builds(
    ChainRef,
    name=st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
    chain_id=st.integers(min_value=1, max_value=10**6),
)

gas = st.integers(min_value=0, max_value=10**10)
wei = st.integers(min_value=0, max_value=10**15)


# what the fixed-schema writers must escape or format: any text, any int
any_chains = st.builds(ChainRef, name=st.text(), chain_id=st.integers())
big_ints = st.integers(min_value=0, max_value=2**256)


@st.composite
def headers(draw, chains=chains, wei=wei):
    used = draw(gas)
    limit = draw(st.integers(min_value=used, max_value=10**10 + used))
    return RawBlockHeader(
        chain=draw(chains),
        number=draw(st.integers(min_value=0, max_value=10**9)),
        timestamp=draw(st.integers(min_value=0, max_value=2**40)),
        gas_used=GasQuantity(used),
        gas_limit=GasQuantity(limit),
        base_fee_per_gas=FeeQuantity(draw(wei)),
        priority_fee_observed=draw(st.one_of(st.none(), wei.map(FeeQuantity))),
    )


@st.composite
def normalized_records(draw, chains=chains, wei=wei):
    return NormalizedBlockRecord(
        header=draw(headers(chains, wei)),
        effective_gas_limit=GasQuantity(draw(gas)),
        effective_gas_price=FeeQuantity(draw(wei)),
        flags=frozenset(draw(st.sets(st.sampled_from(list(Flag))))),
    )


samples = st.builds(
    MetricSample,
    chain=chains,
    block_number=st.integers(min_value=0, max_value=10**9),
    timestamp=st.integers(min_value=0, max_value=2**40),
    kind=st.sampled_from(list(MetricKind)),
    value=st.floats(min_value=0, max_value=1e12, allow_nan=False, allow_infinity=False),
)


any_samples = st.builds(
    MetricSample,
    chain=any_chains,
    block_number=big_ints,
    timestamp=big_ints,
    kind=st.sampled_from(list(MetricKind)),
    value=st.one_of(st.floats(min_value=0, allow_nan=False, allow_infinity=False), big_ints),
)


def reparse(line):
    return json.loads(line)


@given(headers())
def test_header_line_round_trip(header):
    line = to_line(header_to_dict(header))
    assert header_from_dict(reparse(line)) == header
    # parse -> serialize -> parse is stable at the byte level
    assert to_line(header_to_dict(header_from_dict(reparse(line)))) == line


@given(normalized_records())
def test_normalized_line_round_trip(record):
    line = to_line(normalized_to_dict(record))
    assert normalized_from_dict(reparse(line)) == record
    assert to_line(normalized_to_dict(normalized_from_dict(reparse(line)))) == line


@given(samples)
def test_sample_line_round_trip(sample):
    line = to_line(sample_to_dict(sample))
    assert sample_from_dict(reparse(line)) == sample
    assert to_line(sample_to_dict(sample_from_dict(reparse(line)))) == line


@given(headers(any_chains, big_ints))
def test_header_line_matches_the_reference_encoding(header):
    assert header_line(header) == to_line(header_to_dict(header))


@given(normalized_records(any_chains, big_ints))
def test_normalized_line_matches_the_reference_encoding(record):
    assert normalized_line(record, header_line(record.header)) == to_line(
        normalized_to_dict(record))


def test_normalized_line_writes_every_flag_subset():
    header = RawBlockHeader(ChainRef("c", 1), 0, 0, GasQuantity(1), GasQuantity(2),
                            FeeQuantity(3))
    for size in range(len(Flag) + 1):
        for subset in combinations(Flag, size):
            record = NormalizedBlockRecord(
                header=header, effective_gas_limit=header.gas_limit,
                effective_gas_price=header.base_fee_per_gas, flags=frozenset(subset))
            assert normalized_line(record, header_line(header)) == to_line(
                normalized_to_dict(record))


@given(any_samples)
@example(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 5e-324))
@example(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 2.2250738585072014e-308))
@example(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.7976931348623157e308))
@example(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.BLOCK_USAGE_RATIO, -0.0))
@example(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.BLOCK_USAGE_RATIO, 1e16))
def test_sample_line_matches_the_reference_encoding(sample):
    assert sample_line(sample) == to_line(sample_to_dict(sample))


window_values = st.one_of(
    st.sampled_from([0.0, 5e-324, 1 / 3, 1e16]),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)


@given(chain=any_chains, kind=st.sampled_from(list(MetricKind)), start=big_ints,
       end=big_ints, values=st.lists(window_values, min_size=1, max_size=9),
       partial=st.booleans())
def test_window_line_matches_the_reference_encoding(chain, kind, start, end, values, partial):
    stats = summarize(values)
    assert window_line(chain, kind, start, end, stats, partial) == to_line(
        window_summary_to_dict(WindowSummary(chain, kind, start, end, stats, partial)))


def test_header_from_dict_shares_one_chain_ref_per_chain():
    line = header_to_dict(
        RawBlockHeader(ChainRef("shared", 9), 0, 0, GasQuantity(1), GasQuantity(2), FeeQuantity(3))
    )
    first = header_from_dict(dict(line, number=1))
    second = header_from_dict(dict(line, number=2))
    assert first.chain is second.chain == ChainRef("shared", 9)
    with pytest.raises(MalformedRecord):
        header_from_dict(dict(line, number=2, chain_id="9"))
    assert header_from_dict(dict(line, chain_id=10)).chain == ChainRef("shared", 10)
    with pytest.raises(MalformedRecord):
        header_from_dict(dict(line, chain=["not", "a", "name"]))


_HEADER = header_to_dict(RawBlockHeader(ChainRef("strict", 3), 7, 100, GasQuantity(5),
                                        GasQuantity(10), FeeQuantity(4), FeeQuantity(1)))
_NOT_UINTS = [5.7, 5.0, 3.9, "100", True, False, -1, None, [5]]


@pytest.mark.parametrize("key", ["chain_id", "number", "ts", "gas_used", "gas_limit",
                                 "base_fee_wei", "priority_fee_wei"])
@pytest.mark.parametrize("value", _NOT_UINTS)
def test_header_from_dict_takes_only_json_integers_of_zero_or_more(key, value):
    if key == "priority_fee_wei" and value is None:
        assert header_from_dict(dict(_HEADER, priority_fee_wei=None)).priority_fee_observed is None
        return
    with pytest.raises(MalformedRecord, match=key):
        header_from_dict(dict(_HEADER, **{key: value}))


@pytest.mark.parametrize("name", [5, None, ["x"], True])
def test_record_decoders_take_only_a_string_chain_name(name):
    with pytest.raises(MalformedRecord):
        header_from_dict(dict(_HEADER, chain=name))
    sample = sample_to_dict(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.5))
    with pytest.raises(MalformedRecord):
        sample_from_dict(dict(sample, chain=name))


@pytest.mark.parametrize("value", _NOT_UINTS)
def test_normalized_from_dict_takes_only_json_integers_of_zero_or_more(value):
    obj = normalized_to_dict(NormalizedBlockRecord(header_from_dict(_HEADER), GasQuantity(10),
                                                   FeeQuantity(4), frozenset()))
    assert normalized_from_dict(obj).effective_gas_limit == GasQuantity(10)
    for key in ("eff_limit", "eff_price_wei"):
        with pytest.raises(MalformedRecord, match=key):
            normalized_from_dict(dict(obj, **{key: value}))
    with pytest.raises(MalformedRecord, match="flags"):
        normalized_from_dict(dict(obj, flags="limit_overridden"))


@pytest.mark.parametrize("key", ["chain_id", "number", "ts"])
@pytest.mark.parametrize("value", _NOT_UINTS)
def test_sample_from_dict_takes_only_json_integers_of_zero_or_more(key, value):
    obj = sample_to_dict(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.5))
    with pytest.raises(MalformedRecord, match=key):
        sample_from_dict(dict(obj, **{key: value}))


@pytest.mark.parametrize("value", ["1.5", True, None, [1.5]])
def test_sample_value_must_be_a_json_number(value):
    obj = sample_to_dict(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.5))
    assert sample_from_dict(dict(obj, value=2)).value == 2.0
    with pytest.raises(MalformedRecord, match="value"):
        sample_from_dict(dict(obj, value=value))


def test_window_summary_from_dict_is_strict():
    summary = WindowSummary(ChainRef("c", 5), MetricKind.BLOCK_USAGE_RATIO, 600, 900,
                            SummaryStats(count=4, median=0.5, q1=0.25, q3=0.75, iqr=0.5,
                                         min=0.1, max=0.9), partial=True)
    obj = window_summary_to_dict(summary)
    for key in ("chain_id", "window_start", "window_end", "count"):
        for value in _NOT_UINTS:
            with pytest.raises(MalformedRecord, match=key):
                window_summary_from_dict(dict(obj, **{key: value}))
    for key in ("median", "q1", "q3", "iqr", "min", "max"):
        for value in ("0.5", True, None):
            with pytest.raises(MalformedRecord, match=key):
                window_summary_from_dict(dict(obj, **{key: value}))
    for value in (1, 0, "true", None):
        with pytest.raises(MalformedRecord, match="partial"):
            window_summary_from_dict(dict(obj, partial=value))


def test_window_summary_round_trip():
    summary = WindowSummary(
        chain=ChainRef("c", 5),
        kind=MetricKind.BLOCK_USAGE_RATIO,
        window_start=600,
        window_end=900,
        stats=SummaryStats(count=4, median=0.5, q1=0.25, q3=0.75, iqr=0.5, min=0.1, max=0.9),
        partial=True,
    )
    line = to_line(window_summary_to_dict(summary))
    assert window_summary_from_dict(reparse(line)) == summary


def test_header_parse_rejects_gas_used_above_limit():
    obj = header_to_dict(
        RawBlockHeader(
            chain=ChainRef("c", 1),
            number=0,
            timestamp=0,
            gas_used=GasQuantity(5),
            gas_limit=GasQuantity(10),
            base_fee_per_gas=FeeQuantity(1),
        )
    )
    obj["gas_used"] = 20
    with pytest.raises(MalformedRecord):
        header_from_dict(obj)


def test_normalized_from_dict_decodes_its_header_with_header_from_dict():
    header = RawBlockHeader(ChainRef("shared", 9), 0, 0, GasQuantity(5), GasQuantity(10),
                            FeeQuantity(1))
    obj = normalized_to_dict(NormalizedBlockRecord(header, GasQuantity(10), FeeQuantity(1),
                                                   frozenset()))
    assert normalized_from_dict(obj).header.chain is header_from_dict(obj).chain
    obj["gas_used"] = 20
    with pytest.raises(MalformedRecord, match="exceeds gas_limit"):
        normalized_from_dict(obj)


def test_read_jsonl_reports_line_numbers(tmp_path):
    path = tmp_path / "input.jsonl"
    good = to_line(header_to_dict(
        RawBlockHeader(ChainRef("c", 1), 0, 0, GasQuantity(1), GasQuantity(2), FeeQuantity(3))
    ))
    path.write_text(good + "{broken\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        list(read_jsonl(path, header_from_dict))
    assert excinfo.value.line_number == 2

    path.write_text(good + '{"chain":"c"}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        list(read_jsonl(path, header_from_dict))
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize("line", ["[1,2]", "5", "null", '"x"'])
def test_read_jsonl_names_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "input.jsonl"
    good = header_line(
        RawBlockHeader(ChainRef("c", 1), 0, 0, GasQuantity(1), GasQuantity(2), FeeQuantity(3)))
    path.write_text(good + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="not a JSON object") as excinfo:
        list(read_jsonl(path, header_from_dict))
    assert excinfo.value.line_number == 2


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "input.jsonl"
    line = to_line(sample_to_dict(
        MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.5)
    ))
    path.write_text(line + "\n" + line, encoding="utf-8")
    assert len(list(read_jsonl(path, sample_from_dict))) == 2


def reference_read_jsonl(path, parse):
    """read_jsonl as it was when every line went through json.loads."""
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise MalformedRecord(f"invalid JSON ({exc})", line_number) from exc
            if not isinstance(obj, dict):
                raise MalformedRecord("not a JSON object", line_number)
            try:
                yield parse(obj)
            except MalformedRecord as exc:
                raise MalformedRecord(exc.reason, line_number) from exc


def read_outcome(read, path, parse):
    """The records read before the first MalformedRecord, and its reason
    and line number (None when the whole file reads)."""
    got = []
    try:
        for record in read(path, parse):
            got.append(record)
    except MalformedRecord as exc:
        return got, (exc.reason, exc.line_number)
    return got, None


_SAMPLE_LINE = sample_line(MetricSample(ChainRef("c", 1), 0, 0, MetricKind.GAS_PRICE_GWEI, 1.5))
# a file line holds no \n or \r: the reader splits lines at both
line_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"))
json_whitespace = st.text(alphabet=" \t", max_size=3)


@st.composite
def spaced_lines(draw):
    """A header or sample object with whitespace, JSON's or not, around
    its separators."""
    obj = json.loads(draw(st.sampled_from([header_line(draw(headers())), _SAMPLE_LINE])))
    space = st.text(alphabet=" \t\x0b\x0c\xa0", max_size=2)
    return json.dumps(obj, separators=(draw(space) + "," + draw(space),
                                       draw(space) + ":" + draw(space)))


@st.composite
def with_control_character(draw):
    """A header line with a raw control character in its chain name."""
    line = header_line(draw(headers())).strip()
    char = draw(st.characters(max_codepoint=0x1F, blacklist_characters="\n\r"))
    return line.replace('"chain":"', '"chain":"' + char, 1)


jsonl_lines = st.one_of(
    headers().map(lambda header: header_line(header).strip()),
    st.sampled_from(["NaN", "Infinity", "-Infinity"]).flatmap(lambda constant: st.sampled_from([
        _SAMPLE_LINE.strip().replace("1.5", constant),
        header_line(RawBlockHeader(ChainRef("c", 1), 0, 0, GasQuantity(1), GasQuantity(2),
                                   FeeQuantity(3))).strip().replace('"ts":0', f'"ts":{constant}'),
        constant,
    ])),
    st.tuples(st.sampled_from([_SAMPLE_LINE.strip(), "{}", "[1]", "5"]), line_text).map("".join),
    st.sampled_from([_SAMPLE_LINE, "{}"]).map(lambda line: "\ufeff" + line.strip()),
    st.sampled_from(["[1,2]", "[]", "5", "-0", "1.5e3", "null", "true", '"x"', "[NaN]"]),
    with_control_character(),
    spaced_lines(),
    st.tuples(json_whitespace, st.sampled_from([_SAMPLE_LINE.strip(), "{}"]),
              json_whitespace).map("".join),
    st.sampled_from(["", " ", "\t", "\x0c"]),
    line_text,
)


@pytest.mark.parametrize("parse", [repr, header_from_dict, sample_from_dict],
                         ids=["objects", "headers", "samples"])
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(jsonl_lines, max_size=6))
def test_read_jsonl_decodes_as_json_loads_did(tmp_path, parse, lines):
    """read_jsonl reads the same records, and stops with the same reason at
    the same line, as the json.loads reader: the scanner changes no
    accepted or rejected line and no error text."""
    path = tmp_path / "input.jsonl"  # each example writes it whole
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert read_outcome(read_jsonl, path, parse) == read_outcome(reference_read_jsonl, path, parse)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "-1.5", "-1"])
def test_sample_from_dict_rejects_a_value_that_is_not_finite_or_is_negative(tmp_path, value):
    path = tmp_path / "samples.jsonl"
    path.write_text(_SAMPLE_LINE.replace("1.5", value), encoding="utf-8")
    with pytest.raises(MalformedRecord, match="finite and >= 0") as excinfo:
        list(read_jsonl(path, sample_from_dict))
    assert excinfo.value.line_number == 1
