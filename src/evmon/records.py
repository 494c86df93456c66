"""JSONL serialization for every record crossing a file boundary.

Field names are fixed: chain, chain_id, number, ts, gas_used, gas_limit,
base_fee_wei, priority_fee_wei, eff_limit, eff_price_wei, flags, kind,
value. Encoding is compact JSON with insertion-ordered keys, so equal
records always serialize to identical bytes; every line round-trips
parse -> serialize -> parse to an equal value.

Every line a run writes for a block or a window has a writer that
formats its fixed schema directly instead of building a dict for json:
header_line, normalized_line and sample_line for each block, window_line
for each closed window. The *_to_dict functions are the reference
encoding: each writer's line equals to_line of the matching dict, byte
for byte. Only the rare dead letters are still written with to_line.

A normalized record carries its header as reported, so its line is the
header's line extended by eff_limit, eff_price_wei and flags:
normalized_line takes the header's line, already written to raw.jsonl,
so each header is formatted once. Only _block_fields, header_to_dict and
header_from_dict encode or decode the header fields, for raw and
normalized lines alike.

Decoding is strict: an integer field must be a JSON integer >= 0 and a
float field a JSON number; a bool, a fraction or a string there is a
MalformedRecord, never coerced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

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

T = TypeVar("T")


class MalformedRecord(ValueError):
    """A JSONL line failed to parse; carries the line number when known."""

    def __init__(self, reason: str, line_number: int | None = None) -> None:
        at = f" at line {line_number}" if line_number is not None else ""
        super().__init__(f"malformed record{at}: {reason}")
        self.line_number = line_number
        self.reason = reason


_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps would build one per line


def to_line(obj: dict[str, Any]) -> str:
    return _encode(obj) + "\n"


class _Prefixes(dict):
    """'{"chain":<name>,"chain_id":<id>,' by chain, each encoded by json
    once, when first looked up; one entry per chain written, and a run
    writes lines only for its configured chains. A hit is a dict lookup,
    with no function of its own to call."""

    def __missing__(self, chain: ChainRef) -> str:
        fields = _encode({"chain": chain.name, "chain_id": chain.chain_id})
        prefix = self[chain] = fields[:-1] + ","
        return prefix


_prefixes = _Prefixes()


_FLAG_LISTS = {
    frozenset(subset): _encode(sorted(flag.value for flag in subset))
    for size in range(len(Flag) + 1)
    for subset in combinations(Flag, size)
}
_KINDS = {kind: _encode(kind.value) for kind in MetricKind}


def _block_fields(header: RawBlockHeader) -> str:
    """The header fields that open raw and normalized lines, unclosed."""
    priority = header.priority_fee_observed
    return (f'{_prefixes[header.chain]}"number":{header.number},"ts":{header.timestamp},'
            f'"gas_used":{header.gas_used.value},"gas_limit":{header.gas_limit.value},'
            f'"base_fee_wei":{header.base_fee_per_gas.value_wei},'
            f'"priority_fee_wei":{"null" if priority is None else priority.value_wei}')


def header_line(header: RawBlockHeader) -> str:
    """to_line(header_to_dict(header)), without the dict."""
    return f"{_block_fields(header)}}}\n"


def normalized_line(record: NormalizedBlockRecord, raw_line: str) -> str:
    """to_line(normalized_to_dict(record)), without the dict, given
    raw_line, header_line(record.header): its fields are extended, not
    formatted again."""
    return (f'{raw_line[:-2]},"eff_limit":{record.effective_gas_limit.value},'
            f'"eff_price_wei":{record.effective_gas_price.value_wei},'
            f'"flags":{_FLAG_LISTS[record.flags]}}}\n')


def sample_line(sample: MetricSample) -> str:
    """to_line(sample_to_dict(sample)), without the dict. A finite float's
    repr is what json writes for it."""
    return (f'{_prefixes[sample.chain]}"number":{sample.block_number},"ts":{sample.timestamp},'
            f'"kind":{_KINDS[sample.kind]},"value":{sample.value!r}}}\n')


def window_line(chain: ChainRef, kind: MetricKind, start: int, end: int,
                stats: SummaryStats, partial: bool) -> str:
    """to_line(window_summary_to_dict(WindowSummary(chain, kind, start,
    end, stats, partial))), without the summary or the dict. The stats
    are finite floats, as metrics.summarize gives them, whose repr is
    what json writes."""
    return (f'{_prefixes[chain]}"kind":{_KINDS[kind]},"window_start":{start},'
            f'"window_end":{end},"count":{stats.count},"median":{stats.median!r},'
            f'"q1":{stats.q1!r},"q3":{stats.q3!r},"iqr":{stats.iqr!r},'
            f'"min":{stats.min!r},"max":{stats.max!r},'
            f'"partial":{"true" if partial else "false"}}}\n')


def header_to_dict(header: RawBlockHeader) -> dict[str, Any]:
    return {
        "chain": header.chain.name,
        "chain_id": header.chain.chain_id,
        "number": header.number,
        "ts": header.timestamp,
        "gas_used": header.gas_used.value,
        "gas_limit": header.gas_limit.value,
        "base_fee_wei": header.base_fee_per_gas.value_wei,
        "priority_fee_wei": None
        if header.priority_fee_observed is None
        else header.priority_fee_observed.value_wei,
    }


def _uint_reader(*keys: str) -> Callable[[dict[str, Any]], tuple[int, ...]]:
    """A reader of obj's values at keys, each a JSON integer >= 0. A
    bool, a float (even 5.0), a string or a negative number is a
    ValueError, never coerced; the decoders turn it into MalformedRecord."""
    get = itemgetter(*keys)  # two keys or more, so get returns a tuple

    def read(obj: dict[str, Any]) -> tuple[int, ...]:
        values = get(obj)
        for value in values:
            if type(value) is not int or value < 0:
                key = next(k for k, v in zip(keys, values) if v is value)
                raise ValueError(f"{key} must be an integer >= 0, got {value!r}")
        return values

    return read


_HEADER_INTS = ("chain_id", "number", "ts", "gas_used", "gas_limit", "base_fee_wei")
_header_ints = _uint_reader(*_HEADER_INTS)
_header_ints_with_priority = _uint_reader(*_HEADER_INTS, "priority_fee_wei")
_normalized_ints = _uint_reader("eff_limit", "eff_price_wei")
_sample_ints = _uint_reader("chain_id", "number", "ts")
_window_ints = _uint_reader("chain_id", "window_start", "window_end", "count")


def _number(obj: dict[str, Any], key: str) -> float:
    """obj[key] as a float; anything but a JSON number (a bool, a string)
    is a ValueError."""
    value = obj[key]
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


# Interned by chain_ref, which every record decoder and load_config use:
# one entry per chain configured or decoded. Replay stops at its first
# unconfigured chain, so there this holds at most one chain more.
_chains: dict[tuple[str, int], ChainRef] = {}


def chain_ref(name: str, chain_id: int) -> ChainRef:
    """The one ChainRef of name and chain_id, so a decoded record and its
    chain's profile share the very object."""
    key = (name, chain_id)
    chain = _chains.get(key)
    if chain is None:
        if type(name) is not str:
            raise ValueError(f"chain must be a string, got {name!r}")
        chain = _chains[key] = ChainRef(name, chain_id)
    return chain


def header_from_dict(obj: dict[str, Any]) -> RawBlockHeader:
    """Parse one header; headers of one chain share a single ChainRef."""
    try:
        priority = obj.get("priority_fee_wei")
        if priority is None:
            chain_id, number, ts, used, limit, base = _header_ints(obj)
        else:
            chain_id, number, ts, used, limit, base, priority = _header_ints_with_priority(obj)
        header = RawBlockHeader(chain_ref(obj["chain"], chain_id), number, ts,
                                GasQuantity(used), GasQuantity(limit), FeeQuantity(base),
                                None if priority is None else FeeQuantity(priority))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(str(exc)) from exc
    if used > limit:
        raise MalformedRecord(f"gas_used {used} exceeds gas_limit {limit}")
    return header


def normalized_to_dict(record: NormalizedBlockRecord) -> dict[str, Any]:
    return {
        **header_to_dict(record.header),
        "eff_limit": record.effective_gas_limit.value,
        "eff_price_wei": record.effective_gas_price.value_wei,
        "flags": sorted(flag.value for flag in record.flags),
    }


def normalized_from_dict(obj: dict[str, Any]) -> NormalizedBlockRecord:
    header = header_from_dict(obj)
    try:
        eff_limit, eff_price = _normalized_ints(obj)
        flags = obj["flags"]
        if type(flags) is not list:
            raise ValueError(f"flags must be a list, got {flags!r}")
        return NormalizedBlockRecord(
            header=header,
            effective_gas_limit=GasQuantity(eff_limit),
            effective_gas_price=FeeQuantity(eff_price),
            flags=frozenset(Flag(name) for name in flags),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(str(exc)) from exc


def sample_to_dict(sample: MetricSample) -> dict[str, Any]:
    return {
        "chain": sample.chain.name,
        "chain_id": sample.chain.chain_id,
        "number": sample.block_number,
        "ts": sample.timestamp,
        "kind": sample.kind.value,
        "value": sample.value,
    }


def sample_from_dict(obj: dict[str, Any]) -> MetricSample:
    try:
        chain_id, number, ts = _sample_ints(obj)
        return MetricSample(chain_ref(obj["chain"], chain_id), number, ts,
                            MetricKind(obj["kind"]), _number(obj, "value"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(str(exc)) from exc


@dataclass(frozen=True)
class WindowSummary:
    """SummaryStats over one tumbling window of one (chain, kind)."""

    chain: ChainRef
    kind: MetricKind
    window_start: int
    window_end: int
    stats: SummaryStats
    partial: bool


def window_summary_to_dict(summary: WindowSummary) -> dict[str, Any]:
    stats = summary.stats
    return {
        "chain": summary.chain.name,
        "chain_id": summary.chain.chain_id,
        "kind": summary.kind.value,
        "window_start": summary.window_start,
        "window_end": summary.window_end,
        "count": stats.count,
        "median": stats.median,
        "q1": stats.q1,
        "q3": stats.q3,
        "iqr": stats.iqr,
        "min": stats.min,
        "max": stats.max,
        "partial": summary.partial,
    }


def window_summary_from_dict(obj: dict[str, Any]) -> WindowSummary:
    try:
        chain_id, start, end, count = _window_ints(obj)
        partial = obj["partial"]
        if type(partial) is not bool:
            raise ValueError(f"partial must be true or false, got {partial!r}")
        return WindowSummary(
            chain=chain_ref(obj["chain"], chain_id),
            kind=MetricKind(obj["kind"]),
            window_start=start,
            window_end=end,
            stats=SummaryStats(count=count, **{
                key: _number(obj, key) for key in ("median", "q1", "q3", "iqr", "min", "max")}),
            partial=partial,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(str(exc)) from exc


def stats_to_dict(stats: SummaryStats) -> dict[str, Any]:
    return {
        "count": stats.count,
        "median": stats.median,
        "q1": stats.q1,
        "q3": stats.q3,
        "iqr": stats.iqr,
        "min": stats.min,
        "max": stats.max,
    }


# The C scanner that json.loads runs after its Python-level wrappers skip
# whitespace at both ends of the text; a stripped line has none to skip.
_scan_once = json.JSONDecoder().scan_once


def read_jsonl(path: Path, parse: Callable[[dict[str, Any]], T]) -> Iterator[T]:
    """Parse a JSONL file; MalformedRecord errors carry the line number.

    Each stripped line goes to the JSON scanner alone. A line that the
    scanner rejects or does not consume to its end is parsed again by
    json.loads, so every line is accepted or rejected, with the same
    error text, exactly as json.loads would."""
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):  # so json.loads raises, with its own message
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
