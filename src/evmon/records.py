"""JSONL serialization for every record crossing a file boundary.

Field names are fixed: chain, chain_id, number, ts, gas_used, gas_limit,
base_fee_wei, priority_fee_wei, eff_limit, eff_price_wei, flags, kind,
value. Encoding is compact JSON with insertion-ordered keys, so equal
records always serialize to identical bytes; every line round-trips
parse -> serialize -> parse to an equal value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def to_line(obj: dict[str, Any]) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


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


def header_from_dict(obj: dict[str, Any]) -> RawBlockHeader:
    try:
        priority = obj.get("priority_fee_wei")
        header = RawBlockHeader(
            chain=ChainRef(name=obj["chain"], chain_id=int(obj["chain_id"])),
            number=int(obj["number"]),
            timestamp=int(obj["ts"]),
            gas_used=GasQuantity(int(obj["gas_used"])),
            gas_limit=GasQuantity(int(obj["gas_limit"])),
            base_fee_per_gas=FeeQuantity(int(obj["base_fee_wei"])),
            priority_fee_observed=None if priority is None else FeeQuantity(int(priority)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(str(exc)) from exc
    if header.gas_used.value > header.gas_limit.value:
        raise MalformedRecord(
            f"gas_used {header.gas_used.value} exceeds gas_limit {header.gas_limit.value}"
        )
    return header


def normalized_to_dict(record: NormalizedBlockRecord) -> dict[str, Any]:
    return {
        "chain": record.chain.name,
        "chain_id": record.chain.chain_id,
        "number": record.number,
        "ts": record.timestamp,
        "gas_used": record.gas_used.value,
        "gas_limit": record.gas_limit.value,
        "base_fee_wei": record.base_fee_per_gas.value_wei,
        "priority_fee_wei": None
        if record.priority_fee_observed is None
        else record.priority_fee_observed.value_wei,
        "eff_limit": record.effective_gas_limit.value,
        "eff_price_wei": record.effective_gas_price.value_wei,
        "flags": sorted(flag.value for flag in record.flags),
    }


def normalized_from_dict(obj: dict[str, Any]) -> NormalizedBlockRecord:
    try:
        priority = obj.get("priority_fee_wei")
        return NormalizedBlockRecord(
            chain=ChainRef(name=obj["chain"], chain_id=int(obj["chain_id"])),
            number=int(obj["number"]),
            timestamp=int(obj["ts"]),
            gas_used=GasQuantity(int(obj["gas_used"])),
            gas_limit=GasQuantity(int(obj["gas_limit"])),
            base_fee_per_gas=FeeQuantity(int(obj["base_fee_wei"])),
            priority_fee_observed=None if priority is None else FeeQuantity(int(priority)),
            effective_gas_limit=GasQuantity(int(obj["eff_limit"])),
            effective_gas_price=FeeQuantity(int(obj["eff_price_wei"])),
            flags=frozenset(Flag(name) for name in obj["flags"]),
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
        return MetricSample(
            chain=ChainRef(name=obj["chain"], chain_id=int(obj["chain_id"])),
            block_number=int(obj["number"]),
            timestamp=int(obj["ts"]),
            kind=MetricKind(obj["kind"]),
            value=float(obj["value"]),
        )
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
        return WindowSummary(
            chain=ChainRef(name=obj["chain"], chain_id=int(obj["chain_id"])),
            kind=MetricKind(obj["kind"]),
            window_start=int(obj["window_start"]),
            window_end=int(obj["window_end"]),
            stats=SummaryStats(
                count=int(obj["count"]),
                median=float(obj["median"]),
                q1=float(obj["q1"]),
                q3=float(obj["q3"]),
                iqr=float(obj["iqr"]),
                min=float(obj["min"]),
                max=float(obj["max"]),
            ),
            partial=bool(obj["partial"]),
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


def read_jsonl(path: Path, parse: Callable[[dict[str, Any]], T]) -> Iterator[T]:
    """Parse a JSONL file; MalformedRecord errors carry the line number."""
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise MalformedRecord(f"invalid JSON ({exc})", line_number) from exc
            try:
                yield parse(obj)
            except MalformedRecord as exc:
                raise MalformedRecord(exc.reason, line_number) from exc
