"""Span tracing around the public functions of each evmon layer.

install() wraps, from outside the program, the StreamLog methods, the
records codec functions, Normalizer.normalize, the metrics sample and
summarize functions, cep.run_pipeline (with its source and stage
functions) and the BlockSource calls of simnode.LedgerRpcClient. Each call
records a span (name, start, end, parent) in a per-thread buffer kept in
memory; write() stores the buffers when the run ends and layer_metrics()
turns them into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# (metric, unit) pairs, in the order of the result line
LAYER_METRICS = (
    ("ingest.fetch_us", "us"),
    ("ingest.head_polls_per_block", "count"),
    ("streamlog.append_us", "us"),
    ("streamlog.poll_us", "us"),
    ("streamlog.records_per_poll", "records"),
    ("streamlog.empty_polls_per_block", "count"),
    ("streamlog.retained_peak", "records"),
    ("records.encodes_per_block", "count"),
    ("records.encode_us", "us"),
    ("records.decodes_per_block", "count"),
    ("records.decode_us", "us"),
    ("normalize.normalize_us", "us"),
    ("metrics.sample_us", "us"),
    ("metrics.summarize_us", "us"),
    ("cep.source_us_per_record", "us"),
    ("cep.self_us_per_record", "us"),
)

ENCODERS = ("header_to_dict", "normalized_to_dict", "sample_to_dict",
            "window_summary_to_dict", "stats_to_dict")
DECODERS = ("header_from_dict", "normalized_from_dict", "sample_from_dict",
            "window_summary_from_dict")


class _Buffer:
    """One thread's spans; parents index into the same buffer."""

    def __init__(self) -> None:
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}


class Tracer:
    """Span buffers for every thread of one program process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.retained: dict[str, int] = {}
        self.retained_peak = 0

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int = 1) -> None:
        counts = self._buffer().counts
        counts[name] = counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """fn with every call recorded as a span called name."""
        name_id = self._id(name)
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            buf = self._buffer()
            index = len(buf.names)
            buf.names.append(name_id)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.ends.append(0)
            buf.stack.append(index)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[index] = clock()
                buf.stack.pop()

        return traced

    def write(self, path: Path) -> None:
        """Store all buffers: a JSON index plus one binary file per array."""
        index = {"names": self.names, "retained_peak": self.retained_peak, "buffers": []}
        for i, buf in enumerate(self._buffers):
            for field in ("names", "starts", "ends", "parents"):
                with open(path / f"spans.{i}.{field}", "wb") as fh:
                    getattr(buf, field).tofile(fh)
            index["buffers"].append({"spans": len(buf.names), "counts": buf.counts})
        (path / "spans.json").write_text(json.dumps(index), encoding="utf-8")


class _TimedSource:
    """An iterator whose every next() is a span (the pipeline's source pulls)."""

    def __init__(self, tracer: Tracer, source: Any) -> None:
        self._next = tracer.wrap("cep.source", iter(source).__next__)
        self._tracer = tracer

    def __iter__(self) -> "_TimedSource":
        return self

    def __next__(self) -> Any:
        record = self._next()
        self._tracer.count("cep.records")
        return record


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries in place; call before the run starts."""
    from evmon import cep, metrics, records, simnode
    from evmon.normalize import Normalizer
    from evmon.streamlog import StreamLog

    for name in ENCODERS + ("to_line",):
        setattr(records, name, tracer.wrap(f"records.encode.{name}", getattr(records, name)))
    for name in DECODERS:
        setattr(records, name, tracer.wrap("records.decode", getattr(records, name)))
    Normalizer.normalize = tracer.wrap("normalize.normalize", Normalizer.normalize)
    for name in ("gas_price_sample", "block_usage_sample"):
        setattr(metrics, name, tracer.wrap("metrics.sample", getattr(metrics, name)))
    metrics.summarize_samples = tracer.wrap("metrics.summarize", metrics.summarize_samples)
    client = simnode.LedgerRpcClient
    client.head_number = tracer.wrap("ingest.head_number", client.head_number)
    client.fetch_block = tracer.wrap("ingest.fetch_block", client.fetch_block)

    timed_poll = tracer.wrap("streamlog.poll", StreamLog.poll)

    def poll(self: StreamLog, handle: Any, max_records: int) -> Any:
        batch = timed_poll(self, handle, max_records)
        tracer.count("streamlog.poll_records", len(batch))
        if not batch:
            tracer.count("streamlog.empty_polls")
        return batch

    StreamLog.poll = poll
    timed_append = tracer.wrap("streamlog.append", StreamLog.append)

    def append(self: StreamLog, topic: str, payload: bytes) -> int:
        offset = timed_append(self, topic, payload)
        # one appending thread per topic, so this entry has a single writer
        tracer.retained[topic] = offset + 1 - self.earliest_offset(topic)
        tracer.retained_peak = max(tracer.retained_peak, sum(tracer.retained.values()))
        return offset

    StreamLog.append = append

    run_pipeline = tracer.wrap("cep.run_pipeline", cep.run_pipeline)

    def wrap_stage(stage: Any) -> Any:
        for attr in ("fn", "pred", "consume"):
            if hasattr(stage, attr):
                return dataclasses.replace(
                    stage, **{attr: tracer.wrap("cep.stage", getattr(stage, attr))})
        return stage

    def traced_run_pipeline(pipeline: Any) -> Any:
        return run_pipeline(cep.Pipeline(
            source=_TimedSource(tracer, pipeline.source),
            stages=tuple(wrap_stage(stage) for stage in pipeline.stages),
        ))

    cep.run_pipeline = traced_run_pipeline


def layer_metrics(path: Path, blocks: int) -> dict[str, float]:
    """Per-layer metrics from the spans a traced run wrote into path."""
    import numpy

    index = json.loads((path / "spans.json").read_text(encoding="utf-8"))
    names = index["names"]
    total_ns = numpy.zeros(len(names))
    calls = numpy.zeros(len(names))
    counts: dict[str, int] = {}
    pipeline_self_ns = 0.0
    pipeline_id = names.index("cep.run_pipeline") if "cep.run_pipeline" in names else -1
    for i, info in enumerate(index["buffers"]):
        arrays = {f: numpy.fromfile(path / f"spans.{i}.{f}", dtype=dt) for f, dt in
                  (("names", numpy.uint16), ("starts", numpy.int64),
                   ("ends", numpy.int64), ("parents", numpy.int32))}
        for name, n in info["counts"].items():
            counts[name] = counts.get(name, 0) + n
        if not info["spans"]:
            continue
        duration = (arrays["ends"] - arrays["starts"]).astype(float)
        total_ns += numpy.bincount(arrays["names"], weights=duration, minlength=len(names))
        calls += numpy.bincount(arrays["names"], minlength=len(names))
        if pipeline_id >= 0:
            has_parent = arrays["parents"] >= 0
            child_ns = numpy.bincount(arrays["parents"][has_parent],
                                      weights=duration[has_parent], minlength=len(duration))
            own = arrays["names"] == pipeline_id
            pipeline_self_ns += float((duration[own] - child_ns[own]).sum())

    def total(prefix: str) -> tuple[float, float]:
        picked = [i for i, name in enumerate(names) if name == prefix
                  or name.startswith(prefix + ".")]
        return float(total_ns[picked].sum()), float(calls[picked].sum())

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    fetch_ns, fetches = total("ingest.fetch_block")
    _, head_polls = total("ingest.head_number")
    append_ns, appends = total("streamlog.append")
    poll_ns, polls = total("streamlog.poll")
    empty = counts.get("streamlog.empty_polls", 0)
    encode_ns, _ = total("records.encode")
    encodes = sum(total(f"records.encode.{name}")[1] for name in ENCODERS)
    decode_ns, decodes = total("records.decode")
    normalize_ns, normalizes = total("normalize.normalize")
    sample_ns, samples = total("metrics.sample")
    summarize_ns, summaries = total("metrics.summarize")
    source_ns, _ = total("cep.source")
    records_in = counts.get("cep.records", 0)
    return {
        "ingest.fetch_us": per(fetch_ns, fetches) / 1e3,
        "ingest.head_polls_per_block": per(head_polls, blocks),
        "streamlog.append_us": per(append_ns, appends) / 1e3,
        "streamlog.poll_us": per(poll_ns, polls) / 1e3,
        "streamlog.records_per_poll": per(counts.get("streamlog.poll_records", 0),
                                          polls - empty),
        "streamlog.empty_polls_per_block": per(empty, blocks),
        "streamlog.retained_peak": float(index["retained_peak"]),
        "records.encodes_per_block": per(encodes, blocks),
        "records.encode_us": per(encode_ns, encodes) / 1e3,
        "records.decodes_per_block": per(decodes, blocks),
        "records.decode_us": per(decode_ns, decodes) / 1e3,
        "normalize.normalize_us": per(normalize_ns, normalizes) / 1e3,
        "metrics.sample_us": per(sample_ns, samples) / 1e3,
        "metrics.summarize_us": per(summarize_ns, summaries) / 1e3,
        "cep.source_us_per_record": per(source_ns, records_in) / 1e3,
        "cep.self_us_per_record": per(pipeline_self_ns, records_in) / 1e3,
    }
