"""One program process of the benchmark: set up evmon, run one round, report.

Usage: python3 perfbench/child.py SPEC.json, with evmon's src directory on
PYTHONPATH. SPEC.json holds the mode (setup, replay, catchup or live), the
ledger and config paths and the round's output directory. The process
writes result.json into that directory: monotonic timestamps for ready,
run start and run end, and the user plus system CPU time of the run as
read from the OS. With "trace" set it also writes the spans of the run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any


class DeliveryWatch:
    """A BlockSource that sets stop once every chain's last block was fetched."""

    def __init__(self, client: Any, last: int, pending: set[str], name: str,
                 stop: threading.Event) -> None:
        self._client = client
        self._last = last
        self._pending = pending
        self._name = name
        self._stop = stop

    def head_number(self) -> int:
        return self._client.head_number()

    def fetch_block(self, number: int) -> Any:
        header = self._client.fetch_block(number)
        if number == self._last:
            self._pending.discard(self._name)
            if not self._pending:
                self._stop.set()
        return header


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out_dir = Path(spec["out_dir"])
    os.environ["EVMON_OUTPUT_DIR"] = str(out_dir)

    # set-up: imports and config load and validation
    from evmon import cli, records, simnode

    config = cli.load_config(spec["config"])
    result: dict[str, Any] = {"ready": time.monotonic(), "evmon": cli.__file__}

    if spec["mode"] != "setup":
        ledgers: dict[str, list[Any]] = {}
        if spec["mode"] != "replay":
            for header in records.read_jsonl(Path(spec["ledger"]), records.header_from_dict):
                ledgers.setdefault(header.chain.name, []).append(header)
        tracer = None
        if spec.get("trace"):
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        cpu0 = cpu_seconds()
        result["start"] = time.monotonic()
        if spec["mode"] == "replay":
            cli.run_replay(spec["ledger"], config)
        elif spec["mode"] == "catchup":
            clock = simnode.ManualClock(float(2**62))
            cli.run_monitor(
                config, max_blocks=spec["blocks"], start_number=0,
                client_factory=lambda p: simnode.LedgerRpcClient(
                    ledgers[p.chain.name], clock, p.chain))
        else:
            stop = threading.Event()
            pending = set(ledgers)
            # block n is visible from result["start"] + (ts_n - start_time_s) / rate
            clock = simnode.ScaledClock(spec["start_time_s"], spec["rate"])
            cli.run_monitor(
                config, start_number=0, stop_event=stop,
                client_factory=lambda p: DeliveryWatch(
                    simnode.LedgerRpcClient(ledgers[p.chain.name], clock, p.chain),
                    len(ledgers[p.chain.name]) - 1, pending, p.chain.name, stop))
        result["end"] = time.monotonic()
        result["cpu_s"] = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.write(out_dir)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
