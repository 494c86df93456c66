"""A traced replay still yields the per-layer metrics the benchmark reads.

perfbench/spans.py rewraps cep stage functions and the metrics functions
in place, so this runs in a subprocess: the patches last for the life of
the process that installs them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_REPLAY = """
import dataclasses
import json
import sys
from pathlib import Path

import spans
from evmon import cli

out = Path(sys.argv[1])
fixtures = Path("tests/fixtures")
tracer = spans.Tracer()
spans.install(tracer)
config = cli.load_config(fixtures / "replay_config.json")
cli.run_replay(fixtures / "replay_fixture.jsonl", dataclasses.replace(config, output_dir=out))
tracer.write(out)
blocks = len((fixtures / "replay_fixture.jsonl").read_text(encoding="utf-8").splitlines())
print(json.dumps(spans.layer_metrics(out, blocks)))
"""


def test_traced_replay_reports_layer_metrics(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", TRACED_REPLAY, str(tmp_path)], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src:perfbench"}, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    layers = json.loads(result.stdout.strip().splitlines()[-1])
    # replay runs no ingest; every other layer's patch must have seen calls, and
    # each consumer step ends on exactly one empty poll
    traced = {name: value for name, value in layers.items()
              if name.split(".")[0] in ("streamlog", "records", "normalize", "metrics", "cep")}
    assert sorted(traced) == sorted([
        "streamlog.append_us", "streamlog.poll_us", "streamlog.records_per_poll",
        "streamlog.empty_polls_per_block", "streamlog.retained_peak", "records.encodes_per_block", "records.encode_us",
        "records.decodes_per_block", "records.decode_us", "normalize.normalize_us",
        "metrics.sample_us", "metrics.summarize_us", "cep.source_us_per_record",
        "cep.self_us_per_record",
    ])
    assert {name: value for name, value in traced.items() if not value > 0} == {}
