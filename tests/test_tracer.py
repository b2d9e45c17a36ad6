"""The benchmark's span tracer still finds every layer entry point it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TOY_CONFIG = """\
waveform: {n_dft: 32, m: 16, n_zc: 13, n: 4}
scenario:
  trajectory: {count: 3}
noise: {snr_db: 10.0}
trials: 2
seed: 7
"""

# runs in a fresh interpreter, so that the tracer's monkeypatching of the
# ddprach modules cannot leak into other tests
SCRIPT = """\
import collections, json, sys
perfbench, report, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, perfbench)
import tracer
recorder = tracer.Recorder(0)
tracer.install(recorder)
from ddprach import cli
rc = cli.main(argv)
spans = collections.Counter(span[1] for span in recorder.spans)
with open(report, "w") as fh:
    json.dump({"rc": rc, "spans": spans, "counts": recorder.counts}, fh)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tracer_records_every_layer(tmp_path, threads):
    config = tmp_path / "cfg.yaml"
    config.write_text(TOY_CONFIG)
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "run"),
            "--threads", threads]
    subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(report), *argv],
        env=env, check=True, capture_output=True,
    )
    result = json.loads(report.read_text())
    assert result["rc"] == 0
    for name in ("channel.apply", "channel.awgn", "prach_modem.receive", "dd_transform.wigner"):
        assert result["spans"].get(name, 0) >= 1, name
    assert result["counts"].get("channel.interp_taps", 0) > 0
