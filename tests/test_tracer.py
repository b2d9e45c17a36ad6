"""The benchmark's span tracer still finds every layer entry point it wraps."""

import collections
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tracer_records_every_layer(tmp_path, threads):
    # the benchmark's own probe runs the command in a fresh interpreter, so
    # its set-up calls are checked too and the tracer's monkeypatching of the
    # ddprach modules cannot leak into other tests
    config = tmp_path / "cfg.yaml"
    config.write_text(TOY_CONFIG)
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "run"),
            "--threads", threads]
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(result),
         "--trace", str(spans), "0", "--", *argv],
        env=env, check=True, capture_output=True,
    )
    assert "work_s" in json.loads(result.read_text())
    dump = json.loads(spans.read_text())
    names = collections.Counter(span["name"] for span in dump["spans"])
    for name in ("channel.apply", "channel.awgn", "prach_modem.receive", "dd_transform.wigner"):
        assert names.get(name, 0) >= 1, name
    assert dump["counts"].get("channel.interp_taps", 0) > 0
