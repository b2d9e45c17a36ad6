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

# each benchmark command on the toy config: its sweep and its thread count
BENCHMARK_COMMANDS = [
    ("simulate", "", "1"),
    ("cdf-sweep", "", "1"),  # the default sweep over delta_f_hz
    ("speed-tradeoff", "sweep: {axis: speed_mps, values: [5.0, 10.0]}\n", "2"),
]

# every span the three commands record.  The tracer also wraps
# dd_transform.sfft, zc.correlate, uav_scenario.pitch_angle and
# uav_scenario.propulsion_power, which no command calls through the wrapped
# attributes today (ROADMAP item 8)
SPAN_NAMES = {
    "cli.main",
    "config.load",
    "experiments.run_simulate",
    "experiments.run_cdf_sweep",
    "experiments.run_speed_tradeoff",
    "metrics.write",
    "metrics.rmse",
    "metrics.error_cdf",
    "channel.apply",
    "channel.awgn",
    "channel.synthesize",
    "prach_modem.transmit",
    "prach_modem.receive",
    "dd_transform.wigner",
    "dd_transform.isfft",
    "dd_transform.heisenberg",
    "zc.generate",
    "uav_scenario.build_trajectory",
}


def trace(tmp_path, command, text, threads) -> dict:
    """The tracer's dump of one command on ``TOY_CONFIG + text``."""
    # the benchmark's own probe runs the command in a fresh interpreter, so
    # its set-up calls are checked too and the tracer's monkeypatching of the
    # ddprach modules cannot leak into other tests
    run = tmp_path / command
    run.mkdir()
    config = run / "cfg.yaml"
    config.write_text(TOY_CONFIG + text)
    result, spans = run / "result.json", run / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [command, "--config", str(config), "--out", str(run / "out"), "--threads", threads]
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(result),
         "--trace", str(spans), "0", "--", *argv],
        env=env, check=True, capture_output=True,
    )
    assert "work_s" in json.loads(result.read_text())
    return json.loads(spans.read_text())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tracer_records_every_layer(tmp_path, threads):
    dump = trace(tmp_path, "simulate", "", threads)
    names = collections.Counter(span["name"] for span in dump["spans"])
    for name in ("channel.apply", "channel.awgn", "prach_modem.receive", "dd_transform.wigner"):
        assert names.get(name, 0) >= 1, name
    assert dump["counts"].get("channel.interp_taps", 0) > 0


def test_tracer_records_every_span_of_the_benchmark_commands(tmp_path):
    # a refactor that moves a call off a wrapped attribute zeroes its
    # layer's metrics without failing a run
    names = set()
    for command, text, threads in BENCHMARK_COMMANDS:
        dump = trace(tmp_path, command, text, threads)
        names |= {span["name"] for span in dump["spans"]}
    assert names == SPAN_NAMES
