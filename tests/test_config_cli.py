"""Config parsing/validation, canonical YAML form and the CLI entry point."""

import csv
import math
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml
import pytest

from ddprach import (
    ConfigError,
    load_config,
    parse_config,
    received_power,
    serialize_config,
)
from ddprach import build_trajectory, cli, config, experiments, synthesize_scenario_channel
from ddprach.cli import main
from ddprach.metrics import RESULTS_HEADER

DATA = Path(__file__).parent / "data"

TOY_CONFIG = """\
waveform:
  n_dft: 32
  m: 16
  n_zc: 13
  n: 4
scenario:
  trajectory:
    height_m: 30.0
    dp_m: 0.5
    count: 3
    speed_mps: 10.0
noise:
  snr_db: 10.0
trials: 2
seed: 7
"""


def write_toy_config(tmp_path, text=TOY_CONFIG, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing and defaults
# ---------------------------------------------------------------------------

def test_empty_tree_gives_defaults():
    cfg = parse_config({})
    assert cfg.waveform.m == 1024
    assert cfg.waveform.n_dft == 2048
    assert cfg.schemes == ["otfs", "ofdm"]
    assert cfg.trials == 1
    assert cfg.seed == 0
    assert cfg.noise.snr_db == 5.0
    assert cfg.noise.noise_power_watts is None
    assert cfg.channel.source == "synthetic"
    assert cfg.scenario.tilt_deg is None


def test_empty_file_loads(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.waveform.m == 1024


def test_unknown_key_reports_dotted_path():
    tree = {"scenario": {"antenna": {"g_max_db": 3.0}}}
    with pytest.raises(ConfigError, match="scenario.antenna.g_max_db"):
        parse_config(tree)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config key: wavform"):
        parse_config({"wavform": {}})


def test_noise_settings_mutually_exclusive():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config({"noise": {"snr_db": 5.0, "noise_power_watts": 1e-9}})


def test_null_snr_means_noiseless():
    cfg = parse_config({"noise": {"snr_db": None}})
    assert cfg.noise.snr_db is None
    assert cfg.noise.noise_power_watts is None


def test_schemes_validation():
    assert parse_config({"schemes": ["otfs"]}).schemes == ["otfs"]
    with pytest.raises(ConfigError):
        parse_config({"schemes": []})
    with pytest.raises(ConfigError):
        parse_config({"schemes": ["otfs", "qam"]})
    with pytest.raises(ConfigError):
        parse_config({"schemes": ["otfs", "otfs"]})


def test_schemes_must_differ():
    # the walker's list rule, which every list field shares with sweep.values
    with pytest.raises(ConfigError, match=r"^schemes\[1\]: duplicate value$"):
        parse_config({"schemes": ["otfs", "otfs"]})


def test_cp_len_follows_explicit_n_dft():
    cfg = parse_config({"waveform": {"n_dft": 64, "m": 16, "n_zc": 13}})
    assert cfg.waveform.cp_len == 8


def test_waveform_inconsistency_is_config_error():
    with pytest.raises(ConfigError, match="waveform"):
        parse_config({"waveform": {"n_dft": 16, "m": 64}})


ZC_ROOT_ERRORS = [
    ("waveform:\n  n_zc: 140\n  root: 2\n", "root and n_zc must be coprime, got gcd(2, 140) = 2"),
    ("waveform:\n  n_zc: 139\n  root: 139\n", "need 1 <= root < n_zc, got root=139, n_zc=139"),
]


@pytest.mark.parametrize("text, message", ZC_ROOT_ERRORS)
def test_zc_root_checked_at_parse_time(text, message):
    with pytest.raises(ConfigError, match=re.escape(f"waveform: {message}")):
        parse_config(yaml.safe_load(text))


@pytest.mark.parametrize("command", ["validate-config", "simulate"])
@pytest.mark.parametrize("text, message", ZC_ROOT_ERRORS)
def test_cli_bad_zc_root_exit_2(tmp_path, capsys, monkeypatch, command, text, message):
    monkeypatch.setattr(cli, "run_simulate", lambda *args, **kwargs: pytest.fail("ran"))
    rc = main([command, "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    assert f"config error: waveform: {message}" in capsys.readouterr().err


def test_nlos_null_disables_multipath():
    cfg = parse_config({"channel": {"nlos": None}})
    assert cfg.channel.nlos is None


def test_nlos_pair_validation():
    with pytest.raises(ConfigError, match="low bound exceeds high"):
        parse_config({"channel": {"nlos": {"excess_delay_range_s": [5e-7, 1e-7]}}})
    with pytest.raises(ConfigError):
        parse_config({"channel": {"nlos": {"excess_delay_range_s": [-1e-7, 5e-7]}}})


def test_taps_file_source_requires_path():
    with pytest.raises(ConfigError, match="taps_path"):
        parse_config({"channel": {"source": "taps_file"}})


def test_taps_path_requires_the_taps_file_source(tmp_path, capsys):
    # the synthetic source reads no taps file, so a path set beside it would
    # be ignored without a word
    message = "channel.taps_path: allowed only when source is 'taps_file'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config({"channel": {"taps_path": "taps.csv"}})
    path = write_toy_config(tmp_path, text="channel:\n  taps_path: taps.csv\n")
    assert main(["validate-config", "--config", path]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_sweep_validation():
    with pytest.raises(ConfigError, match="sweep.axis"):
        parse_config({"sweep": {"axis": "carrier_hz"}})
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config({"sweep": {"values": []}})


def test_sweep_values_checked_against_axis():
    with pytest.raises(ConfigError, match=r"sweep\.values\[1\]"):
        parse_config({"sweep": {"axis": "speed_mps", "values": [5.0, -5.0]}})
    with pytest.raises(ConfigError, match=r"sweep\.values\[0\]"):
        parse_config({"sweep": {"values": [0.0]}})  # default axis: delta_f_hz
    cfg = parse_config({"sweep": {"axis": "speed_mps", "values": [0.0, 5.0]}})
    assert cfg.sweep.values == [0.0, 5.0]
    cfg = parse_config({"sweep": {"axis": "tilt_deg", "values": [-10.0, 0.0]}})
    assert cfg.sweep.values == [-10.0, 0.0]


@pytest.mark.parametrize(
    "sweep, where",
    [
        ({"values": [15000, 15000.0]}, 1),
        ({"axis": "speed_mps", "values": [5.0, 10.0, 5.0]}, 2),
        ({"axis": "tilt_deg", "values": [0.0, -0.0]}, 1),
    ],
)
def test_sweep_values_must_differ(sweep, where):
    # a repeated value would run its grid twice and repeat its CSV rows
    with pytest.raises(ConfigError, match=rf"^sweep\.values\[{where}\]: duplicate value$"):
        parse_config({"sweep": sweep})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "tree, where",
    [
        (lambda v: {"waveform": {"delta_f_hz": v}}, "waveform.delta_f_hz"),
        (lambda v: {"noise": {"snr_db": v}}, "noise.snr_db"),
        (lambda v: {"scenario": {"tilt_deg": v}}, "scenario.tilt_deg"),
        (lambda v: {"sweep": {"axis": "tilt_deg", "values": [v]}}, "sweep.values[0]"),
    ],
)
def test_non_finite_numbers_rejected(value, tree, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        parse_config(tree(value))


@pytest.mark.parametrize(
    "tree, where",
    [
        ({"waveform": {"delta_f_hz": 10**400}}, "waveform.delta_f_hz"),
        ({"sweep": {"axis": "speed_mps", "values": [5.0, -(10**400)]}}, "sweep.values[1]"),
    ],
)
def test_integer_too_large_for_a_float_rejected(tree, where):
    with pytest.raises(ConfigError, match=re.escape(where) + ".*too large"):
        parse_config(tree)


HUGE = 100000000000000000000000000000


@pytest.mark.parametrize(
    "tree, where, largest",
    [
        ({"scenario": {"trajectory": {"count": HUGE}}}, "scenario.trajectory.count", 100_000),
        ({"trials": HUGE}, "trials", 10_000),
        ({"waveform": {"n_dft": HUGE}}, "waveform.n_dft", 65_536),
        ({"waveform": {"n": HUGE}}, "waveform.n", 1_024),
        ({"channel": {"nlos": {"count": HUGE}}}, "channel.nlos.count", 64),
    ],
)
def test_integer_sizes_have_upper_bounds(tree, where, largest):
    message = re.escape(where) + r": must be in \[\d+, " + str(largest) + r"\]"
    with pytest.raises(ConfigError, match=message):
        parse_config(tree)


def test_integer_bounds_are_inclusive():
    cfg = parse_config({"scenario": {"trajectory": {"count": 100_000}}, "trials": 10_000,
                        "waveform": {"n": 1_024}, "channel": {"nlos": {"count": 64}}})
    assert (cfg.scenario.trajectory.count, cfg.trials) == (100_000, 10_000)
    assert (cfg.waveform.n, cfg.channel.nlos.count) == (1_024, 64)
    assert parse_config({"waveform": {"n_dft": 65_536}}).waveform.n_dft == 65_536
    assert parse_config({"channel": {"nlos": {"count": 0}}}).channel.nlos.count == 0
    with pytest.raises(ConfigError, match="trials"):
        parse_config({"trials": 0})


def test_frame_len_has_upper_bound():
    with pytest.raises(ConfigError, match=r"waveform: frame_len 75497472 must be ≤ 4194304"):
        parse_config({"waveform": {"n_dft": 65_536, "n": 1_024}})
    # either size at its largest with the other at its default still fits
    assert parse_config({"waveform": {"n": 1_024}}).waveform.frame_len == 2_359_296
    assert parse_config({"waveform": {"n_dft": 65_536}}).waveform.frame_len == 294_912


@pytest.mark.parametrize("command", ["validate-config", "simulate"])
def test_cli_frame_len_over_bound_exit_2(tmp_path, capsys, monkeypatch, command):
    # a frame this long needs gigabytes: never run it if the check is missing
    monkeypatch.setattr(cli, "run_simulate", lambda *args, **kwargs: pytest.fail("ran"))
    path = write_toy_config(tmp_path, text="waveform: {n_dft: 65536, n: 1024}\n")
    assert main([command, "--config", path]) == 2
    assert "waveform: frame_len" in capsys.readouterr().err


TOY_WAVEFORM = {"n_dft": 32, "m": 16, "n_zc": 13, "n": 4}


def test_synthetic_tap_past_the_frame_rejected():
    # 100 km: 333.6 us of line-of-sight delay against the 300 us toy frame
    with pytest.raises(
        ConfigError, match=r"^waveform\.delta_f_hz: the frame lasts 0\.0003 s at 15000\.0 Hz"
    ):
        load_config(DATA / "tap_past_frame.yaml")


def test_synthetic_tap_delay_checked_at_every_swept_spacing():
    # 30 km: 100 us of delay against the 300, 150 and 75 us toy frames
    tree = {
        "waveform": TOY_WAVEFORM,
        "scenario": {"trajectory": {"height_m": 30_000.0}},
        "sweep": {"axis": "delta_f_hz", "values": [15e3, 30e3, 60e3]},
    }
    with pytest.raises(ConfigError, match=r"^sweep\.values\[2\]: the frame lasts 7\.5e-05 s"):
        parse_config(tree)
    # another axis runs every value at waveform.delta_f_hz
    parse_config(dict(tree, sweep={"axis": "speed_mps", "values": [10.0]}))


def test_synthetic_tap_delay_includes_the_largest_nlos_excess():
    # 89.9 km: 299.87 us of line-of-sight delay, 300.37 us with 0.5 us excess
    tree = {
        "waveform": TOY_WAVEFORM,
        "scenario": {"trajectory": {"height_m": 89_900.0}},
        "sweep": {"axis": "speed_mps", "values": [10.0]},
    }
    with pytest.raises(ConfigError, match=r"^waveform\.delta_f_hz: "):
        parse_config(tree)
    for channel in ({"nlos": None}, {"nlos": {"count": 0}}):
        parse_config(dict(tree, channel=channel))
    # recorded taps are checked against the frame when the run starts
    parse_config(dict(tree, channel={"source": "taps_file", "taps_path": "taps.csv"}))


def bounding_taps(monkeypatch, tree):
    """The two taps that parse_config checks the base flight's pass on: the
    realization it hands the channel's link-budget rule first."""
    seen = []
    real_check = config.check_link_budget

    def check(realization, p_t_watts):
        seen.append(realization)
        real_check(realization, p_t_watts)

    monkeypatch.setattr(config, "check_link_budget", check)
    cfg = parse_config(tree)
    monkeypatch.undo()
    return cfg, seen[0].taps


@pytest.mark.parametrize("tilt", [0.0, 45.0, 90.0])
def test_synthetic_draws_stay_within_the_parse_time_bound(monkeypatch, tilt):
    # the README default pass: no draw's strongest tap receives less than the
    # bounding line of sight, and no drawn tap arrives after the bounding delay
    cfg, (los, latest) = bounding_taps(monkeypatch, {"scenario": {"tilt_deg": tilt}})
    trajectory = build_trajectory(**asdict(cfg.scenario.trajectory))
    for seed in range(200):
        for point in (trajectory[0], trajectory[seed % len(trajectory)], trajectory[-1]):
            taps = synthesize_scenario_channel(
                point, cfg.scenario.carrier_hz, cfg.scenario.antenna, tilt,
                cfg.channel.nlos, seed=seed, g_t_db=cfg.channel.g_t_db,
            ).taps
            assert max(abs(tap.gain) ** 2 for tap in taps) >= abs(los.gain) ** 2
            assert taps[-1].delay_s <= latest.delay_s


def test_synthetic_tap_just_inside_the_frame_runs(monkeypatch):
    # the toy pass's far end is 0.5 m off overhead; its line of sight plus the
    # 0.5 us NLoS excess ends 0.1 ns before the 300 us toy frame does
    far_m = (3e-4 - 5e-7 - 1e-10) * 299792458.0
    tree = {
        "waveform": TOY_WAVEFORM,
        "scenario": {"trajectory": {"height_m": math.sqrt(far_m**2 - 0.25), "dp_m": 0.5,
                                    "count": 3}},
        "sweep": {"axis": "speed_mps", "values": [10.0]},
        "trials": 2,
    }
    cfg, (_, latest) = bounding_taps(monkeypatch, tree)
    assert 0.0 < 3e-4 - latest.delay_s < 1e-9
    assert len(experiments.run_simulate(cfg)) == 3 * 2 * 2


@pytest.mark.parametrize("command", ["validate-config", "simulate"])
def test_cli_synthetic_tap_past_the_frame_exit_2(tmp_path, capsys, command):
    args = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, "--config", str(DATA / "tap_past_frame.yaml"), *args]) == 2
    assert "config error: waveform.delta_f_hz: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_target_pfa_range():
    with pytest.raises(ConfigError):
        parse_config({"detection": {"target_pfa": 1.0}})
    with pytest.raises(ConfigError):
        parse_config({"detection": {"target_pfa": 0.0}})


def test_negative_speed_rejected():
    with pytest.raises(ConfigError, match="speed_mps"):
        parse_config({"scenario": {"trajectory": {"speed_mps": -1.0}}})


def test_null_fnb_derives_from_custom_beamwidth():
    cfg = parse_config({"scenario": {"antenna": {"theta_3db_deg": 20.0, "fnb_deg": None}}})
    assert cfg.scenario.antenna.fnb_deg == 50.0
    cfg = parse_config({"scenario": {"antenna": {"theta_3db_deg": 20.0}}})
    assert cfg.scenario.antenna.fnb_deg == 50.0


def test_tilt_override():
    cfg = parse_config({"scenario": {"tilt_deg": 12.0}})
    assert cfg.scenario.tilt_deg == 12.0


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError):
        parse_config({"trials": True})


def test_invalid_yaml_is_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("waveform: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


def test_serialize_parse_round_trip():
    cfg = parse_config(yaml.safe_load(TOY_CONFIG))
    text = serialize_config(cfg)
    again = serialize_config(parse_config(yaml.safe_load(text)))
    assert text == again
    reparsed = parse_config(yaml.safe_load(text))
    assert reparsed.waveform.m == 16
    assert reparsed.trials == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_config(tmp_path, capsys):
    rc = main(["validate-config", "--config", write_toy_config(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    cfg = parse_config(yaml.safe_load(printed))
    assert cfg.waveform.n_dft == 32
    assert serialize_config(cfg) == printed


@pytest.mark.parametrize(
    "config, golden",
    [
        (None, "validate_config_default.out"),
        ("full_config.yaml", "validate_config_full.out"),
    ],
)
def test_cli_validate_config_golden(tmp_path, capsys, config, golden):
    """Canonical form recorded before the schema walk replaced per-field code."""
    path = DATA / config if config else write_toy_config(tmp_path, text="")
    assert main(["validate-config", "--config", str(path)]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_cli_validate_config_quotes_text_that_reads_as_a_number(tmp_path, capsys):
    # the dumper writes in the loader's dialect, so the canonical form reads back
    text = 'channel: {source: taps_file, taps_path: "1e3"}\n'
    assert main(["validate-config", "--config", write_toy_config(tmp_path, text=text)]) == 0
    printed = capsys.readouterr().out
    assert "  taps_path: '1e3'\n" in printed
    assert main(["validate-config", "--config", write_toy_config(tmp_path, text=printed)]) == 0
    assert capsys.readouterr().out == printed


def test_cli_validate_config_derived_fnb(tmp_path, capsys):
    text = "scenario:\n  antenna:\n    theta_3db_deg: 20.0\n    fnb_deg: null\n"
    assert main(["validate-config", "--config", write_toy_config(tmp_path, text=text)]) == 0
    assert "    fnb_deg: 50.0\n" in capsys.readouterr().out


def test_cli_bad_config_exit_2(tmp_path, capsys):
    path = write_toy_config(tmp_path, text="waveform:\n  bandwidth: 5\n")
    rc = main(["validate-config", "--config", path])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, spelling",
    [
        # YAML 1.2 floats, which YAML 1.1 reads as text, in their 1.1 spelling
        ("waveform: {delta_f_hz: 15e3}\n", "waveform: {delta_f_hz: 15.0e+3}\n"),
        ("detection: {target_pfa: 1e-3}\n", "detection: {target_pfa: 1.0e-3}\n"),
        ("waveform: {delta_f_hz: 1.0e6}\n", "waveform: {delta_f_hz: 1.0e+6}\n"),
        ("noise: {snr_db: -.5}\n", "noise: {snr_db: -0.5}\n"),
        ("waveform: {p_t_watts: +.5e3}\n", "waveform: {p_t_watts: 0.5e+3}\n"),
        ("sweep: {values: [.5e3, 15e3]}\n", "sweep: {values: [0.5e+3, 15.0e+3]}\n"),
        # ints stay ints, which an integer field alone accepts
        ("trials: 15\nseed: 0x10\n", "trials: 15\nseed: 16\n"),
    ],
)
def test_cli_yaml_1_2_number_reads_as_its_value(tmp_path, capsys, text, spelling):
    printed = []
    for name, source in (("text.yaml", text), ("spelling.yaml", spelling)):
        path = write_toy_config(tmp_path, text=source, name=name)
        assert main(["validate-config", "--config", path]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


@pytest.mark.parametrize("command", [["validate-config"], ["simulate", "--out", "out"]])
@pytest.mark.parametrize(
    "text, key, line",
    [
        ("trials: 2\nseed: 1\ntrials: 3\n", "trials", 3),
        ("noise:\n  snr_db: 1.0\n  snr_db: 2.0\n", "snr_db", 3),
        ("noise: {snr_db: 1.0}\ntrials: 2\nnoise: {snr_db: null}\n", "noise", 3),
    ],
)
def test_cli_repeated_key_exit_2(tmp_path, capsys, monkeypatch, command, text, key, line):
    # the later key would silently override the earlier one
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--config", write_toy_config(tmp_path, text=text)]) == 2
    err = capsys.readouterr().err
    assert f"invalid YAML: duplicate key '{key}'" in err
    assert f"line {line}, column" in err
    assert not (tmp_path / "out").exists()


def test_merge_key_loads_as_pyyaml_reads_it(tmp_path):
    # a merge key may repeat a key that the mapping sets itself, which wins
    text = "noise: {<<: {snr_db: 5.0}, snr_db: 3.0}\n"
    cfg = load_config(write_toy_config(tmp_path, text=text))
    assert cfg == parse_config(yaml.safe_load(text))
    assert cfg.noise.snr_db == 3.0


@pytest.mark.parametrize("node", [[1], "abc", "1e999"])
def test_float_field_set_to_no_finite_float_gets_no_hint(node):
    # a list, text that reads as no number and text that reads as an infinite
    # one have no spelling that YAML would read as a finite float
    with pytest.raises(ConfigError, match="^waveform.delta_f_hz: expected a number, got [^,]*$"):
        parse_config({"waveform": {"delta_f_hz": node}})


def test_cli_waveform_modulation_is_no_config_key_exit_2(tmp_path, capsys):
    # each run takes its modulation from ``schemes``; a config that named one
    # would be parsed and printed but reach no run
    with pytest.raises(ConfigError, match="unknown config key: waveform.modulation"):
        parse_config({"waveform": {"modulation": "ofdm"}})
    path = write_toy_config(tmp_path, text="waveform:\n  modulation: ofdm\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert "unknown config key: waveform.modulation" in capsys.readouterr().err
    assert not out.exists()
    assert "modulation" not in serialize_config(parse_config({}))


@pytest.mark.parametrize(
    "name", ["blade_profile_power_w", "induced_power_w", "induced_velocity_mps"]
)
def test_cli_airframe_hover_constant_is_no_config_key_exit_2(tmp_path, capsys, name):
    # propulsion_power derives the hover powers and the induced velocity from
    # the airframe's weight and rotor
    path = write_toy_config(tmp_path, text=f"scenario:\n  airframe:\n    {name}: 80.0\n")
    assert main(["validate-config", "--config", path]) == 2
    assert f"unknown config key: scenario.airframe.{name}" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.yaml")])
    assert rc == 2


def test_cli_simulate_writes_results(tmp_path, capsys):
    cfg_path = write_toy_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(RESULTS_HEADER)
    assert len(lines) == 1 + 3 * 2 * 2  # points x trials x schemes
    assert "detection_rate" in capsys.readouterr().out


def test_cli_seed_override(tmp_path, capsys):
    cfg_path = write_toy_config(tmp_path)

    def run(out_name, *extra):
        out = tmp_path / out_name
        assert main(["simulate", "--config", cfg_path, "--out", str(out), *extra]) == 0
        return (out / "results.csv").read_bytes()

    first = run("a", "--seed", "1")
    second = run("b", "--seed", "1")
    third = run("c", "--seed", "2")
    capsys.readouterr()
    assert first == second
    assert first != third


OUTPUT = {
    "simulate": "results.csv",
    "cdf-sweep": "cdf.csv",
    "speed-tradeoff": "speed_tradeoff.csv",
    "tilt-sweep": "tilt_sweep.csv",
}


@pytest.mark.parametrize("threads", [2, 3, 8])  # 8 exceeds every point count here
@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", None),  # the toy config, 3 points
        ("cdf-sweep", "sweep_config.yaml"),
        ("speed-tradeoff", "speed_config.yaml"),
        ("tilt-sweep", "tilt_config.yaml"),
        # reads taps.csv from the working directory: the file's taps must
        # reach every worker process
        ("simulate", "full_config.yaml"),
    ],
)
def test_cli_thread_count_is_invisible(tmp_path, capsys, monkeypatch, command, config, threads):
    if config is None:
        cfg_path = write_toy_config(tmp_path)
    else:
        monkeypatch.chdir(DATA)
        cfg_path = config

    def run(out_name, threads):
        out = tmp_path / out_name
        rc = main([
            command, "--config", cfg_path, "--out", str(out),
            "--threads", str(threads),
        ])
        assert rc == 0
        return (out / OUTPUT[command]).read_bytes()

    serial = run("t1", 1)
    forked = run(f"t{threads}", threads)
    capsys.readouterr()
    assert serial == forked


@pytest.mark.parametrize("threads", ["0", "-3", "two"])  # "two": not an integer
def test_cli_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg_path = write_toy_config(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg_path, "--out", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_cli_threads_above_64_exit_2(tmp_path, capsys):
    # a command line refused before is still refused, at parse time
    cfg_path = write_toy_config(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg_path, "--out", str(out), "--threads", "65"])
    assert exc.value.code == 2
    assert "in [1, 64]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "cdf-sweep"])
@pytest.mark.parametrize("under", ["", "sub"], ids=["the_file", "under_the_file"])
def test_cli_out_on_an_existing_file_exit_2(tmp_path, capsys, monkeypatch, command, under):
    # refused at parse time, before any work, not as a data error after it
    for runner in ("run_simulate", "run_cdf_sweep"):
        monkeypatch.setattr(cli, runner, lambda *args, **kwargs: pytest.fail("ran"))
    cfg_path = write_toy_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, "--out", str(taken / under)])
    assert exc.value.code == 2
    assert f"--out: {taken} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


def test_cli_negative_seed_exit_2(tmp_path, capsys):
    # the config's ``seed: must be >= 0`` rule, for the override too
    cfg_path = write_toy_config(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg_path, "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_taps_file_exit_3(tmp_path, capsys):
    text = TOY_CONFIG + (
        "channel:\n"
        "  source: taps_file\n"
        f"  taps_path: {tmp_path / 'no_such_taps.csv'}\n"
    )
    rc = main(["simulate", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_cli_malformed_taps_exit_3(tmp_path, capsys):
    taps = tmp_path / "taps.csv"
    taps.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,60.0,0,0,not_a_number,0\n"
    )
    text = TOY_CONFIG + (
        "channel:\n  source: taps_file\n  taps_path: " + str(taps) + "\n"
    )
    rc = main(["simulate", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err


TAPS_HEADER_LINE = "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"


# one 0 dB tap per toy point, point 0's gain left to fill in
GAIN_ROWS = "0,60.0,{},0,1e-6,0\n1,60.0,0,0,1e-6,0\n2,60.0,0,0,1e-6,0\n"


@pytest.mark.parametrize(
    "rows, message, waveform",
    [
        # TOY_CONFIG has points 0..2; point 2 is missing
        ("0,60.0,0,0,1e-6,0\n1,60.0,0,0,1e-6,0\n", "no rows for point 2", ""),
        # the toy frame lasts 144 / 480 kHz = 0.3 ms
        ("0,60.0,0,0,1e-6,0\n1,60.0,0,0,1e-3,0\n2,60.0,0,0,1e-6,0\n",
         "point 1: tap delay 0.001 s exceeds the frame duration", ""),
        ("0,60.0,0,0,1e-6,0\n1,60.0,0,0,1e-6,0\n2,60.0,0,0,1e-6,0\n0,45.0,0,0,2e-6,0\n",
         "line 5: point 0: true_distance_m 45.0 differs from 60.0", ""),
        # the run never reads a point before 0
        ("0,60.0,0,0,1e-6,0\n1,60.0,0,0,1e-6,0\n2,60.0,0,0,1e-6,0\n-1,60.0,0,0,1e-6,0\n",
         "line 5: negative point_index -1", ""),
        # past the config's dB range a gain overflows, or its noise power does
        (GAIN_ROWS.format("1e5"), "line 2: gain 100000.0 dB is outside [-300.0, 300.0]", ""),
        (GAIN_ROWS.format("6000"), "line 2: gain 6000.0 dB is outside [-300.0, 300.0]", ""),
        # the received frame underflows to zero
        (GAIN_ROWS.format("-300"), "point 0: the strongest tap receives 0.0 W",
         "  p_t_watts: 1.0e-300\n"),
        # a Doppler v f_c / c past the largest carrier: its phase overflows
        # and the frame reads NaN
        ("0,60.0,0,0,1e-6,1e308\n1,60.0,0,0,1e-6,0\n2,60.0,0,0,1e-6,0\n",
         "line 2: Doppler 1e+308 Hz is outside [-3000000000000.0, 3000000000000.0]", ""),
        ("0,-50.0,0,0,1e-6,0\n1,60.0,0,0,1e-6,0\n2,60.0,0,0,1e-6,0\n",
         "line 2: true_distance_m -50.0 is not positive", ""),
    ],
    ids=["missing_point", "delay_past_frame", "distance_disagrees", "negative_point",
         "gain_overflows", "gain_past_the_db_range", "received_power_underflows",
         "doppler_past_the_largest_carrier", "distance_not_positive"],
)
def test_cli_taps_file_content_errors_exit_3(tmp_path, capsys, rows, message, waveform):
    taps = tmp_path / "taps.csv"
    taps.write_text(TAPS_HEADER_LINE + rows)
    text = TOY_CONFIG.replace("waveform:\n", "waveform:\n" + waveform) + (
        "channel:\n  source: taps_file\n  taps_path: " + str(taps) + "\n"
    )
    rc = main(["simulate", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert message in err


def test_cli_unrelated_value_error_is_not_a_data_error(tmp_path, monkeypatch):
    def broken_run(cfg, workers):
        raise ValueError("a programming error")

    monkeypatch.setattr(cli, "run_simulate", broken_run)
    with pytest.raises(ValueError, match="a programming error"):
        main(["simulate", "--config", write_toy_config(tmp_path), "--out", str(tmp_path)])


def test_cli_worker_process_that_dies_is_not_a_data_error(tmp_path, monkeypatch):
    # ChildProcessError is an OSError, as a taps file that cannot be read is
    run_points = experiments._run_points

    def dying_run(cfg, flown, stack, file_taps, points):
        if points.start > 0:  # a forked worker's range
            os._exit(9)
        return run_points(cfg, flown, stack, file_taps, points)

    monkeypatch.setattr(experiments, "_run_points", dying_run)
    with pytest.raises(ChildProcessError, match="exited with code 9 and sent no result"):
        main(["simulate", "--config", write_toy_config(tmp_path), "--out", str(tmp_path),
              "--threads", "2"])
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("simulate", "waveform:\n  delta_f_hz: .nan\n", "waveform.delta_f_hz"),
        ("simulate", "noise:\n  snr_db: .inf\n", "noise.snr_db"),
        # quoted, a number is text, whatever it spells
        (
            "simulate",
            'waveform: {delta_f_hz: "15e3"}\n',
            "config error: waveform.delta_f_hz: expected a number, got '15e3'\n",
        ),
        # the shape of the tree around a number
        ("simulate", "waveform: 5\n", "waveform: expected a mapping, got int"),
        ("simulate", "- 1\n- 2\n", "<root>: expected a mapping, got list"),
        ("simulate", "trials: null\n", "trials: value required"),
        (
            "simulate",
            "channel: {nlos: {excess_delay_range_s: [1.0]}}\n",
            "channel.nlos.excess_delay_range_s: expected a [low, high] pair",
        ),
        (
            "speed-tradeoff",
            "sweep:\n  axis: speed_mps\n  values: [-5.0]\n",
            "sweep.values[0]",
        ),
        # past the dB bound 10**(x/10) overflows a float mid-run
        ("simulate", "noise: {snr_db: -4000.0}\n", "noise.snr_db"),
        ("simulate", "channel: {g_t_db: 4000.0}\n", "channel.g_t_db"),
        ("simulate", "scenario: {antenna: {g_rmax_db: 4000.0}}\n", "scenario.antenna.g_rmax_db"),
        (
            "simulate",
            "channel: {nlos: {relative_power_db_range: [3000.0, 4000.0]}}\n",
            "channel.nlos.relative_power_db_range",
        ),
        # past light speed v**2 overflows pitch_angle mid-run
        (
            "simulate",
            "scenario: {trajectory: {speed_mps: 1.0e+200}}\n",
            "scenario.trajectory.speed_mps",
        ),
        (
            "speed-tradeoff",
            "sweep:\n  axis: speed_mps\n  values: [10.0, 1.0e+200]\n",
            "sweep.values[1]",
        ),
        # nearer than a wavelength the free-space link budget overflows
        (
            "simulate",
            "scenario: {trajectory: {height_m: 1.0e-300}}\n",
            "scenario.trajectory.height_m",
        ),
        # outside the radio spectrum the link budget is NaN or zero
        ("simulate", "scenario: {carrier_hz: 1.0e-300}\n", "scenario.carrier_hz"),
        ("simulate", "scenario: {carrier_hz: 1.0e+300}\n", "scenario.carrier_hz"),
        # a key the schema no longer has: the deleted Doppler multiplier
        ("simulate", "channel: {doppler_scale: 1.0e+306}\n", "channel.doppler_scale"),
        # |x|^2 of the transmitted preamble overflows to inf, its noise to NaN
        ("simulate", "waveform: {p_t_watts: 1.0e+308}\n", "waveform.p_t_watts"),
        # the receiver's profile sums its noise to inf, and inf >= inf detects
        (
            "simulate",
            TOY_CONFIG.replace("snr_db: 10.0", "snr_db: null\n  noise_power_watts: 1.0e+308"),
            "noise.noise_power_watts",
        ),
        # an angle past a full turn, whose derived first-null beamwidth,
        # 2.5 theta_3db_deg, would overflow to inf
        (
            "simulate",
            TOY_CONFIG.replace("scenario:\n", "scenario:\n  antenna: {theta_3db_deg: 1.0e+308}\n"),
            "scenario.antenna.theta_3db_deg",
        ),
        # propulsion_power's squared tip speed underflows to a zero divisor or
        # overflows; the induced velocity, derived from the weight since, is
        # a key the schema no longer has
        *(
            (
                "speed-tradeoff",
                f"scenario: {{airframe: {{{name}: {value}}}}}\n"
                "sweep: {axis: speed_mps, values: [10.0]}\n",
                f"scenario.airframe.{name}",
            )
            for name in ("tip_speed_mps", "induced_velocity_mps")
            for value in ("1.0e-300", "1.0e+300", "1.0e+308")
        ),
        # pitch_angle's weight and drag both overflow: a NaN tilt
        *(
            (
                command,
                "scenario: {airframe: {mass_kg: 1.0e+308, air_density_kgpm3: 1.0e+308}}\n"
                "sweep: {axis: speed_mps, values: [10.0]}\n",
                "scenario.airframe",
            )
            for command in ("simulate", "speed-tradeoff")
        ),
        # a forced tilt, here on every configuration flown, does not skip
        # the airframe's laws
        (
            "tilt-sweep",
            "scenario: {tilt_deg: 5.0, "
            "airframe: {mass_kg: 1.0e+308, air_density_kgpm3: 1.0e+308}}\n"
            "sweep: {axis: tilt_deg, values: [0.0]}\n",
            "scenario.airframe",
        ),
        # propulsion_power's parasite term overflows to inf
        *(
            (
                "speed-tradeoff",
                f"scenario: {{airframe: {{{name}: 1.0e+308}}}}\n"
                "sweep: {axis: speed_mps, values: [10.0]}\n",
                "scenario.airframe",
            )
            for name in (
                "air_density_kgpm3",
                "fuselage_drag_ratio",
                "rotor_disc_area_m2",
                "rotor_solidity",
            )
        ),
        # the received frame underflows to zero
        (
            "simulate",
            "waveform: {p_t_watts: 1.0e-300}\n"
            "scenario: {antenna: {g_rmax_db: -300.0}}\n"
            "channel: {g_t_db: -300.0}\n",
            "the link budget",
        ),
    ],
)
def test_cli_bad_number_exit_2(tmp_path, capsys, command, text, where):
    rc = main([command, "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert where in err


@pytest.mark.parametrize("db", [300.0, -300.0])
@pytest.mark.parametrize("snr_db", [300.0, -300.0])
def test_cli_db_bounds_run(tmp_path, capsys, db, snr_db):
    # every dB field at its bound at once: the link budget stays finite
    text = (
        TOY_CONFIG.replace("snr_db: 10.0", f"snr_db: {snr_db}")
        .replace("scenario:\n", f"scenario:\n  antenna: {{g_rmax_db: {db}}}\n")
        + f"channel: {{g_t_db: {db}, nlos: {{relative_power_db_range: [{db}, {db}]}}}}\n"
    )
    config = write_toy_config(tmp_path, text=text)
    rc = main(["simulate", "--config", config, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario",
    [
        "  antenna: {theta_3db_deg: 0.001, gamma_3db_deg: 0.001}\n",
        # past this the pattern's square overflowed before its ratio was capped
        "  antenna: {theta_3db_deg: 1.0e-200, gamma_3db_deg: 1.0e-200}\n",
    ],
    ids=["needle_beam", "finest_needle_beam"],
)
def test_cli_antenna_far_off_boresight_runs(tmp_path, capsys, scenario):
    # the pattern's 30 dB floor keeps the received power above zero
    text = TOY_CONFIG.replace("scenario:\n", "scenario:\n" + scenario)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", write_toy_config(tmp_path, text=text), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert len((out / "results.csv").read_text().splitlines()) == 1 + 3 * 2 * 2


# the pattern takes theta - tilt unwrapped: a tilt past a quarter turn, where
# 360 degrees would not be 0, is a config error
@pytest.mark.parametrize("tilt", ["90.5", "-90.5", "360.0", "1.0e+6", "1.0e+200"])
def test_cli_tilt_past_a_quarter_turn_exit_2(tmp_path, capsys, tilt):
    text = TOY_CONFIG.replace("scenario:\n", f"scenario:\n  tilt_deg: {tilt}\n")
    rc = main(["simulate", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    assert "config error: scenario.tilt_deg: must be in [-90.0, 90.0]" in capsys.readouterr().err


def test_cli_tilt_sweep_past_a_quarter_turn_exit_2(tmp_path, capsys):
    text = TOY_CONFIG + "sweep:\n  axis: tilt_deg\n  values: [0.0, 1.0e+200]\n"
    rc = main(["tilt-sweep", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    assert "config error: sweep.values[1]: tilt_deg must be in [-90.0, 90.0]" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("tilt", ["-90.0", "90.0"])
def test_cli_tilt_at_a_quarter_turn_runs(tmp_path, capsys, tilt):
    text = TOY_CONFIG + f"sweep:\n  axis: tilt_deg\n  values: [{tilt}]\n"
    out = tmp_path / "run"
    rc = main(["tilt-sweep", "--config", write_toy_config(tmp_path, text=text), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert len((out / "tilt_sweep.csv").read_text().splitlines()) == 1 + 1


# the carrier, speed and height at their bounds
LIGHT_SPEED = "299792458.0"
BOUND_RUNS = {
    # the lowest carrier: a 1e8 m wavelength, so a flyover that high, and a
    # frame at 1 Hz spacing, also for every sweep value, long enough for its
    # delay
    "lowest_carrier": (
        "simulate",
        TOY_CONFIG.replace("waveform:\n", "waveform:\n  delta_f_hz: 1.0\n")
        .replace("scenario:\n", "scenario:\n  carrier_hz: 3.0\n")
        .replace("height_m: 30.0", "height_m: 1.0e+8")
        + "sweep: {values: [1.0]}\n",
    ),
    "highest_carrier_light_speed": (
        "simulate",
        TOY_CONFIG.replace("scenario:\n", "scenario:\n  carrier_hz: 3.0e+12\n")
        .replace("speed_mps: 10.0", "speed_mps: " + LIGHT_SPEED),
    ),
    "speed_sweep_to_light_speed": (
        "speed-tradeoff",
        TOY_CONFIG.replace("scenario:\n", "scenario:\n  carrier_hz: 3.0e+12\n")
        + "sweep:\n  axis: speed_mps\n  values: [0.0, " + LIGHT_SPEED + "]\n",
    ),
    # one wavelength at the default 1775 MHz carrier
    "height_of_one_wavelength": (
        "simulate",
        TOY_CONFIG.replace("height_m: 30.0", "height_m: 0.16889715943661973"),
    ),
    # the largest transmit power with every dB field at its bound and the
    # noise 300 dB above the signal
    "largest_transmit_power_at_every_db_bound": (
        "simulate",
        TOY_CONFIG.replace("waveform:\n", "waveform:\n  p_t_watts: 1.0e+100\n")
        .replace("snr_db: 10.0", "snr_db: -300.0")
        .replace("scenario:\n", "scenario:\n  antenna: {g_rmax_db: 300.0}\n")
        + "channel: {g_t_db: 300.0, nlos: {relative_power_db_range: [300.0, 300.0]}}\n",
    ),
    # the largest absolute noise power
    "largest_noise_power": (
        "simulate",
        TOY_CONFIG.replace("snr_db: 10.0", "snr_db: null\n  noise_power_watts: 1.0e+250"),
    ),
    # the tip speed at either bound, over flight speeds up to light's
    **{
        f"rotor_speeds_{end}_speed_sweep_to_light_speed": (
            "speed-tradeoff",
            TOY_CONFIG.replace(
                "scenario:\n", f"scenario:\n  airframe: {{tip_speed_mps: {value}}}\n"
            )
            + "sweep:\n  axis: speed_mps\n  values: [0.0, 10.0, " + LIGHT_SPEED + "]\n",
        )
        for end, value in (("lowest", "1.0e-100"), ("at_light", LIGHT_SPEED))
    },
}


@pytest.mark.parametrize("case", sorted(BOUND_RUNS))
def test_cli_numeric_bounds_run(tmp_path, capsys, case):
    command, text = BOUND_RUNS[case]
    rc = main([command, "--config", write_toy_config(tmp_path, text=text), "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("margin, rc", [(1.0001, 0), (0.9999, 2)])
def test_cli_link_budget_bound_is_the_smallest_normal_power(tmp_path, capsys, margin, rc):
    # the toy pass's far end, one 0.5 m step past overhead, with every gain at
    # its lowest bound and the antenna at its floor 30 dB below boresight
    far = math.hypot(30.0, 0.5)
    weakest = received_power(1.0, 299792458.0 / 1775e6, far, -300.0, -330.0)
    p_t = margin * sys.float_info.min / weakest
    text = (
        TOY_CONFIG.replace("waveform:\n", f"waveform:\n  p_t_watts: {p_t!r}\n")
        .replace("scenario:\n", "scenario:\n  antenna: {g_rmax_db: -300.0}\n")
        + "channel: {g_t_db: -300.0}\n"
    )
    assert main(["simulate", "--config", write_toy_config(tmp_path, text=text),
                 "--out", str(tmp_path)]) == rc
    err = capsys.readouterr().err
    assert ("the link budget" in err) == (rc == 2), err


def test_far_field_bound_is_one_wavelength():
    wavelength = 299792458.0 / 1775e6
    tree = {"scenario": {"trajectory": {"height_m": wavelength}}}
    assert parse_config(tree).scenario.trajectory.height_m == wavelength
    tree["scenario"]["trajectory"]["height_m"] = float(np.nextafter(wavelength, 0.0))
    with pytest.raises(ConfigError, match="scenario.trajectory.height_m: must be at least one"):
        parse_config(tree)
    # a taps file sets the channel itself: no link budget, no bound
    parse_config(dict(tree, channel={"source": "taps_file", "taps_path": "taps.csv"}))


@pytest.mark.parametrize("digits, where", [(401, "waveform.delta_f_hz"), (5000, "invalid YAML")])
def test_cli_huge_integer_exit_2(tmp_path, capsys, digits, where):
    text = "waveform:\n  delta_f_hz: " + "1" * digits + "\n"
    rc = main(["validate-config", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert where in err


def test_cli_huge_trajectory_count_exit_2(tmp_path, capsys):
    text = "scenario:\n  trajectory:\n    count: 100000000000000000000000000000\n"
    for command in ("validate-config", "simulate"):
        rc = main([command, "--config", write_toy_config(tmp_path, text=text)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "scenario.trajectory.count" in err


def test_cli_sweep_axis_mismatch_exit_2(tmp_path, capsys):
    text = TOY_CONFIG + "sweep:\n  axis: speed_mps\n  values: [0.0, 10.0]\n"
    rc = main(["cdf-sweep", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate-config", "cdf-sweep"])
def test_cli_duplicate_sweep_value_exit_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "run_cdf_sweep", lambda *args, **kwargs: pytest.fail("ran"))
    text = TOY_CONFIG + "sweep:\n  values: [15000, 15000.0]\n"
    rc = main([command, "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    assert "config error: sweep.values[1]: duplicate value" in capsys.readouterr().err


def test_cli_config_error_leaves_no_output_directory(tmp_path, capsys):
    # the axis is checked by the runner, after the config has parsed
    out = tmp_path / "out"
    rc = main(["tilt-sweep", "--config", write_toy_config(tmp_path), "--out", str(out)])
    assert rc == 2
    assert "sweep.axis" in capsys.readouterr().err
    assert not out.exists()


def _numeric_leaves(node, path=()):
    """``(path, value)`` of every int or float leaf of a config tree, list
    items included; a path is the keys and list indices that reach it."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def _with_leaf(sparse, full, path, value):
    """``sparse`` with the leaf at ``path`` set to ``value``; a key that
    ``sparse`` lacks on the way is taken from ``full``, the same config with
    every key."""
    if not path:
        return value
    head = path[0]
    copy = list(sparse) if isinstance(sparse, list) else dict(sparse)
    inner = sparse[head] if isinstance(sparse, list) or head in sparse else full[head]
    copy[head] = _with_leaf(inner, full[head], path[1:], value)
    return copy


# leaves that run once more with a sibling key changed, where the canonical
# tree's value would hide a case: theta_3db_deg without the fnb_deg derived
# from it, and the noise power with snr_db null, the one way a run reads it
_SECOND_RUNS = {
    ("scenario", "antenna", "theta_3db_deg"): lambda section: section.pop("fnb_deg"),
    ("noise", "noise_power_watts"): lambda section: section.update(snr_db=None),
}


def _leaf_configs(sparse, full, path, value):
    """The configs that set the leaf at ``path`` to ``value``: ``sparse``
    with it set (see :func:`_with_leaf`), and once more with the change of
    :data:`_SECOND_RUNS` for its path."""
    configs = [_with_leaf(sparse, full, path, value)]
    if path in _SECOND_RUNS:
        configs.append(_with_leaf(sparse, full, path, value))  # copies each section on the path
        section = configs[-1]
        for key in path[:-1]:
            section = section[key]
        _SECOND_RUNS[path](section)
    return configs


def _fixed_point_failure(config) -> str | None:
    """Why the canonical form of ``config`` does not parse back to the same
    text, or None; a config that does not parse has no canonical form."""
    try:
        canonical = serialize_config(parse_config(config))
    except ConfigError:
        return None
    try:
        again = serialize_config(parse_config(yaml.safe_load(canonical)))
    except ConfigError as exc:
        return f"its canonical form does not parse: {exc}"
    return None if again == canonical else "its canonical form is not a fixed point"


def _numeric_cells_finite(path) -> bool:
    """True if every cell of the CSV at ``path`` that reads as a number is finite."""
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    if not math.isfinite(float(cell)):
                        return False
                except ValueError:
                    pass  # a header, a scheme or an empty cell
    return True


@pytest.mark.parametrize("magnitude", ["1.0e-200", "1.0e+200"])
@pytest.mark.parametrize(
    "pair", [("mass_kg", "gravity_mps2"), ("air_density_kgpm3", "rotor_disc_area_m2")]
)
def test_cli_airframe_pair_at_extreme_magnitudes_exits_0_or_2(tmp_path, capsys, pair, magnitude):
    # each field is a normal double, but the weight m g or the rotor's rho A
    # underflows to zero or overflows, and propulsion_power divides by both
    text = TOY_CONFIG.replace(
        "scenario:\n",
        f"scenario:\n  airframe: {{{pair[0]}: {magnitude}, {pair[1]}: {magnitude}}}\n",
    ) + "sweep: {axis: speed_mps, values: [0.0, 10.0]}\n"
    path = write_toy_config(tmp_path, text=text)
    for command in ("simulate", "speed-tradeoff"):
        rc = main([command, "--config", path, "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert rc in (0, 2), err
        if rc == 2:
            assert "config error: scenario.airframe" in err


def test_cli_every_numeric_leaf_at_extreme_magnitudes_exits_0_or_2(tmp_path, capsys):
    # the toy config with one point, one trial and one speed value, so that
    # both commands read every leaf of its canonical tree; each run's file is
    # the toy file with one leaf set, since parsing the whole tree would take
    # most of the time
    text = (
        TOY_CONFIG.replace("count: 3", "count: 1").replace("trials: 2", "trials: 1")
        + "sweep: {axis: speed_mps, values: [10.0]}\n"
    )
    toy = yaml.safe_load(text)
    # the toy's waveform section has no cp_len, so n_dft's runs derive it
    assert "cp_len" not in toy["waveform"]
    tree = yaml.safe_load(serialize_config(load_config(write_toy_config(tmp_path, text=text))))
    # the noise power is null in the canonical tree, so it is driven by name
    leaves = [*_numeric_leaves(tree), (("noise", "noise_power_watts"), 1.0)]
    assert len(leaves) > 30
    assert set(_SECOND_RUNS) <= {path for path, _ in leaves}
    config_path, out = tmp_path / "leaf.yaml", str(tmp_path / "out")
    failures = []
    for path, default in leaves:
        for magnitude in (0.0, 1.0e300, -1.0e300, 1.0e-300, 1.0e308):
            # an integer field gets the integer nearest to the magnitude
            value = int(magnitude) if isinstance(default, int) else magnitude
            leaf = (".".join(map(str, path)), value)
            for config in _leaf_configs(toy, tree, path, value):
                # in process: a config that parses prints a canonical form
                # that parses back to the same text
                reason = _fixed_point_failure(config)
                if reason is not None:
                    failures.append((*leaf, "validate-config", reason))
                config_path.write_text(yaml.safe_dump(config))
                for command, written in (
                    ("simulate", "results.csv"),
                    ("speed-tradeoff", "speed_tradeoff.csv"),
                ):
                    try:
                        rc = main([command, "--config", str(config_path), "--out", out])
                    except Exception as exc:  # a traceback is the failure this test looks for
                        rc = repr(exc)
                    if rc == 0 and not _numeric_cells_finite(tmp_path / "out" / written):
                        rc = f"a non-finite cell in {written}"
                    if rc not in (0, 2):
                        failures.append((*leaf, command, rc))
    capsys.readouterr()
    assert not failures, "\n".join(map(str, failures))
