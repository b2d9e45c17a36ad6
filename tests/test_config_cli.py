"""Config parsing/validation, canonical YAML form and the CLI entry point."""

import re

import yaml
import pytest

from ddprach import (
    ConfigError,
    load_config,
    parse_config,
    serialize_config,
)
from ddprach.cli import main
from ddprach.metrics import RESULTS_HEADER

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


def test_cp_len_follows_explicit_n_dft():
    cfg = parse_config({"waveform": {"n_dft": 64, "m": 16, "n_zc": 13}})
    assert cfg.waveform.cp_len == 8


def test_waveform_inconsistency_is_config_error():
    with pytest.raises(ConfigError, match="waveform"):
        parse_config({"waveform": {"n_dft": 16, "m": 64}})


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


def test_target_pfa_range():
    with pytest.raises(ConfigError):
        parse_config({"detection": {"target_pfa": 1.0}})
    with pytest.raises(ConfigError):
        parse_config({"detection": {"target_pfa": 0.0}})


def test_negative_speed_rejected():
    with pytest.raises(ConfigError, match="speed_mps"):
        parse_config({"scenario": {"trajectory": {"speed_mps": -1.0}}})


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


def test_cli_bad_config_exit_2(tmp_path, capsys):
    path = write_toy_config(tmp_path, text="waveform:\n  bandwidth: 5\n")
    rc = main(["validate-config", "--config", path])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


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


def test_cli_thread_count_is_invisible(tmp_path, capsys):
    cfg_path = write_toy_config(tmp_path)

    def run(out_name, threads):
        out = tmp_path / out_name
        rc = main([
            "simulate", "--config", cfg_path, "--out", str(out),
            "--threads", str(threads),
        ])
        assert rc == 0
        return (out / "results.csv").read_bytes()

    serial = run("t1", 1)
    threaded = run("t4", 4)
    capsys.readouterr()
    assert serial == threaded


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


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("simulate", "waveform:\n  delta_f_hz: .nan\n", "waveform.delta_f_hz"),
        ("simulate", "noise:\n  snr_db: .inf\n", "noise.snr_db"),
        (
            "speed-tradeoff",
            "sweep:\n  axis: speed_mps\n  values: [-5.0]\n",
            "sweep.values[0]",
        ),
    ],
)
def test_cli_bad_number_exit_2(tmp_path, capsys, command, text, where):
    rc = main([command, "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert where in err


def test_cli_sweep_axis_mismatch_exit_2(tmp_path, capsys):
    text = TOY_CONFIG + "sweep:\n  axis: speed_mps\n  values: [0.0, 10.0]\n"
    rc = main(["cdf-sweep", "--config", write_toy_config(tmp_path, text=text)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
