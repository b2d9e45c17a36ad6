"""Experiment runners: seeding, pairing, sweeps and summaries."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ddprach import (
    ConfigError,
    ResultRecord,
    parse_config,
    range_from_toa,
    run_cdf_sweep,
    run_simulate,
    run_speed_tradeoff,
    run_tilt_sweep,
    summarize,
    write_results_csv,
)
from ddprach import experiments

TOY_WAVEFORM = {"n_dft": 32, "m": 16, "n_zc": 13, "n": 4}


def toy_tree(**overrides):
    tree = {
        "waveform": dict(TOY_WAVEFORM),
        "scenario": {
            "trajectory": {"height_m": 30.0, "dp_m": 0.5, "count": 3, "speed_mps": 10.0}
        },
        "noise": {"snr_db": 10.0},
        "trials": 2,
        "seed": 7,
    }
    tree.update(overrides)
    return tree


def write_single_tap(path, point, distance_m, delay_s, gain_db=0.0, doppler_hz=0.0):
    with open(path, "a") as fh:
        if fh.tell() == 0:
            fh.write("point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n")
        fh.write(f"{point},{distance_m:.12g},{gain_db},0,{delay_s:.12g},{doppler_hz}\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_taps_file_noiseless_is_exact(tmp_path):
    # delay of 2 waveform samples at fs = 15 kHz * 32; distance on the grid
    fs = 15e3 * 32
    true_d = range_from_toa(2, 15e3, 32)
    taps = tmp_path / "taps.csv"
    write_single_tap(taps, 0, true_d, 2.0 / fs)
    cfg = parse_config(toy_tree(
        scenario={"trajectory": {"count": 1}},
        channel={"source": "taps_file", "taps_path": str(taps)},
        noise={"snr_db": None},
        trials=1,
    ))
    records = run_simulate(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.detected
        assert rec.los_tag
        assert abs(rec.error_m) < 1e-6
        assert rec.est_d_m == pytest.approx(true_d, rel=1e-9)


def test_record_order_is_canonical():
    cfg = parse_config(toy_tree())
    records = run_simulate(cfg)
    assert len(records) == 3 * 2 * 2
    expected = [
        (point, scheme)
        for point in range(3)
        for _trial in range(2)
        for scheme in ("otfs", "ofdm")
    ]
    assert [(r.point_index, r.scheme) for r in records] == expected


def test_single_scheme_runs():
    cfg = parse_config(toy_tree(schemes=["otfs"]))
    records = run_simulate(cfg)
    assert {r.scheme for r in records} == {"otfs"}
    assert len(records) == 3 * 2


def test_thread_count_does_not_change_records():
    cfg = parse_config(toy_tree())
    serial = run_simulate(cfg, threads=1)
    threaded = run_simulate(cfg, threads=4)
    assert serial == threaded


def test_seed_changes_channel_draws():
    # sub-bin refinement makes the estimate sensitive to the noise draw
    base = parse_config(toy_tree(detection={"interpolate_peak": True}))
    other = replace(base, seed=base.seed + 1)
    assert run_simulate(base) != run_simulate(other)
    assert run_simulate(base) == run_simulate(base)


def test_schemes_share_channel_and_noise():
    """Per-(point, trial) draws do not depend on the scheme under test."""
    both = parse_config(toy_tree())
    otfs_only = parse_config(toy_tree(schemes=["otfs"]))
    paired = [r for r in run_simulate(both) if r.scheme == "otfs"]
    alone = run_simulate(otfs_only)
    assert paired == alone


# results.csv of the config below, as written before the channel pass and the
# noise draw were shared between schemes; the shared pass must not move a bit
GOLDEN_NLOS_RESULTS_SHA256 = (
    "be95285faf12109ff131f8febabb9f9b6db61a4e4b8e9267d6dd0502332e618a"
)


def test_results_match_golden_digest(tmp_path):
    cfg = parse_config({
        "scenario": {"trajectory": {"count": 12}},
        "noise": {"snr_db": 5.0},
        "trials": 2,
        "seed": 3,
    })
    assert cfg.channel.nlos is not None and cfg.schemes == ["otfs", "ofdm"]
    path = tmp_path / "results.csv"
    write_results_csv(path, run_simulate(cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_NLOS_RESULTS_SHA256


def test_one_channel_pass_and_noise_draw_per_item(monkeypatch):
    calls = {"apply": [], "awgn": 0}
    real_apply, real_awgn = experiments.apply_channel, experiments.add_awgn

    def apply(waveform, realization):
        calls["apply"].append(waveform.samples.shape)
        return real_apply(waveform, realization)

    def awgn(*args, **kwargs):
        calls["awgn"] += 1
        return real_awgn(*args, **kwargs)

    monkeypatch.setattr(experiments, "apply_channel", apply)
    monkeypatch.setattr(experiments, "add_awgn", awgn)
    cfg = parse_config(toy_tree())
    records = run_simulate(cfg)
    items = 3 * 2
    assert len(records) == items * 2
    assert calls["awgn"] == items
    assert calls["apply"] == [(2, cfg.waveform.frame_len)] * items


def test_taps_file_must_cover_all_points(tmp_path):
    taps = tmp_path / "taps.csv"
    write_single_tap(taps, 0, 60.0, 1e-6)
    cfg = parse_config(toy_tree(
        channel={"source": "taps_file", "taps_path": str(taps)},
    ))
    with pytest.raises(ValueError, match="no rows for point 1"):
        run_simulate(cfg)


def test_quantization_error_shrinks_with_bandwidth():
    """Noiseless grid error scales with the delay-sample quantum."""
    # distances span several delay samples yet stay inside the cyclic prefix
    base = parse_config(toy_tree(
        waveform={"n_dft": 256, "m": 128, "n_zc": 127},
        scenario={"trajectory": {"height_m": 400.0, "dp_m": 60.0, "count": 24,
                                 "speed_mps": 10.0}},
        channel={"nlos": None},
        noise={"snr_db": None},
        trials=1,
    ))
    mean_abs = {}
    for delta_f in (15e3, 30e3):
        cfg = replace(base, waveform=replace(base.waveform, delta_f_hz=delta_f))
        records = [r for r in run_simulate(cfg) if r.scheme == "otfs"]
        assert all(r.detected for r in records)
        mean_abs[delta_f] = np.mean([abs(r.error_m) for r in records])
    ratio = mean_abs[30e3] / mean_abs[15e3]
    assert 0.25 < ratio < 0.75


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _record(scheme, error, detected, los=True):
    return ResultRecord(scheme, 15e3, 10.0, 0, los, 100.0,
                        100.0 - error if detected else None,
                        error if detected else None, detected)


def test_summarize_statistics():
    records = [
        _record("otfs", 3.0, True),
        _record("otfs", -4.0, True),
        _record("otfs", 0.0, False),
        _record("ofdm", 0.0, False),
    ]
    summary = summarize(records)
    otfs = summary["otfs"]
    assert otfs["detection_rate"] == pytest.approx(2.0 / 3.0)
    assert otfs["rmse_m"] == pytest.approx(np.sqrt(12.5), rel=1e-12)
    assert otfs["mean_abs_error_m"] == pytest.approx(3.5, rel=1e-12)
    assert summary["ofdm"]["detection_rate"] == 0.0
    assert "rmse_m" not in summary["ofdm"]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_cdf_sweep_rows(tmp_path):
    fs15 = 15e3 * 32
    taps = tmp_path / "taps.csv"
    write_single_tap(taps, 0, range_from_toa(2, 15e3, 32), 2.0 / fs15)
    cfg = parse_config(toy_tree(
        scenario={"trajectory": {"count": 1}},
        channel={"source": "taps_file", "taps_path": str(taps)},
        noise={"snr_db": None},
        trials=1,
        sweep={"axis": "delta_f_hz", "values": [15e3, 30e3]},
    ))
    rows = run_cdf_sweep(cfg)
    assert {row["delta_f_hz"] for row in rows} == {15e3, 30e3}
    assert {row["scheme"] for row in rows} == {"otfs", "ofdm"}
    for row in rows:
        assert set(row) == {"scheme", "delta_f_hz", "abs_error_m", "cdf"}
        assert row["abs_error_m"] >= 0.0
        assert row["cdf"] == 1.0  # single noiseless sample per group


def test_cdf_sweep_probabilities_non_decreasing():
    cfg = parse_config(toy_tree(
        sweep={"axis": "delta_f_hz", "values": [15e3]},
        schemes=["otfs"],
    ))
    rows = run_cdf_sweep(cfg)
    probs = [row["cdf"] for row in rows]
    assert probs == sorted(probs)
    assert probs[-1] == 1.0


def test_cdf_sweep_requires_matching_axis():
    cfg = parse_config(toy_tree(sweep={"axis": "speed_mps", "values": [10.0]}))
    with pytest.raises(ConfigError):
        run_cdf_sweep(cfg)


def test_speed_tradeoff_rows():
    cfg = parse_config(toy_tree(sweep={"axis": "speed_mps", "values": [0.0, 10.0]}))
    rows = run_speed_tradeoff(cfg)
    assert [row["speed_mps"] for row in rows] == [0.0, 10.0]
    hover = rows[0]
    airframe = cfg.scenario.airframe
    assert hover["tilt_deg"] == 0.0
    assert hover["power_w"] == airframe.blade_profile_power_w + airframe.induced_power_w
    assert rows[1]["tilt_deg"] > 0.0
    for row in rows:
        assert row["rmse_otfs_m"] is not None
        assert row["rmse_ofdm_m"] is not None


def test_speed_tradeoff_requires_matching_axis():
    cfg = parse_config(toy_tree())
    with pytest.raises(ConfigError):
        run_speed_tradeoff(cfg)


def test_tilt_sweep_rows():
    cfg = parse_config(toy_tree(
        channel={"nlos": None},
        sweep={"axis": "tilt_deg", "values": [0.0, 10.0, 20.0]},
    ))
    rows = run_tilt_sweep(cfg)
    assert [row["tilt_deg"] for row in rows] == [0.0, 10.0, 20.0]
    geometric = [row["n_los_geometric"] for row in rows]
    assert all(b >= a for a, b in zip(geometric, geometric[1:]))
    # default first-null width 2.5 * 65 deg: closed form valid below 17.5 deg
    assert isinstance(rows[0]["last_los_index"], int)
    assert rows[2]["last_los_index"] is None
    for row in rows:
        assert row["n_los_tagged"] == 3  # single-tap channel tags every point LoS
        assert row["rmse_otfs_m"] is not None


def test_tilt_sweep_requires_matching_axis():
    cfg = parse_config(toy_tree())
    with pytest.raises(ConfigError):
        run_tilt_sweep(cfg)
