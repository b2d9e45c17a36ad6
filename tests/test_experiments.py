"""Experiment runners: seeding, pairing, sweeps and summaries."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
import yaml

from ddprach import (
    ConfigError,
    ResultRecord,
    TapFileError,
    parse_config,
    propulsion_power,
    range_from_toa,
    run_cdf_sweep,
    run_simulate,
    run_speed_tradeoff,
    run_tilt_sweep,
    summarize,
    transmit,
    write_results_csv,
)
from ddprach import cli, experiments
from ddprach.config import SWEEP_AXES, _with_field

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
    for r in records:
        assert r.error_m == (r.true_d_m - r.est_d_m if r.detected else None)


def test_single_scheme_runs():
    cfg = parse_config(toy_tree(schemes=["otfs"]))
    records = run_simulate(cfg)
    assert {r.scheme for r in records} == {"otfs"}
    assert len(records) == 3 * 2


def test_seed_changes_channel_draws():
    # sub-bin refinement makes the estimate sensitive to the noise draw
    base = parse_config(toy_tree(detection={"interpolate_peak": True}))
    other = replace(base, seed=base.seed + 1)
    assert run_simulate(base) != run_simulate(other)
    assert run_simulate(base) == run_simulate(base)


# results.csv of the README default at two trials, the benchmark's
# simulate-default run, as written before each row span's tap fill became one
# convolution: the full-size framing must not move a bit (recorded again when
# the link budget took Friis's gain product, which moves every tap's power)
GOLDEN_README_DEFAULT_SHA256 = (
    "697359219a42c9caa217f0909c1a14be0ec2dcca4edc6414d894a5520086a9d8"
)


def test_readme_default_reads_no_wrapped_peak(tmp_path):
    """An ofdm peak about one main lobe early is a negative lag, not a range
    of about 20 km: no detected record is off by more than 1 km."""
    results = run_simulate(parse_config({"trials": 2}))
    records = [r for r in results if r.detected]
    assert {r.scheme for r in records} == {"otfs", "ofdm"}
    assert max(abs(r.error_m) for r in records) < 1000.0
    path = tmp_path / "results.csv"
    write_results_csv(path, results)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_README_DEFAULT_SHA256


# the CSV of the README default with the overrides below at seed 0, for the
# benchmark's other two workloads and for cdf-sweep as the README runs it:
# command, file name, overrides, --threads and SHA-256.  The workloads' were
# recorded before the sweep runners read the grid's set-ups (the speed
# sweep's again when the propulsion power derived its hover constants from
# the weight, which moved its power_w column alone, and when the link budget
# took Friis's gain product; the one-tap cdf-sweep-los has a per-frame SNR,
# so no gain reaches its numbers).  The README's three spacings over the full
# framing, with echoes, were recorded when every value of an item began to
# draw its own channel from the item's seed, where the first value's draw
# had served the others: the draws are equal, so no byte moved.
GOLDEN_BENCHMARK_SWEEPS = {
    "cdf-sweep-readme": (
        "cdf-sweep", "cdf.csv", {}, 1,
        "1b7d90e7c773d2a912900802e715941bccec279e11c88f8e640ce78ca0f31ed3",
    ),
    "cdf-sweep-los": (
        "cdf-sweep", "cdf.csv", {"channel": {"nlos": None}}, 1,
        "4c65723eab5f185568b9800e087d77dad13af7c936837fd97b989a9a74f2ec6b",
    ),
    "speed-tradeoff-2t": (
        "speed-tradeoff", "speed_tradeoff.csv",
        {"sweep": {"axis": "speed_mps", "values": [5.0, 10.0, 15.0, 20.0]}}, 2,
        "65eaf53400be1267fc1988e59643a529391a6be13976459fa422985bb613ff3b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BENCHMARK_SWEEPS))
def test_benchmark_sweep_csv_matches_golden_digest(tmp_path, capsys, name):
    command, filename, tree, threads, digest = GOLDEN_BENCHMARK_SWEEPS[name]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(tree))
    argv = [command, "--config", str(config), "--out", str(tmp_path), "--threads", str(threads)]
    assert cli.main(argv) == 0
    assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest


def test_schemes_share_channel_and_noise():
    """Per-(point, trial) draws do not depend on the scheme under test."""
    both = parse_config(toy_tree())
    otfs_only = parse_config(toy_tree(schemes=["otfs"]))
    paired = [r for r in run_simulate(both) if r.scheme == "otfs"]
    alone = run_simulate(otfs_only)
    assert paired == alone


# results.csv of the config below, as written before the channel pass and the
# noise draw were shared between schemes; the shared pass must not move a bit
# (recorded again when the link budget took Friis's gain product)
GOLDEN_NLOS_RESULTS_SHA256 = (
    "79b45b99f26d1864cc133d100be816d7b504d6e18733a6c8db68a8c578da2bce"
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


# each sweep CSV written through the command line on the toy waveform (with
# sub-bin refinement, so that every noise draw shows): command, file name,
# config overrides and SHA-256, recorded before the sweeps shared one driver
# (the speed sweeps' again when only their power_w column moved, as above, and
# all of them when the link budget took Friis's gain product)
GOLDEN_SWEEPS = {
    "cdf": (
        "cdf-sweep", "cdf.csv",
        {"sweep": {"axis": "delta_f_hz", "values": [15e3, 30e3, 60e3]}},
        "1a035799993c9a24aba8106fbe66635de2129c419639fc73b41d1bf4e9e627f0",
    ),
    "speed_derived_tilt": (
        "speed-tradeoff", "speed_tradeoff.csv",
        {"sweep": {"axis": "speed_mps", "values": [0.0, 5.0, 20.0]}},
        "eb1dfb92f98d44daf10953135fd05d8a275a2690ca9adae104b8b56e9c91417e",
    ),
    "speed_fixed_tilt": (
        "speed-tradeoff", "speed_tradeoff.csv",
        {"scenario": dict(toy_tree()["scenario"], tilt_deg=15.0),
         "sweep": {"axis": "speed_mps", "values": [0.0, 5.0, 20.0]}},
        "85e658f5368db24ae81bb818e5a43399ec48823a08f699e40c303830f673a43a",
    ),
    # recorded when last_los_index became the largest in-beam index of the
    # pass, 2 at every tilt, in place of a closed form that read 191, 456 and
    # empty; the other columns kept their bytes
    "tilt": (
        "tilt-sweep", "tilt_sweep.csv",
        {"sweep": {"axis": "tilt_deg", "values": [0.0, 10.0, 20.0]}},
        "e33b99ecac4e502fba2de9e5522bb8d4e8d5bc9fe4b61cd61cff2f80f7e00640",
    ),
    # absolute noise power (SNR about -10 to 9 dB, so 22 of the 36 records
    # are detected, 2 to 5 of the 6 in each scheme and spacing): every sweep
    # value adds the same unit noise row through add_awgn; recorded
    # when the power fell from 5e-7 W, at which Friis's gain product left one
    # record detected
    "cdf_noise_power": (
        "cdf-sweep", "cdf.csv",
        {"noise": {"snr_db": None, "noise_power_watts": 5e-8},
         "sweep": {"axis": "delta_f_hz", "values": [15e3, 30e3, 60e3]}},
        "e0960e321bdbe668b8a337bf2918ad421f90f9674fb10a47729b72342fac14d7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_digest(tmp_path, capsys, name):
    command, filename, overrides, digest = GOLDEN_SWEEPS[name]
    tree = toy_tree(detection={"interpolate_peak": True}, **overrides)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(tree))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest


def test_one_channel_pass_and_noise_draw_per_item(monkeypatch):
    real_apply, real_awgn = experiments.apply_channel, experiments.add_awgn

    def apply(params, realization, samples, **kwargs):
        calls["apply"].append(samples.shape)
        return real_apply(params, realization, samples, **kwargs)

    def awgn(*args, **kwargs):
        calls["awgn"] += 1
        return real_awgn(*args, **kwargs)

    monkeypatch.setattr(experiments, "apply_channel", apply)
    monkeypatch.setattr(experiments, "add_awgn", awgn)
    # noise relative to each frame, then an absolute floor: the same one call
    for noise in ({}, {"noise": {"snr_db": None, "noise_power_watts": 5e-8}}):
        calls = {"apply": [], "awgn": 0}
        cfg = parse_config(toy_tree(**noise))
        records = run_simulate(cfg)
        items = 3 * 2
        assert len(records) == items * 2
        assert calls["awgn"] == items, noise
        assert calls["apply"] == [(2, cfg.waveform.frame_len)] * items


def test_sweep_draws_noise_once_per_item_and_plans_once(monkeypatch, rng_seeds):
    calls = {"apply": [], "transmit": []}
    real_apply, real_transmit = experiments.apply_channel, experiments.transmit

    def apply(params, realization, samples, **kwargs):
        calls["apply"].append((params.sample_rate, id(samples)))
        return real_apply(params, realization, samples, **kwargs)

    def transmit(params):
        calls["transmit"].append(params.modulation)
        return real_transmit(params)

    monkeypatch.setattr(experiments, "apply_channel", apply)
    plans = count_plans(monkeypatch)
    monkeypatch.setattr(experiments, "transmit", transmit)
    values = [15e3, 30e3, 60e3]
    cfg = parse_config(toy_tree(sweep={"axis": "delta_f_hz", "values": values}))
    run_cdf_sweep(cfg)
    items = [(point, trial) for point in range(3) for trial in range(2)]
    # every value draws its channel from the item's one channel seed
    assert_draws(rng_seeds, cfg.seed, items, channels_per_item=len(values))
    # every value of an item in turn, all on one shared stack
    rates = [value * cfg.waveform.n_dft for value in values]
    assert [rate for rate, _ in calls["apply"]] == rates * len(items)
    assert len({stack for _, stack in calls["apply"]}) == 1
    assert len(plans) == 1  # one set of buffers per run
    assert calls["transmit"] == cfg.schemes


def test_speed_sweep_draws_a_channel_per_value(rng_seeds):
    # speed moves the Doppler and the derived tilt, so every value of an
    # item draws its own channel, from the item's one channel seed
    values = [5.0, 10.0, 20.0]
    cfg = parse_config(toy_tree(sweep={"axis": "speed_mps", "values": values}))
    run_speed_tradeoff(cfg)
    items = [(point, trial) for point in range(3) for trial in range(2)]
    assert_draws(rng_seeds, cfg.seed, items, channels_per_item=len(values))


# one pass per flight, whether or not the value moves it
@pytest.mark.parametrize(
    "axis, values, run, passes",
    [
        ("delta_f_hz", [15e3, 30e3, 60e3], run_cdf_sweep, 3),
        # and one in run_tilt_sweep, which counts the pass's in-beam points
        ("tilt_deg", [0.0, 10.0, 20.0], run_tilt_sweep, 4),
        ("speed_mps", [5.0, 10.0, 20.0], run_speed_tradeoff, 3),
    ],
)
def test_sweep_builds_one_pass_per_distinct_trajectory(monkeypatch, axis, values, run, passes):
    built = []
    real_build = experiments.build_trajectory

    def build(*args, **kwargs):
        built.append(kwargs)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_trajectory", build)
    run(parse_config(toy_tree(sweep={"axis": axis, "values": values})))
    assert len(built) == passes


def assert_draws(rng_seeds, seed, items, channels_per_item):
    """The channel's default_rng made one generator per unit noise row drawn,
    one per item, and ``channels_per_item`` per item for its channels."""
    entropy = [tuple(s.entropy) for s in rng_seeds]
    for stream, per_item in [
        (experiments._NOISE_STREAM, 1),
        (experiments._CHANNEL_STREAM, channels_per_item),
    ]:
        drawn = [(seed, stream, point, trial) for point, trial in items for _ in range(per_item)]
        assert [e for e in entropy if e[1] == stream] == drawn
    assert len(entropy) == len(items) * (1 + channels_per_item)


def count_plans(monkeypatch):
    """A list that grows by one per ``experiments.FrameBuffers`` made: the
    channel plans the rows of a set of buffers once, on its first pass."""
    plans = []
    real_buffers = experiments.FrameBuffers

    def buffers(samples):
        plans.append(1)
        return real_buffers(samples)

    monkeypatch.setattr(experiments, "FrameBuffers", buffers)
    return plans


def count_filtering(monkeypatch, convolutions):
    """``(filter calls made, filter calls a fresh call makes)`` per channel
    pass of the runners, counted through the channel's ``np.convolve``."""
    passes = []
    real_apply = experiments.apply_channel

    def apply(params, realization, samples, **kwargs):
        convolutions.clear()
        # fresh buffers filter every span
        real_apply(params, realization, samples, buffers=experiments.FrameBuffers(samples))
        fresh = len(convolutions)
        convolutions.clear()
        result = real_apply(params, realization, samples, **kwargs)
        passes.append((len(convolutions), fresh, realization))
        return result

    monkeypatch.setattr(experiments, "apply_channel", apply)
    return passes


@pytest.mark.parametrize(
    "axis, values, refilters",
    [
        # no swept speed or tilt moves a tap: the first value filters, the
        # others reuse its spans
        ("speed_mps", [0.0, 5.0, 20.0], False),
        ("tilt_deg", [0.0, 10.0, 20.0], False),
        # another spacing is another sample rate, so other delays in samples
        ("delta_f_hz", [15e3, 30e3, 60e3], True),
    ],
)
def test_sweep_filters_each_tap_once_per_item_at_one_sample_rate(
    monkeypatch, convolutions, axis, values, refilters
):
    passes = count_filtering(monkeypatch, convolutions)
    # one trial per point: consecutive items share no tap delay
    cfg = parse_config(toy_tree(trials=1, sweep={"axis": axis, "values": values}))
    experiments._run_grid(cfg, axis)
    assert len(passes) == 3 * len(values)
    for k, (made, fresh, _) in enumerate(passes):
        assert fresh > 0
        assert made == (fresh if refilters or k % len(values) == 0 else 0)


def test_simulate_reuses_the_los_tap_between_trials_of_a_point(
    monkeypatch, convolutions, tmp_path
):
    passes = count_filtering(monkeypatch, convolutions)
    plans = count_plans(monkeypatch)
    tree = toy_tree(trials=2)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(tree))
    # the library call, then the CLI in one process: the counters live in
    # this one, which a worker process would not report to
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path), "--threads", "1"]
    for run in (lambda: run_simulate(parse_config(tree)), lambda: cli.main(argv)):
        passes.clear()
        plans.clear()
        run()
        assert len(passes) == 3 * 2
        # each pass's fresh reference call plans its own buffers; the run
        # plans once
        assert len(plans) == len(passes) + 1
        for k, (made, fresh, realization) in enumerate(passes):
            if k % 2 == 0:
                assert made == fresh
                los_delay = realization.taps[0].delay_s
            else:
                # trial 1 of a point: the LoS tap, first by delay, is trial 0's
                assert realization.taps[0].delay_s == los_delay
                assert 0 < made < fresh


# three points in three processes: point 0 runs in the caller, point 1 in
# the first child, and the second child is killed once the first has failed
@pytest.mark.parametrize("failing_point", [0, 1])
def test_a_worker_error_reaches_the_caller_and_leaves_no_process(monkeypatch, failing_point):
    real_run_config = experiments._run_config

    def run_config(flight, realization, *args):
        if realization.point_index == failing_point:
            raise ValueError(f"no channel at point {realization.point_index}")
        return real_run_config(flight, realization, *args)

    # a forked child runs the patched module as it was at the fork
    monkeypatch.setattr(experiments, "_run_config", run_config)
    with pytest.raises(ValueError, match=f"^no channel at point {failing_point}$") as exc:
        run_simulate(parse_config(toy_tree()), workers=3)
    assert type(exc.value) is ValueError
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_without_a_result_is_an_error(monkeypatch):
    real_run_config = experiments._run_config

    def run_config(flight, realization, *args):
        if realization.point_index == 2:  # in the child, which runs points 1 and 2
            os._exit(3)
        return real_run_config(flight, realization, *args)

    monkeypatch.setattr(experiments, "_run_config", run_config)
    with pytest.raises(ChildProcessError, match="exited with code 3 and sent no result"):
        run_simulate(parse_config(toy_tree()), workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "axis, values",
    [
        ("speed_mps", [0.0, 5.0, 20.0]),
        ("tilt_deg", [0.0, 10.0, 20.0]),
        ("delta_f_hz", [15e3, 30e3, 60e3]),
    ],
)
def test_sweep_records_equal_runs_of_each_value_alone(axis, values):
    # every value after an item's first reuses the filtered spans of the
    # first, but for a spacing, which filters anew; every value draws its
    # channel and noise from the item's seeds, as a run of it alone does
    tree = toy_tree(detection={"interpolate_peak": True}, sweep={"axis": axis, "values": values})
    cfg = parse_config(tree)
    assert cfg.channel.nlos is not None
    for setup, records in experiments._run_grid(cfg, axis):
        alone = run_simulate(setup.cfg)
        assert len(records) == len(alone) == 3 * 2 * 2
        for record, expected in zip(records, alone):
            assert vars(record) == vars(expected)


def test_sweep_axes_leave_the_preamble_samples_alone():
    # what lets one transmitted stack and its row plan serve a whole run
    assert [path for path in SWEEP_AXES.values() if path.startswith("waveform.")] == [
        "waveform.delta_f_hz"
    ]
    waveform = parse_config(toy_tree()).waveform
    for scheme in ("otfs", "ofdm"):
        tx = [
            transmit(replace(waveform, modulation=scheme, delta_f_hz=delta_f))
            for delta_f in (15e3, 30e3, 60e3)
        ]
        for other in tx[1:]:
            assert other.shape == tx[0].shape
            assert other.tobytes() == tx[0].tobytes()


def count_channel_passes(monkeypatch):
    calls = []
    real_apply = experiments.apply_channel

    def apply(*args, **kwargs):
        calls.append(1)
        return real_apply(*args, **kwargs)

    monkeypatch.setattr(experiments, "apply_channel", apply)
    return calls


def test_taps_file_must_cover_all_points(tmp_path):
    taps = tmp_path / "taps.csv"
    write_single_tap(taps, 0, 60.0, 1e-6)
    cfg = parse_config(toy_tree(
        channel={"source": "taps_file", "taps_path": str(taps)},
    ))
    with pytest.raises(ValueError, match="no rows for point 1"):
        run_simulate(cfg)


def test_taps_file_gap_fails_before_any_channel_pass(tmp_path, monkeypatch):
    taps = tmp_path / "taps.csv"
    for point in (0, 1):
        write_single_tap(taps, point, 60.0, 1e-6)
    cfg = parse_config(toy_tree(
        channel={"source": "taps_file", "taps_path": str(taps)},
    ))
    calls = count_channel_passes(monkeypatch)
    with pytest.raises(TapFileError, match="no rows for point 2"):
        run_simulate(cfg)
    assert calls == []


def test_taps_file_delay_checked_at_every_sweep_value(tmp_path, monkeypatch):
    # the toy frame is 144 samples: 300 us at 15 kHz, 75 us at 60 kHz
    taps = tmp_path / "taps.csv"
    for point in range(3):
        write_single_tap(taps, point, 60.0, 100e-6)
    cfg = parse_config(toy_tree(
        channel={"source": "taps_file", "taps_path": str(taps)},
        sweep={"axis": "delta_f_hz", "values": [15e3, 60e3]},
    ))
    calls = count_channel_passes(monkeypatch)
    with pytest.raises(TapFileError, match="point 0: tap delay 0.0001 s exceeds"):
        run_cdf_sweep(cfg)
    assert calls == []
    run_simulate(cfg)  # waveform.delta_f_hz is 15 kHz


def test_synthetic_tap_bound_is_exact_at_the_frame_edge():
    # the tallest flyover that parses runs; one float taller is rejected at
    # parse time, and run anyway its far-end tap falls past the frame
    def tree(height_m):
        return toy_tree(
            scenario={"trajectory": {"height_m": height_m, "count": 3}},
            channel={"nlos": None},
            noise={"snr_db": None},
            trials=1,
            schemes=["otfs"],
            sweep={"axis": "speed_mps", "values": [10.0]},
        )

    low, high = 30.0, 1e6
    while (mid := (low + high) / 2) not in (low, high):
        try:
            parse_config(tree(mid))
            low = mid
        except ConfigError:
            high = mid
    assert high == np.nextafter(low, np.inf)
    assert len(run_simulate(parse_config(tree(low)))) == 3
    with pytest.raises(ConfigError):
        parse_config(tree(high))
    cfg = _with_field(parse_config(tree(low)), "scenario.trajectory.height_m", high)
    with pytest.raises(ValueError, match="exceeds the frame duration"):
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

def test_with_field_copies_along_the_dotted_path():
    cfg = parse_config(toy_tree())
    swept = _with_field(cfg, "scenario.trajectory.speed_mps", 12.5)
    assert swept.scenario.trajectory.speed_mps == 12.5
    assert cfg.scenario.trajectory.speed_mps == 10.0
    assert swept.scenario.trajectory.count == cfg.scenario.trajectory.count
    assert swept.scenario.antenna is cfg.scenario.antenna
    assert swept.waveform is cfg.waveform


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


def test_cdf_sweep_without_a_detection_writes_the_header_alone(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(toy_tree(noise={"snr_db": -40.0})))
    assert cli.main(["cdf-sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cdf.csv").read_text() == "scheme,delta_f_hz,abs_error_m,cdf\n"


def test_speed_tradeoff_rows():
    cfg = parse_config(toy_tree(sweep={"axis": "speed_mps", "values": [0.0, 10.0]}))
    rows = run_speed_tradeoff(cfg)
    assert [row["speed_mps"] for row in rows] == [0.0, 10.0]
    hover = rows[0]
    airframe = cfg.scenario.airframe
    assert hover["tilt_deg"] == 0.0
    assert hover["power_w"] == propulsion_power(0.0, airframe)
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
        sweep={"axis": "tilt_deg", "values": [-80.0, 0.0, 10.0, 20.0]},
    ))
    rows = run_tilt_sweep(cfg)
    assert [row["tilt_deg"] for row in rows] == [-80.0, 0.0, 10.0, 20.0]
    geometric = [row["n_los_geometric"] for row in rows]
    assert all(b >= a for a, b in zip(geometric, geometric[1:]))
    # default first-null width 2.5 * 65 deg: a point is in the beam at
    # elevations from 17.5 deg - tilt, so none is at -80 deg and all 3 are at
    # 20 deg; the last index is that of the pass's last point in the beam
    assert geometric[0] == 0 and rows[0]["last_los_index"] is None
    assert geometric[3] == 3 and rows[3]["last_los_index"] == 2
    for row in rows:
        assert row["n_los_tagged"] == 3  # single-tap channel tags every point LoS
        assert row["rmse_otfs_m"] is not None


def test_tilt_sweep_requires_matching_axis():
    cfg = parse_config(toy_tree())
    with pytest.raises(ConfigError):
        run_tilt_sweep(cfg)
