"""Preamble grid layout, transmit power, detection and ToA conversion."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ddprach import (
    ChannelRealization,
    ChannelTap,
    ToaEstimate,
    WaveformParams,
    add_awgn,
    apply_channel,
    build_preamble_grid,
    detection_threshold,
    range_from_toa,
    receive_and_estimate_toa,
    resolve_range,
    transmit,
)
from ddprach import prach_modem
from ddprach.dd_transform import sfft, wigner_demodulate
from ddprach.units import SPEED_OF_LIGHT
from ddprach.zc import circular_correlation, generate_zc


def toy_params(scheme="otfs", **kwargs):
    defaults = dict(delta_f_hz=15e3, n_dft=32, m=16, n=4, n_zc=13,
                    modulation=scheme)
    defaults.update(kwargs)
    return WaveformParams(**defaults)


def single_tap(params, delay_samples, doppler_hz=0.0):
    fs = params.sample_rate
    tap = ChannelTap(gain=1.0, delay_s=delay_samples / fs, doppler_hz=doppler_hz)
    return ChannelRealization(0, 0.0, [tap], True)


# ---------------------------------------------------------------------------
# preamble grid
# ---------------------------------------------------------------------------

def test_grid_layout_default():
    params = WaveformParams()
    zc = generate_zc(params.root, params.n_zc)
    grid = build_preamble_grid(zc, params)
    assert grid.shape == (1024, 4)
    filled = grid[:139, :]
    assert np.allclose(np.abs(filled), 1.0, atol=1e-12)
    assert np.all(grid[139:, :] == 0.0)
    assert np.count_nonzero(grid) == 139 * 4


def test_grid_repeats_sequence_on_every_row():
    params = toy_params(m=5, n_dft=8, n_zc=5, n=3)
    zc = generate_zc(1, 5)
    grid = build_preamble_grid(zc, params)
    for k in range(3):
        np.testing.assert_allclose(grid[:, k], zc, atol=1e-12)


def test_grid_energy():
    params = WaveformParams()
    grid = build_preamble_grid(generate_zc(1, 139), params)
    energy = np.sum(np.abs(grid) ** 2)
    assert energy == pytest.approx(4 * 139, rel=1e-12)


def test_grid_rejects_oversized_sequence():
    params = toy_params(m=5, n_dft=8, n_zc=5)
    with pytest.raises(ValueError):
        build_preamble_grid(generate_zc(1, 7), params)


# ---------------------------------------------------------------------------
# transmit
# ---------------------------------------------------------------------------

def test_transmit_frame_length_and_power():
    params = toy_params(cp_len=8)
    samples = transmit(params)
    assert samples.shape == (params.frame_len,) == (4 * (32 + 8),)
    assert samples.dtype == complex
    assert params.sample_rate == pytest.approx(15e3 * 32)
    mean_power = np.mean(np.abs(samples) ** 2)
    assert mean_power == pytest.approx(params.p_t_watts, rel=1e-9)


def test_transmit_power_is_23_dbm_by_default():
    assert WaveformParams().p_t_watts == pytest.approx(0.1995262314968880, rel=1e-12)


@pytest.mark.parametrize("params", [WaveformParams(), toy_params()], ids=["default", "toy"])
def test_preamble_structure(params):
    """OTFS energy sits in symbol 0 only; the OFDM symbols repeat exactly.

    Every Doppler row of the grid carries the same ZC sequence, so the
    ISFFT's transform across Doppler leaves only symbol 0 nonzero; the
    channel interpolator filters just that span of the OTFS frame.
    """
    symbol = params.n_dft + params.cp_len
    otfs = transmit(replace(params, modulation="otfs"))
    assert otfs[:symbol].any()
    assert not otfs[symbol:].any()
    ofdm = transmit(replace(params, modulation="ofdm")).reshape(params.n, symbol)
    for row in ofdm[1:]:
        assert np.array_equal(row, ofdm[0])


def test_transmit_schemes_differ():
    a = transmit(toy_params("otfs"))
    b = transmit(toy_params("ofdm"))
    assert np.max(np.abs(a - b)) > 1e-3 * np.max(np.abs(a))


@pytest.mark.parametrize("scheme", ["otfs", "ofdm"])
def test_loopback_zero_delay(scheme):
    params = toy_params(scheme)
    est = receive_and_estimate_toa(transmit(params), params)
    assert est.detected
    assert est.sample_delay == 0
    assert int(np.argmax(est.profile)) == 0
    assert est.profile[0] >= est.threshold


@pytest.mark.parametrize("scheme", ["otfs", "ofdm"])
def test_integer_delay_readout(scheme):
    # m = 16 delay bins over n_dft = 32 -> 2 waveform samples per bin
    params = toy_params(scheme)
    rx = apply_channel(params, single_tap(params, 6), transmit(params))
    est = receive_and_estimate_toa(rx, params)
    assert est.detected
    assert int(np.argmax(est.profile)) == 3
    assert est.sample_delay == 6
    stride = params.n_dft / params.m
    assert est.sample_delay == round(int(np.argmax(est.profile)) * stride)


@pytest.mark.parametrize("scheme", ["otfs", "ofdm"])
@pytest.mark.parametrize("size", [{}, {"m": 1024, "n_dft": 2048, "n_zc": 139}])
def test_early_peak_reads_as_negative_delay(scheme, size):
    """A frame one bin early peaks at bin m - 1, the lag -1."""
    params = toy_params(scheme, **size)
    stride = params.n_dft // params.m
    rx = np.roll(transmit(params), -stride)
    est = receive_and_estimate_toa(rx, params, interpolate_peak=True)
    assert est.detected
    assert int(np.argmax(est.profile)) == params.m - 1
    assert est.sample_delay == -round(params.n_dft / params.m)
    assert est.refined_sample_delay < 0


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("kind", ["float64", "float32", "list"])
def test_entry_points_read_samples_as_complex128(kind):
    """The channel, the noise and the receiver read their samples as
    ``np.asarray(x, dtype=complex)``: a real, single-precision or list input
    gives the bits of that complex128 copy."""
    params = toy_params("ofdm")  # periodic rows: the channel's copying path too
    tx = transmit(params)
    x = {"float64": tx.real, "float32": tx.real.astype(np.float32), "list": tx.tolist()}[kind]
    copy = np.asarray(x, dtype=complex)
    channel = ChannelRealization(
        0, 0.0,
        [ChannelTap(0.9, 3.4 / params.sample_rate, 700.0),
         ChannelTap(0.3j, 6.0 / params.sample_rate, 0.0)],
    )
    assert same_bits(apply_channel(params, channel, x), apply_channel(params, channel, copy))
    assert same_bits(add_awgn(x, 5.0, seed=3), add_awgn(copy, 5.0, seed=3))
    got = receive_and_estimate_toa(x, params, interpolate_peak=True)
    expected = receive_and_estimate_toa(copy, params, interpolate_peak=True)
    assert same_bits(got.profile, expected.profile)
    assert (got.detected, got.sample_delay, got.threshold, got.refined_sample_delay) == (
        expected.detected, expected.sample_delay, expected.threshold,
        expected.refined_sample_delay,
    )


# ---------------------------------------------------------------------------
# detection threshold
# ---------------------------------------------------------------------------

def test_threshold_single_bin_example():
    assert detection_threshold(np.ones(1), math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)


def test_threshold_scales_with_profile_power():
    rng = np.random.default_rng(11)
    values = rng.standard_exponential(256)
    assert detection_threshold(3.7 * values, 1e-3) == pytest.approx(
        3.7 * detection_threshold(values, 1e-3), rel=1e-12
    )


def test_threshold_grows_with_bin_count():
    rng = np.random.default_rng(5)
    values = rng.standard_exponential(4096)
    # both scaled to a mean of 1, so that only the bin count differs
    small = values[:64] / values[:64].mean()
    large = values / values.mean()
    assert detection_threshold(large, 1e-3) > detection_threshold(small, 1e-3)


def test_threshold_input_validation():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            detection_threshold(np.ones(8), bad)
    with pytest.raises(ValueError):
        detection_threshold(np.zeros(8), 1e-3)
    # a nonzero profile whose mean underflows is as undetectable; the
    # receiver's miss test is therefore on the mean, not on any()
    with pytest.raises(ValueError):
        detection_threshold(np.array([5e-324, 0.0, 0.0, 0.0]), 1e-3)


def test_false_alarm_rate_monte_carlo():
    """Empirical max-over-bins false-alarm rate tracks the target."""
    rng = np.random.default_rng(2026)
    trials, length, target = 10_000, 2048, 1e-3
    hits = 0
    for _ in range(10):
        block = rng.standard_exponential((trials // 10, length))
        for row in block:
            hits += bool(row.max() >= detection_threshold(row, target))
    # 10 expected; binomial 3-sigma band is roughly [1, 20]
    assert 1 <= hits <= 30


@pytest.mark.parametrize("scheme", ["otfs", "ofdm"])
def test_profile_is_read_only(scheme):
    params = toy_params(scheme)
    est = receive_and_estimate_toa(transmit(params), params)
    with pytest.raises(ValueError):
        est.profile[0] = 0.0


def test_all_zero_rx_not_detected():
    params = toy_params()
    rx = np.zeros(params.frame_len, dtype=complex)
    est = receive_and_estimate_toa(rx, params)
    assert not est.detected
    assert est.threshold == math.inf
    assert est.sample_delay == 0


def row_correlation_oracle(rx, params):
    """Sum of per-row circular_correlation powers, one row at a time."""
    tf = wigner_demodulate(rx, params.n_dft, params.cp_len, params.m, params.n)
    reference = np.zeros(params.m, dtype=complex)
    reference[: params.n_zc] = generate_zc(params.root, params.n_zc)
    if params.modulation == "otfs":
        dd = sfft(tf)
        rows = [dd[:, k] for k in range(params.n)]
    else:
        reference = np.fft.ifft(reference)
        rows = [np.fft.ifft(tf[k, :]) for k in range(params.n)]
    return sum(circular_correlation(row, reference) for row in rows)


@pytest.mark.parametrize("scheme", ["otfs", "ofdm"])
@pytest.mark.parametrize(
    "size",
    [
        {},
        {"m": 64, "n": 16, "n_dft": 128, "n_zc": 61},
        {"n": 1},
        {"m": 32, "cp_len": 0},  # m = n_dft
        {"m": 1024, "n": 4, "n_dft": 2048, "n_zc": 139},  # README default
    ],
)
def test_batched_profile_matches_row_oracle(scheme, size):
    params = toy_params(scheme, **size)
    channel = ChannelRealization(
        0, 0.0,
        [ChannelTap(1.0, 3.4 / params.sample_rate, 700.0),
         ChannelTap(0.5j, 6.0 / params.sample_rate, -300.0)],
    )
    rx = add_awgn(apply_channel(params, channel, transmit(params)), 3.0, seed=5)
    est = receive_and_estimate_toa(rx, params)
    oracle = row_correlation_oracle(rx, params)
    assert est.profile.shape == (params.m,)
    assert np.allclose(est.profile, oracle, rtol=1e-12, atol=1e-12 * oracle.max())
    assert int(np.argmax(est.profile)) == int(np.argmax(oracle))
    assert np.mean(est.profile) == pytest.approx(float(np.mean(oracle)), rel=1e-12)


@pytest.mark.parametrize("scheme", ["otfs", "ofdm"])
def test_receiver_runs_without_sfft(scheme, monkeypatch):
    """The matched filter replaces the SFFT: the estimate never needs it."""
    params = toy_params(scheme)
    rx = add_awgn(apply_channel(params, single_tap(params, 6.6), transmit(params)), 20.0, seed=9)
    before = receive_and_estimate_toa(rx, params, interpolate_peak=True)

    def no_sfft(grid):
        raise AssertionError("sfft called")

    monkeypatch.setattr(prach_modem, "sfft", no_sfft)
    after = receive_and_estimate_toa(rx, params, interpolate_peak=True)
    assert after.detected and after.detected == before.detected
    assert after.sample_delay == before.sample_delay
    assert after.refined_sample_delay == before.refined_sample_delay
    assert after.threshold == before.threshold
    assert np.array_equal(after.profile, before.profile)


# ---------------------------------------------------------------------------
# scheme comparison under Doppler
# ---------------------------------------------------------------------------

def test_detection_rate_under_doppler():
    """Full-band spreading keeps detection alive at high residual Doppler."""
    rates = {}
    for scheme in ("otfs", "ofdm"):
        params = toy_params(scheme)
        rx0 = apply_channel(
            params, single_tap(params, 4, doppler_hz=0.3 * params.delta_f_hz), transmit(params)
        )
        hits = 0
        for trial in range(200):
            rx = add_awgn(rx0, 4.0, seed=np.random.SeedSequence([7, trial]))
            hits += receive_and_estimate_toa(rx, params, target_pfa=1e-3).detected
        rates[scheme] = hits / 200
    assert rates["otfs"] >= rates["ofdm"] + 0.3


def test_peak_bias_with_multipath_and_doppler():
    """Delay-domain peak of the narrowband scheme drifts; spread one holds."""
    true_delay = 60.4  # waveform samples
    delays = {}
    for scheme in ("otfs", "ofdm"):
        params = WaveformParams(modulation=scheme)
        fs = params.sample_rate
        nu = 0.35 * params.delta_f_hz
        taps = [
            ChannelTap(gain=1.0, delay_s=true_delay / fs, doppler_hz=nu),
            ChannelTap(gain=10 ** (-3 / 20), delay_s=64.1 / fs, doppler_hz=nu),
            ChannelTap(gain=10 ** (-6 / 20), delay_s=67.2 / fs, doppler_hz=nu),
        ]
        rx = apply_channel(params, ChannelRealization(0, 0.0, taps, True), transmit(params))
        est = receive_and_estimate_toa(rx, params)
        assert est.detected
        delays[scheme] = est.sample_delay
    assert delays["otfs"] == 60
    assert abs(delays["otfs"] - true_delay) < abs(delays["ofdm"] - true_delay)


def test_zc_delay_doppler_alias_is_pinned():
    """A Doppler of eps subcarriers moves the ZC correlation peak along delay.

    ``ofdm`` puts the root-u sequence on its subcarriers, so an integer eps
    moves its read-out by ``-eps * u mod n_zc`` cyclic shifts of
    ``n_dft / n_zc`` samples; ``otfs`` spread over 1024 bins does not move.
    Noiseless, one tap at a 40-sample delay.
    """
    rows = []
    for root in (1, 25):
        for m in (139, 1024):
            for scheme in ("otfs", "ofdm"):
                params = WaveformParams(m=m, root=root, modulation=scheme)
                samples = transmit(params)
                reads = []
                for eps in (0, 1, 2):
                    tap = single_tap(params, 40, doppler_hz=eps * params.delta_f_hz)
                    est = receive_and_estimate_toa(apply_channel(params, tap, samples), params)
                    assert est.detected
                    reads.append(est.sample_delay)
                rows.append((params, reads))
    print("\nroot     m  scheme  read at eps 0/1/2 [samples]")
    for p, reads in rows:
        print(f"{p.root:4d} {p.m:5d}  {p.modulation:6s}  {reads}")
    for p, (read0, *moved) in rows:
        for eps, read in enumerate(moved, start=1):
            if p.modulation == "ofdm":
                shift = (-eps * p.root) % p.n_zc * p.n_dft / p.n_zc
                # the move's distance from the predicted alias, modulo the frame
                off = (read - read0 - shift + p.n_dft / 2) % p.n_dft - p.n_dft / 2
                assert abs(off) <= p.n_dft / p.m, (p.root, p.m, eps)
            elif p.m == 1024:
                assert read == read0, (p.root, eps)


# ---------------------------------------------------------------------------
# sub-bin refinement
# ---------------------------------------------------------------------------

def test_refined_delay_near_integer_bin():
    params = WaveformParams()
    rx = apply_channel(params, single_tap(params, 60), transmit(params))
    est = receive_and_estimate_toa(rx, params, interpolate_peak=True)
    assert est.detected
    assert est.refined_sample_delay is not None
    assert abs(est.refined_sample_delay - 60.0) < 0.5
    assert est.sample_delay == 60  # integer read-out unchanged


def test_refined_delay_absent_by_default():
    params = toy_params()
    est = receive_and_estimate_toa(transmit(params), params)
    assert est.refined_sample_delay is None


def test_refined_delay_absent_on_miss():
    params = toy_params()
    rx = np.zeros(params.frame_len, dtype=complex)
    est = receive_and_estimate_toa(rx, params, interpolate_peak=True)
    assert not est.detected
    assert est.refined_sample_delay is None


# ---------------------------------------------------------------------------
# distance conversion
# ---------------------------------------------------------------------------

def test_range_zero_delay():
    assert range_from_toa(0, 15e3, 2048) == 0.0


def test_range_ten_samples():
    # c * 10 / (15e3 * 2048) with c = 299792458 m/s
    assert range_from_toa(10, 15e3, 2048) == pytest.approx(
        97.58869075520833, rel=1e-12
    )


def test_range_quantum():
    quantum = range_from_toa(1, 15e3, 2048)
    assert quantum == pytest.approx(SPEED_OF_LIGHT / (15e3 * 2048), rel=1e-15)
    assert range_from_toa(7, 15e3, 2048) == pytest.approx(7 * quantum, rel=1e-12)


def test_range_scales_inversely_with_bandwidth():
    assert range_from_toa(10, 30e3, 2048) == pytest.approx(
        range_from_toa(10, 15e3, 2048) / 2.0, rel=1e-12
    )
    assert range_from_toa(10, 15e3, 4096) == pytest.approx(
        range_from_toa(10, 15e3, 2048) / 2.0, rel=1e-12
    )


def test_range_input_validation():
    with pytest.raises(ValueError):
        range_from_toa(1, 0.0, 2048)
    with pytest.raises(ValueError):
        range_from_toa(1, 15e3, 0)


# ---------------------------------------------------------------------------
# ranging results
# ---------------------------------------------------------------------------

def _dummy_profile():
    return np.ones(4)


def test_resolve_range_miss():
    params = WaveformParams()
    est = ToaEstimate(False, 0, math.inf, _dummy_profile())
    assert resolve_range(est, params) is None


def test_resolve_range_integer_delay():
    params = WaveformParams()
    est = ToaEstimate(True, 6, 1.0, _dummy_profile())
    expected = range_from_toa(6, params.delta_f_hz, params.n_dft)
    assert resolve_range(est, params) == pytest.approx(expected, rel=1e-12)


def test_resolve_range_prefers_refined_delay():
    params = WaveformParams()
    est = ToaEstimate(True, 6, 1.0, _dummy_profile(), refined_sample_delay=5.5)
    expected = range_from_toa(5.5, params.delta_f_hz, params.n_dft)
    assert resolve_range(est, params) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_defaults():
    params = WaveformParams()
    assert params.cp_len == 2048 // 8
    assert params.sample_rate == pytest.approx(15e3 * 2048)
    assert params.frame_len == 4 * (2048 + 256)


def test_params_validation():
    with pytest.raises(ValueError):
        WaveformParams(m=4096)  # m > n_dft
    with pytest.raises(ValueError):
        WaveformParams(m=1)
    with pytest.raises(ValueError):
        WaveformParams(n=0)
    with pytest.raises(ValueError):
        WaveformParams(n_zc=2048)  # n_zc > m
    with pytest.raises(ValueError):
        WaveformParams(n_zc=2)
    with pytest.raises(ValueError):
        WaveformParams(cp_len=4096)
    with pytest.raises(ValueError):
        WaveformParams(delta_f_hz=0.0)
    with pytest.raises(ValueError):
        WaveformParams(modulation="qam")
    with pytest.raises(ValueError):
        WaveformParams(p_t_watts=0.0)


def binomial_upper_bound(trials: int, p: float, confidence: float) -> int:
    """The smallest ``k`` with ``P(X > k) <= 1 - confidence`` for ``X ~ B(trials, p)``."""
    cumulative = 0.0
    for k in range(trials + 1):
        cumulative += math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
        if 1.0 - cumulative <= 1.0 - confidence:
            return k
    return trials


@pytest.mark.parametrize("scheme", ["otfs", "ofdm"])
def test_noise_only_alarms_within_target_pfa(scheme):
    # the documented conservatism: the Gamma(n) bins and the peak in the mean
    # keep the delivered rate at or below target_pfa; ROADMAP item 3 makes
    # this band two-sided
    params = WaveformParams(modulation=scheme)  # the README default waveform
    frames, target = 400, 0.05
    rng = np.random.default_rng([2026, 5])
    alarms = 0
    for _ in range(frames):
        noise = rng.standard_normal(2 * params.frame_len).view(complex)
        alarms += receive_and_estimate_toa(noise, params, target_pfa=target).detected
    bound = binomial_upper_bound(frames, target, 0.999)
    print(f"{scheme}: {alarms} of {frames} noise-only frames alarmed at target_pfa {target}, "
          f"bound {bound}")
    assert alarms <= bound
