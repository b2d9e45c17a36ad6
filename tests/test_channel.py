"""Tapped delay-Doppler channel, AWGN, link budget, and tap file I/O."""

import math

import numpy as np
import pytest

from ddprach import (
    ChannelRealization,
    ChannelTap,
    LinkBudget,
    TapFileError,
    Waveform,
    add_awgn,
    add_noise_power,
    apply_channel,
    channel_gain,
    load_taps,
    received_power,
    save_taps,
    synthesize_scenario_channel,
)
from ddprach.uav_scenario import AntennaConfig, TrajectoryPoint

FS = 1e6  # test sample rate, Hz


def make_waveform(samples, fs=FS):
    return Waveform(np.asarray(samples, dtype=complex), fs, n_dft=0, cp_len=0)


def bandlimited_noise(n, seed, occupancy=0.7):
    """Random signal with the top (1-occupancy) of the spectrum zeroed."""
    rng = np.random.default_rng(seed)
    spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = np.fft.fftfreq(n)
    spectrum[np.abs(f) > occupancy / 2] = 0.0
    return np.fft.ifft(spectrum)


def fd_fractional_delay(x, delay_samples):
    """Oracle: cyclic fractional delay via a frequency-domain phase ramp."""
    n = x.size
    f = np.fft.fftfreq(n)
    return np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * f * delay_samples))


# ---------------------------------------------------------------------------
# apply_channel
# ---------------------------------------------------------------------------

def test_identity_tap():
    wf = make_waveform(bandlimited_noise(256, seed=0))
    ch = ChannelRealization(0, 1.0, [ChannelTap(1.0, 0.0, 0.0)])
    out = apply_channel(wf, ch)
    assert np.allclose(out.samples, wf.samples, atol=1e-12)


def test_integer_delay_is_exact_shift():
    wf = make_waveform(bandlimited_noise(256, seed=1))
    ch = ChannelRealization(0, 1.0, [ChannelTap(1.0, 7.0 / FS, 0.0)])
    out = apply_channel(wf, ch)
    assert np.allclose(out.samples[:7], 0.0, atol=1e-12)
    assert np.allclose(out.samples[7:], wf.samples[:-7], atol=1e-12)


def test_fractional_delay_matches_fd_oracle():
    n = 4096
    x = bandlimited_noise(n, seed=2)
    delay = 11.37  # samples
    wf = make_waveform(x)
    out = apply_channel(wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, delay / FS, 0.0)]))
    expected = fd_fractional_delay(x, delay)
    # compare away from the edges (linear vs cyclic semantics, kernel tails)
    lo, hi = 64, n - 64
    err = np.linalg.norm(out.samples[lo:hi] - expected[lo:hi])
    ref = np.linalg.norm(expected[lo:hi])
    assert err / ref < 1e-3


def test_doppler_phase_rotation():
    n = 512
    x = bandlimited_noise(n, seed=3)
    nu = 1234.5  # Hz
    wf = make_waveform(x)
    out = apply_channel(wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, 0.0, nu)]))
    t = np.arange(n) / FS
    assert np.allclose(out.samples, x * np.exp(2j * np.pi * nu * t), atol=1e-10)


def test_doppler_phase_anchored_at_delay():
    """Tap phase follows exp(j 2 pi nu (t - tau)) for a delayed tap."""
    n = 512
    x = bandlimited_noise(n, seed=4)
    nu, d = 2000.0, 9
    wf = make_waveform(x)
    out = apply_channel(
        wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, d / FS, nu)])
    )
    t = np.arange(n) / FS
    expected = np.zeros(n, dtype=complex)
    expected[d:] = x[:-d] * np.exp(2j * np.pi * nu * (t[d:] - d / FS))
    assert np.allclose(out.samples, expected, atol=1e-10)


def test_two_taps_superpose():
    x = bandlimited_noise(512, seed=5)
    wf = make_waveform(x)
    t1 = ChannelTap(0.8 - 0.1j, 3.0 / FS, 500.0)
    t2 = ChannelTap(0.3 + 0.4j, 11.5 / FS, -300.0)
    both = apply_channel(wf, ChannelRealization(0, 1.0, [t1, t2]))
    one = apply_channel(wf, ChannelRealization(0, 1.0, [t1]))
    two = apply_channel(wf, ChannelRealization(0, 1.0, [t2]))
    assert np.allclose(both.samples, one.samples + two.samples, atol=1e-12)


def test_energy_preserved_single_unit_tap():
    x = bandlimited_noise(1024, seed=6)
    wf = make_waveform(x)
    out = apply_channel(wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, 0.0, 0.0)]))
    assert np.sum(np.abs(out.samples) ** 2) == pytest.approx(
        np.sum(np.abs(x) ** 2), rel=1e-9
    )
    # delayed tap: loss bounded by the truncated tail
    d = 25
    out_d = apply_channel(wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, d / FS, 0.0)]))
    lost = np.sum(np.abs(x) ** 2) - np.sum(np.abs(out_d.samples) ** 2)
    assert 0.0 <= lost <= d * np.max(np.abs(x)) ** 2 + 1e-9


def test_shift_covariance_zero_doppler():
    """Integer-sample input shifts commute with a zero-Doppler channel."""
    x = bandlimited_noise(512, seed=7)
    ch = ChannelRealization(0, 1.0, [ChannelTap(0.9, 13.25 / FS, 0.0)])
    s = 20
    shifted_in = np.concatenate([np.zeros(s), x[:-s]])
    a = apply_channel(make_waveform(shifted_in), ch).samples
    b = apply_channel(make_waveform(x), ch).samples
    b_shifted = np.concatenate([np.zeros(s), b[:-s]])
    # interior only: the shifted input lacks the original's final s samples
    sl = slice(s + 64, -(s + 64))
    assert np.allclose(a[sl], b_shifted[sl], atol=1e-10)


def test_delay_beyond_frame_rejected():
    wf = make_waveform(np.ones(64))
    with pytest.raises(ValueError):
        apply_channel(wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, 65.0 / FS, 0.0)]))


STACK_TAPS = {
    "zero_delay": [ChannelTap(0.8 - 0.3j, 0.0, 0.0)],
    "integer_delay": [ChannelTap(1.0, 7.0 / FS, 0.0), ChannelTap(0.5j, 40.0 / FS, 0.0)],
    "fractional": [ChannelTap(1.0, 3.37 / FS, 0.0), ChannelTap(-0.4, 11.81 / FS, 0.0)],
    "doppler": [
        ChannelTap(0.9, 0.0, 1250.0),
        ChannelTap(0.3 + 0.2j, 5.0 / FS, -800.0),
        ChannelTap(0.2, 9.5 / FS, 3100.0),
    ],
}


@pytest.mark.parametrize("kind", sorted(STACK_TAPS))
def test_stacked_rows_equal_single_calls(kind):
    rows = np.stack([bandlimited_noise(256, seed=s) for s in (20, 21, 22)])
    ch = ChannelRealization(0, 1.0, STACK_TAPS[kind])
    stacked = apply_channel(make_waveform(rows), ch)
    assert stacked.samples.shape == rows.shape
    for row, out in zip(rows, stacked.samples):
        assert np.array_equal(out, apply_channel(make_waveform(row), ch).samples)


def test_stacked_delay_range_still_checked():
    wf = make_waveform(np.ones((2, 64)))
    with pytest.raises(ValueError, match="exceeds the frame duration"):
        apply_channel(wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, 65.0 / FS, 0.0)]))
    with pytest.raises(ValueError, match=">= 0"):
        apply_channel(wf, ChannelRealization(0, 1.0, [ChannelTap(1.0, -1.0 / FS, 0.0)]))


def test_taps_sorted_by_delay():
    ch = ChannelRealization(
        0,
        1.0,
        [ChannelTap(0.5, 3e-6, 0.0), ChannelTap(1.0, 1e-6, 0.0)],
    )
    delays = [tap.delay_s for tap in ch.taps]
    assert delays == sorted(delays)
    assert ch.taps[0].gain == 1.0


def test_los_tag_margin():
    # echo 3 dB below the first tap -> comparable power -> NLoS
    near = ChannelRealization(
        0, 1.0, [ChannelTap(1.0, 0.0, 0.0), ChannelTap(10 ** (-3 / 20), 1e-6, 0.0)]
    )
    assert near.los_tag is False
    # echo 20 dB down -> LoS
    far = ChannelRealization(
        0, 1.0, [ChannelTap(1.0, 0.0, 0.0), ChannelTap(0.1, 1e-6, 0.0)]
    )
    assert far.los_tag is True
    single = ChannelRealization(0, 1.0, [ChannelTap(1.0, 0.0, 0.0)])
    assert single.los_tag is True


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_awgn_infinite_snr_passthrough():
    wf = make_waveform(bandlimited_noise(128, seed=8))
    assert np.array_equal(add_awgn(wf, math.inf, seed=1).samples, wf.samples)
    assert np.array_equal(add_awgn(wf, None, seed=1).samples, wf.samples)


def test_awgn_empirical_snr():
    n = 1_000_000
    rng = np.random.default_rng(9)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    wf = make_waveform(x)
    out = add_awgn(wf, 0.0, seed=10)
    noise = out.samples - x
    snr_db = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(snr_db) <= 0.1


def test_awgn_deterministic():
    wf = make_waveform(bandlimited_noise(256, seed=11))
    a = add_awgn(wf, 5.0, seed=42)
    b = add_awgn(wf, 5.0, seed=42)
    assert np.array_equal(a.samples, b.samples)


def test_awgn_zero_power_rejected():
    wf = make_waveform(np.zeros(16))
    with pytest.raises(ValueError):
        add_awgn(wf, 10.0, seed=0)


def test_absolute_noise_power():
    n = 500_000
    wf = make_waveform(np.zeros(n) + 1.0)
    out = add_noise_power(wf, 0.25, seed=12)
    noise_power = np.mean(np.abs(out.samples - wf.samples) ** 2)
    assert noise_power == pytest.approx(0.25, rel=0.01)


def test_stacked_noise_rows_equal_single_calls():
    # rows of different power: add_awgn scales per row, one draw is shared
    rows = np.stack([bandlimited_noise(256, seed=13), 3.0 * bandlimited_noise(256, seed=14)])
    stack = make_waveform(rows)
    awgn = add_awgn(stack, 5.0, seed=np.random.SeedSequence([1, 2]))
    absolute = add_noise_power(stack, 0.3, seed=np.random.SeedSequence([1, 2]))
    for i, row in enumerate(rows):
        single = make_waveform(row)
        expected = add_awgn(single, 5.0, seed=np.random.SeedSequence([1, 2])).samples
        assert np.array_equal(awgn.samples[i], expected)
        expected = add_noise_power(single, 0.3, seed=np.random.SeedSequence([1, 2])).samples
        assert np.array_equal(absolute.samples[i], expected)
    # both rows carry the same unit noise draw
    unit = (awgn.samples - rows) / np.sqrt(np.mean(np.abs(rows) ** 2, axis=1))[:, None]
    assert np.allclose(unit[0], unit[1], atol=1e-12)


def test_stacked_awgn_rejects_an_all_zero_row():
    wf = make_waveform(np.stack([np.ones(16), np.zeros(16)]))
    with pytest.raises(ValueError):
        add_awgn(wf, 10.0, seed=0)


# ---------------------------------------------------------------------------
# link budget
# ---------------------------------------------------------------------------

def test_received_power_value():
    # P_t = 0.1995 W, lambda = 0.16890 m, d = 100 m, 0 dB gains
    p_r = received_power(0.1995, 0.16890, 100.0)
    assert abs(p_r - 3.603e-9) <= 1e-12


def test_received_power_inverse_square():
    p1 = received_power(1.0, 0.2, 50.0)
    p2 = received_power(1.0, 0.2, 100.0)
    assert p1 == pytest.approx(4.0 * p2, rel=1e-12)


def test_received_power_squared_gain_product():
    base = received_power(1.0, 0.2, 100.0)
    gained = received_power(1.0, 0.2, 100.0, g_t_db=10.0, g_r_db=0.0)
    assert gained == pytest.approx(100.0 * base, rel=1e-12)
    friis = received_power(1.0, 0.2, 100.0, g_t_db=10.0, g_r_db=0.0, friis_gains=True)
    assert friis == pytest.approx(10.0 * base, rel=1e-12)


def test_received_power_requires_positive_distance():
    with pytest.raises(ValueError):
        received_power(1.0, 0.2, 0.0)


def test_channel_gain_arithmetic():
    lb = LinkBudget(p_r_db=-80.0, p_t_db=23.0, g_rmax_db=10.0, g_tmax_db=10.0)
    assert channel_gain(lb) == pytest.approx(10 ** (-12.3), rel=1e-12)
    lifted = LinkBudget(
        p_r_db=-80.0, p_t_db=23.0, g_rmax_db=10.0, g_tmax_db=10.0, ls_db=3.0
    )
    assert channel_gain(lifted) == pytest.approx(10 ** (-12.0), rel=1e-12)
    flat = LinkBudget(p_r_db=0.0, p_t_db=0.0, g_rmax_db=0.0, g_tmax_db=0.0)
    assert channel_gain(flat) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# tap files
# ---------------------------------------------------------------------------

def test_load_single_tap(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,30.0,0.0,0.0,1e-7,0.0\n"
    )
    realizations = load_taps(path)
    assert set(realizations) == {0}
    tap = realizations[0].taps[0]
    assert tap.gain == pytest.approx(1.0 + 0.0j)
    assert tap.delay_s == pytest.approx(1e-7)
    assert realizations[0].true_distance_m == 30.0


def test_load_sorts_out_of_order_delays(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,30.0,-3.0,0.0,5e-7,0.0\n"
        "0,30.0,0.0,0.0,1e-7,0.0\n"
    )
    realization = load_taps(path)[0]
    delays = [tap.delay_s for tap in realization.taps]
    assert delays == sorted(delays)
    assert abs(realization.taps[0].gain) == pytest.approx(1.0)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(TapFileError):
        load_taps(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,30.0,0.0,0.0,1e-7,0.0\n"
        "0,30.0,zero,0.0,1e-7,0.0\n"
    )
    with pytest.raises(TapFileError, match="line 3"):
        load_taps(path)


def test_load_rejects_negative_delay(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,30.0,0.0,0.0,-1e-7,0.0\n"
    )
    with pytest.raises(TapFileError, match="line 2"):
        load_taps(path)


def test_tap_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    realizations = {}
    for point in (0, 2, 5):
        taps = [
            ChannelTap(
                rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform()),
                rng.uniform(0.0, 1e-6),
                rng.uniform(-500.0, 500.0),
            )
            for _ in range(3)
        ]
        realizations[point] = ChannelRealization(point, 10.0 * point + 5.0, taps)
    path = tmp_path / "taps.csv"
    save_taps(path, list(realizations.values()))
    loaded = load_taps(path)
    assert set(loaded) == set(realizations)
    for point, original in realizations.items():
        again = loaded[point]
        assert again.true_distance_m == pytest.approx(original.true_distance_m)
        for a, b in zip(again.taps, original.taps):
            assert a.gain == pytest.approx(b.gain, rel=1e-9)
            assert a.delay_s == pytest.approx(b.delay_s, rel=1e-9)
            assert a.doppler_hz == pytest.approx(b.doppler_hz, rel=1e-9)


# ---------------------------------------------------------------------------
# synthetic scenario channel
# ---------------------------------------------------------------------------

def overhead_point(height=30.0, speed=0.0):
    return TrajectoryPoint(
        index=0,
        position=(0.0, 0.0, height),
        height_m=height,
        horizontal_offset_m=0.0,
        speed_mps=speed,
        elevation_deg=90.0,
    )


def test_overhead_stationary_single_los_tap():
    ch = synthesize_scenario_channel(
        overhead_point(), 1775e6, AntennaConfig(), tilt_deg=0.0
    )
    assert len(ch.taps) == 1
    assert ch.taps[0].delay_s == pytest.approx(30.0 / 299792458.0, rel=1e-12)
    assert ch.taps[0].doppler_hz == 0.0
    assert ch.los_tag is True


def test_doppler_for_motion_aligned_path():
    # target far ahead along the flight direction: radial speed ~ +v
    point = TrajectoryPoint(
        index=0,
        position=(-1000.0, 0.0, 1e-6),
        height_m=1e-6,
        horizontal_offset_m=-1000.0,
        speed_mps=10.0,
        elevation_deg=0.0,
    )
    ch = synthesize_scenario_channel(point, 1775e6, AntennaConfig(), tilt_deg=0.0)
    assert ch.taps[0].doppler_hz == pytest.approx(59.2, abs=0.1)


def test_nlos_spec_adds_taps_sorted():
    from ddprach import NlosSpec

    ch = synthesize_scenario_channel(
        overhead_point(),
        1775e6,
        AntennaConfig(),
        tilt_deg=0.0,
        nlos=NlosSpec(count=3),
        seed=0,
    )
    assert len(ch.taps) == 4
    delays = [tap.delay_s for tap in ch.taps]
    assert delays == sorted(delays)
    assert delays[0] == pytest.approx(30.0 / 299792458.0, rel=1e-12)


def test_synthesis_deterministic_per_seed():
    from ddprach import NlosSpec

    kwargs = dict(
        carrier_hz=1775e6, antenna=AntennaConfig(), tilt_deg=5.0, nlos=NlosSpec()
    )
    a = synthesize_scenario_channel(overhead_point(), seed=77, **kwargs)
    b = synthesize_scenario_channel(overhead_point(), seed=77, **kwargs)
    assert [(t.gain, t.delay_s, t.doppler_hz) for t in a.taps] == [
        (t.gain, t.delay_s, t.doppler_hz) for t in b.taps
    ]


def test_doppler_scale_multiplies_all_taps():
    point = TrajectoryPoint(
        index=0,
        position=(-40.0, 0.0, 30.0),
        height_m=30.0,
        horizontal_offset_m=-40.0,
        speed_mps=10.0,
        elevation_deg=math.degrees(math.atan2(30.0, 40.0)),
    )
    base = synthesize_scenario_channel(point, 1775e6, AntennaConfig(), tilt_deg=0.0)
    scaled = synthesize_scenario_channel(
        point, 1775e6, AntennaConfig(), tilt_deg=0.0, doppler_scale=3.0
    )
    assert scaled.taps[0].doppler_hz == pytest.approx(3.0 * base.taps[0].doppler_hz)
