"""Tapped delay-Doppler channel, AWGN, received power, and tap file I/O."""

import cmath
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddprach import (
    ChannelRealization,
    ChannelTap,
    TapFileError,
    WaveformParams,
    add_awgn,
    add_noise_power,
    apply_channel,
    load_taps,
    received_power,
    save_taps,
    synthesize_scenario_channel,
    transmit,
    write_rows,
)
from ddprach import channel
from ddprach.uav_scenario import AntennaConfig, TrajectoryPoint

FS = 1e6  # test sample rate, Hz
# framing of the plain test rows: FS samples/s and a 64-sample period, which
# no random row repeats, so their spans are filtered whole
PARAMS = WaveformParams(delta_f_hz=FS / 64, n_dft=64, m=32, n_zc=31, cp_len=0)


def framing(n_dft, cp_len):
    """Preamble framing of ``n_dft + cp_len``-sample symbols at 15 kHz spacing."""
    return WaveformParams(n_dft=n_dft, cp_len=cp_len, m=n_dft // 2, n_zc=13)


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
    x = bandlimited_noise(256, seed=0)
    ch = ChannelRealization(0, 1.0, [ChannelTap(1.0, 0.0, 0.0)])
    out = apply_channel(PARAMS, ch, x)
    assert np.allclose(out, x, atol=1e-12)


def test_integer_delay_is_exact_shift():
    x = bandlimited_noise(256, seed=1)
    ch = ChannelRealization(0, 1.0, [ChannelTap(1.0, 7.0 / FS, 0.0)])
    out = apply_channel(PARAMS, ch, x)
    assert np.allclose(out[:7], 0.0, atol=1e-12)
    assert np.allclose(out[7:], x[:-7], atol=1e-12)


def test_fractional_delay_matches_fd_oracle():
    n = 4096
    x = bandlimited_noise(n, seed=2)
    delay = 11.37  # samples
    ch = ChannelRealization(0, 1.0, [ChannelTap(1.0, delay / FS, 0.0)])
    out = apply_channel(PARAMS, ch, x)
    expected = fd_fractional_delay(x, delay)
    # compare away from the edges (linear vs cyclic semantics, kernel tails)
    lo, hi = 64, n - 64
    err = np.linalg.norm(out[lo:hi] - expected[lo:hi])
    ref = np.linalg.norm(expected[lo:hi])
    assert err / ref < 1e-3


def test_doppler_phase_rotation():
    n = 512
    x = bandlimited_noise(n, seed=3)
    nu = 1234.5  # Hz
    out = apply_channel(PARAMS, ChannelRealization(0, 1.0, [ChannelTap(1.0, 0.0, nu)]), x)
    t = np.arange(n) / FS
    assert np.allclose(out, x * np.exp(2j * np.pi * nu * t), atol=1e-10)


def test_doppler_phase_anchored_at_delay():
    """Tap phase follows exp(j 2 pi nu (t - tau)) for a delayed tap."""
    n = 512
    x = bandlimited_noise(n, seed=4)
    nu, d = 2000.0, 9
    out = apply_channel(
        PARAMS, ChannelRealization(0, 1.0, [ChannelTap(1.0, d / FS, nu)]), x
    )
    t = np.arange(n) / FS
    expected = np.zeros(n, dtype=complex)
    expected[d:] = x[:-d] * np.exp(2j * np.pi * nu * (t[d:] - d / FS))
    assert np.allclose(out, expected, atol=1e-10)


def test_two_taps_superpose():
    x = bandlimited_noise(512, seed=5)
    t1 = ChannelTap(0.8 - 0.1j, 3.0 / FS, 500.0)
    t2 = ChannelTap(0.3 + 0.4j, 11.5 / FS, -300.0)
    both = apply_channel(PARAMS, ChannelRealization(0, 1.0, [t1, t2]), x)
    one = apply_channel(PARAMS, ChannelRealization(0, 1.0, [t1]), x)
    two = apply_channel(PARAMS, ChannelRealization(0, 1.0, [t2]), x)
    assert np.allclose(both, one + two, atol=1e-12)


def test_energy_preserved_single_unit_tap():
    x = bandlimited_noise(1024, seed=6)
    unit = ChannelRealization(0, 1.0, [ChannelTap(1.0, 0.0, 0.0)])
    out = apply_channel(PARAMS, unit, x)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(
        np.sum(np.abs(x) ** 2), rel=1e-9
    )
    # delayed tap: loss bounded by the truncated tail
    d = 25
    delayed = ChannelRealization(0, 1.0, [ChannelTap(1.0, d / FS, 0.0)])
    out_d = apply_channel(PARAMS, delayed, x)
    lost = np.sum(np.abs(x) ** 2) - np.sum(np.abs(out_d) ** 2)
    assert 0.0 <= lost <= d * np.max(np.abs(x)) ** 2 + 1e-9


def test_shift_covariance_zero_doppler():
    """Integer-sample input shifts commute with a zero-Doppler channel."""
    x = bandlimited_noise(512, seed=7)
    ch = ChannelRealization(0, 1.0, [ChannelTap(0.9, 13.25 / FS, 0.0)])
    s = 20
    shifted_in = np.concatenate([np.zeros(s), x[:-s]])
    a = apply_channel(PARAMS, ch, shifted_in)
    b = apply_channel(PARAMS, ch, x)
    b_shifted = np.concatenate([np.zeros(s), b[:-s]])
    # interior only: the shifted input lacks the original's final s samples
    sl = slice(s + 64, -(s + 64))
    assert np.allclose(a[sl], b_shifted[sl], atol=1e-10)


def test_delay_beyond_frame_rejected():
    ch = ChannelRealization(0, 1.0, [ChannelTap(1.0, 65.0 / FS, 0.0)])
    with pytest.raises(ValueError):
        apply_channel(PARAMS, ch, np.ones(64))


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
    stacked = apply_channel(PARAMS, ch, rows)
    assert stacked.shape == rows.shape
    for row, out in zip(rows, stacked):
        assert np.array_equal(out, apply_channel(PARAMS, ch, row))


def test_stacked_delay_range_still_checked():
    rows = np.ones((2, 64))
    late = ChannelRealization(0, 1.0, [ChannelTap(1.0, 65.0 / FS, 0.0)])
    with pytest.raises(ValueError, match="exceeds the frame duration"):
        apply_channel(PARAMS, late, rows)
    early = ChannelRealization(0, 1.0, [ChannelTap(1.0, -1.0 / FS, 0.0)])
    with pytest.raises(ValueError, match=">= 0"):
        apply_channel(PARAMS, early, rows)


def seed_formula_channel(rows, taps, fs=FS):
    """Oracle: per row, full-row 64-tap convolution and one exp per sample."""
    n = rows.shape[-1]
    t = np.arange(n) / fs
    lags = np.arange(-31, 33)
    window = np.kaiser(64, 8.6)
    out = np.zeros_like(rows)
    for tap in taps:
        delay = tap.delay_s * fs
        n0 = math.floor(delay)
        mu = delay - n0
        on_grid = mu < 1e-12 or mu > 1.0 - 1e-12
        if on_grid:
            n0 = round(delay)
        phasor = tap.gain * np.exp(2j * np.pi * tap.doppler_hz * (t - tap.delay_s))
        for row, acc in zip(rows, out):
            if on_grid:
                delayed = row
            else:
                delayed = np.convolve(row, np.sinc(lags - mu) * window)[31:]
            acc[n0:] += phasor[n0:] * delayed[: n - n0]
    return out


def span_row(n, first, stop, seed):
    row = np.zeros(n, dtype=complex)
    row[first:stop] = bandlimited_noise(stop - first, seed)
    return row


TRIM_CASES = {
    # nonzero span with zero head and zero tail, one near each frame edge
    "zero_head_and_tail": (
        [span_row(500, 100, 300, 30), span_row(500, 5, 480, 31)],
        [ChannelTap(0.7 + 0.2j, 7.3 / FS, 900.0), ChannelTap(0.4, 20.81 / FS, -300.0)],
    ),
    "all_zero_row_beside_nonzero": (
        [np.zeros(400, dtype=complex), bandlimited_noise(400, 32)],
        [ChannelTap(1.0, 3.6 / FS, 500.0), ChannelTap(0.5j, 11.0 / FS, 0.0)],
    ),
    # the delayed span (and the kernel tail) runs past the frame end
    "span_past_frame_end": (
        [span_row(500, 300, 500, 33), span_row(500, 420, 470, 34)],
        [ChannelTap(1.0, 37.6 / FS, 1500.0), ChannelTap(0.3, 40.0 / FS, -700.0),
         ChannelTap(0.2, 75.2 / FS, 0.0)],
    ),
    # the second tap delays the whole short span, kernel head included,
    # past the frame end
    "span_wholly_past_frame_end": (
        [span_row(500, 480, 495, 38)],
        [ChannelTap(0.8 - 0.3j, 7.3 / FS, 1200.0), ChannelTap(0.5, 60.4 / FS, -400.0)],
    ),
    "on_grid_tap_on_trimmed_row": (
        [span_row(300, 40, 90, 35)],
        [ChannelTap(0.9 - 0.1j, 12.0 / FS, 2200.0)],
    ),
    "doppler_frame_not_multiple_of_64": (
        [bandlimited_noise(777, 36), span_row(777, 65, 700, 37)],
        [ChannelTap(1.0, 0.0, 2500.0), ChannelTap(0.6, 9.45 / FS, -900.0),
         ChannelTap(0.2j, 130.0 / FS, 3100.0)],
    ),
}


@pytest.mark.parametrize("case", sorted(TRIM_CASES))
def test_span_trimmed_channel_matches_seed_formula(case):
    rows, taps = TRIM_CASES[case]
    rows = np.stack(rows)
    ch = ChannelRealization(0, 1.0, taps)
    got = apply_channel(PARAMS, ch, rows)
    expected = seed_formula_channel(rows, ch.taps)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    for row, out in zip(rows, got):
        if not row.any():
            assert not out.any()


def _reference_apply(params, realization, x):
    """Oracle: ``apply_channel`` before periodic rows were filtered once.

    Every row's whole nonzero span goes through one convolution per tap.
    """
    fs = params.sample_rate
    n = x.shape[-1]
    delays = [
        (tap, *channel._tap_delay(channel.check_tap_delay(tap, fs, n))) for tap in realization.taps
    ]
    rows = x.reshape(-1, n)
    out = np.zeros_like(rows)
    for row, acc in zip(rows, out):
        nonzero = row != 0
        if not nonzero.any():
            continue
        first = int(nonzero.argmax())
        stop = n - int(nonzero[::-1].argmax())
        span = row[first:stop]
        parts = np.concatenate((span.real, channel._INTERP_GAP, span.imag))
        for tap, n0, kernel in delays:
            _reference_add_tap(acc, parts, first, stop, tap, n0, kernel, fs)
    return out.reshape(x.shape)


def _reference_add_tap(acc, parts, first, stop, tap, n0, kernel, fs):
    lead = (kernel.size - 1) // 2
    start = max(first - lead, 0)
    end = min(stop + kernel.size - 1 - lead, acc.size - n0)
    if end <= start:
        return
    phasor = channel._doppler_phasor(tap, fs, acc.size)[n0 + start : n0 + end]
    filtered = np.convolve(parts, kernel)
    skip = start + lead - first
    imag = skip + parts.size - (stop - first)
    delayed = np.empty(end - start, dtype=complex)
    delayed.real = filtered[skip : skip + delayed.size]
    delayed.imag = filtered[imag : imag + delayed.size]
    phasor *= delayed
    acc[n0 + start : n0 + end] += phasor


def preamble_rows(**framing):
    """The ``otfs`` and ``ofdm`` preambles of one framing, as a stack."""
    rows = [transmit(WaveformParams(modulation=m, **framing)) for m in ("otfs", "ofdm")]
    return np.stack(rows)


def repeated_row(n_dft, cp_len, n, seed, lead=0, trail=0):
    """``n`` copies of one random CP-OFDM-like symbol between zero edges."""
    body = bandlimited_noise(n_dft, seed)
    symbol = np.concatenate((body[n_dft - cp_len :], body))
    return np.concatenate((np.zeros(lead, complex), np.tile(symbol, n), np.zeros(trail, complex)))


TOY = dict(n_dft=64, m=32, n_zc=31)
DEFAULT_TAPS = [
    ChannelTap(0.8 + 0.3j, 100.3 / 30.72e6, 1500.0),
    ChannelTap(-0.3, 141.71 / 30.72e6, -700.0),
    ChannelTap(0.2j, 350.0 / 30.72e6, 0.0),
]
TOY_FS = 15e3 * 64
TOY_TAPS = [ChannelTap(0.9, 3.4 / TOY_FS, 900.0), ChannelTap(0.4j, 17.85 / TOY_FS, -2500.0)]
ROW = repeated_row(64, 8, 4, seed=40)  # period 72, span 288
CHANGED_ROW = ROW.copy()
CHANGED_ROW[200] *= 1 + 1e-15  # one bit pattern off, in the third period
# sample 28 of each period is zero, and -0.0 in the third period only
SIGNED_ZERO_ROW = ROW.copy()
SIGNED_ZERO_ROW[28::72] = 0.0
SIGNED_ZERO_ROW[172] = complex(-0.0, 0.0)

# case -> (rows, n_dft, cp_len, taps); rows with a span that repeats every
# n_dft + cp_len samples take the head/copy/tail path, the others do not
PERIODIC_CASES = {
    "default_preambles": (preamble_rows(), 2048, 256, DEFAULT_TAPS),
    "toy_preambles_n4": (preamble_rows(n=4, **TOY), 64, 8, TOY_TAPS),
    "toy_preambles_n2": (preamble_rows(n=2, **TOY), 64, 8, TOY_TAPS),
    "toy_preambles_n1": (preamble_rows(n=1, **TOY), 64, 8, TOY_TAPS),
    "zero_edges_and_repeat": (
        [repeated_row(64, 8, 5, seed=41, lead=30, trail=17)], 64, 8, TOY_TAPS
    ),
    "one_sample_changed": ([CHANGED_ROW], 64, 8, TOY_TAPS),
    "minus_zero_against_plus_zero": ([SIGNED_ZERO_ROW], 64, 8, TOY_TAPS),
    "on_grid_tap": ([ROW], 64, 8, [ChannelTap(0.7 - 0.2j, 12.0 / TOY_FS, 1800.0)]),
    # cut at the frame end in the copied stretch, in the head and in the tail
    "span_past_frame_end": (
        [ROW],
        64,
        8,
        [ChannelTap(1.0, 130.6 / TOY_FS, 400.0), ChannelTap(0.5, 250.3 / TOY_FS, 0.0),
         ChannelTap(0.3, 20.5 / TOY_FS, -900.0), ChannelTap(0.2, 287.0 / TOY_FS, 0.0)],
    ),
    "doppler_only": ([ROW], 64, 8, [ChannelTap(1.0, 0.0, 3300.0), ChannelTap(0.5, 0.0, -40.0)]),
}


@pytest.mark.parametrize("case", sorted(PERIODIC_CASES))
def test_periodic_rows_match_reference_bit_for_bit(case):
    rows, n_dft, cp_len, taps = PERIODIC_CASES[case]
    params, rows = framing(n_dft, cp_len), np.stack(rows)
    ch = ChannelRealization(0, 1.0, taps)
    got = apply_channel(params, ch, rows)
    expected = _reference_apply(params, ch, rows)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_repeat_detection_compares_bits():
    period = 72
    assert channel._repeats(ROW, period)
    assert not channel._repeats(ROW, period + 1)
    assert not channel._repeats(CHANGED_ROW, period)
    assert np.array_equal(SIGNED_ZERO_ROW[period:], SIGNED_ZERO_ROW[:-period])  # as numbers
    assert not channel._repeats(SIGNED_ZERO_ROW, period)
    # the ofdm preamble takes the copying path; two periods are the least
    assert channel._repeats(PERIODIC_CASES["default_preambles"][0][1], 2048 + 256)
    assert channel._repeats(PERIODIC_CASES["toy_preambles_n2"][0][1], period)
    assert channel._repeats(ROW[: 2 * period], period)
    assert not channel._repeats(ROW[: period + channel._REACH], period)


@pytest.mark.parametrize("tap", DEFAULT_TAPS, ids=["fractional", "fractional_2", "on_grid"])
def test_one_convolution_per_row_span_per_tap(tap, convolutions):
    # the README default's otfs row, filtered whole, and its ofdm row, whose
    # head and tail share one operand
    rows, n_dft, cp_len, _ = PERIODIC_CASES["default_preambles"]
    apply_channel(framing(n_dft, cp_len), ChannelRealization(0, 1.0, [tap]), rows)
    assert len(convolutions) == 2


def dirty_buffers(samples):
    """Buffers for ``samples`` whose every own array holds NaN, so stale
    contents would show."""
    buffers = channel.FrameBuffers(samples)
    for name, value in vars(buffers).items():
        if isinstance(value, np.ndarray) and name != "samples":
            value.fill(np.nan)
    return buffers


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


STACK_ROWS = np.stack([bandlimited_noise(256, seed=s) for s in (20, 21, 22)])
# case -> (params, samples, taps): the oracle cases above, on one row and on stacks
BUFFER_CASES = {
    **{f"single_{kind}": (PARAMS, STACK_ROWS[0], taps) for kind, taps in STACK_TAPS.items()},
    **{f"stack_{kind}": (PARAMS, STACK_ROWS, taps) for kind, taps in STACK_TAPS.items()},
    **{f"trim_{case}": (PARAMS, np.stack(rows), taps) for case, (rows, taps) in TRIM_CASES.items()},
    **{
        f"periodic_{case}": (framing(n_dft, cp_len), np.stack(rows), taps)
        for case, (rows, n_dft, cp_len, taps) in PERIODIC_CASES.items()
    },
}


@pytest.mark.parametrize("case", sorted(BUFFER_CASES))
def test_buffered_channel_matches_fresh_call(case):
    params, x, taps = BUFFER_CASES[case]
    ch = ChannelRealization(0, 1.0, taps)
    buffers = dirty_buffers(x)
    got = apply_channel(params, ch, x, buffers=buffers)
    assert got is buffers.frames
    assert same_bits(got, apply_channel(params, ch, x))


def test_buffered_channel_calls_do_not_leak_state():
    params, x, _ = BUFFER_CASES["periodic_default_preambles"]
    # the second channel reaches fewer samples than the first: a stale tail
    # of the first output would show
    first = ChannelRealization(0, 1.0, DEFAULT_TAPS)
    second = ChannelRealization(1, 1.0, [ChannelTap(0.5 - 0.1j, 7.25 / params.sample_rate, 640.0)])
    buffers = dirty_buffers(x)
    for ch in (first, second, first):
        got = apply_channel(params, ch, x, buffers=buffers)
        assert same_bits(got, apply_channel(params, ch, x))


@pytest.mark.parametrize("case", sorted(BUFFER_CASES))
def test_planned_channel_matches_unplanned_call(case, convolutions):
    params, x, taps = BUFFER_CASES[case]
    fs = params.sample_rate
    buffers = dirty_buffers(x)
    assert buffers.samples is x and buffers.rows is None
    # one set of buffers serves passes that reuse the row plan of the first
    # and, where a tap's delay in samples is unchanged, its filtered spans
    a = ChannelRealization(0, 1.0, taps)
    # a's delays with other gains and Dopplers
    b = ChannelRealization(
        1, 1.0, [ChannelTap(0.6j * t.gain, t.delay_s, 0.5 * t.doppler_hz - 300.0) for t in taps]
    )
    # other delays, one of them on the sample grid, and one tap more
    c = ChannelRealization(
        2,
        1.0,
        [ChannelTap(0.4 - 0.2j, 3.0 / fs, 640.0)]
        + [ChannelTap(t.gain, t.delay_s + 0.5 / fs, t.doppler_hz) for t in taps],
    )
    other_rate = replace(params, delta_f_hz=0.5 * params.delta_f_hz)
    plans = []
    # pass -> (channel, params, filters as much as a fresh call (True), not
    # at all (False) or not counted (None)); a's second pass, a hit right
    # after a hit, shows a stored copy that the pass before it changed
    for ch, p, filters_all in [
        (a, params, True), (b, params, False), (a, params, False), (c, params, True),
        (a, params, True), (a, other_rate, None),
    ]:
        expected = apply_channel(p, ch, x)
        fresh = len(convolutions)
        convolutions.clear()
        assert same_bits(apply_channel(p, ch, x, buffers=buffers), expected)
        if filters_all is not None:
            assert len(convolutions) == (fresh if filters_all else 0)
        convolutions.clear()
        plans.append(buffers.rows)
    assert all(plan is plans[0] for plan in plans)
    assert len(buffers.taps) == len(c.taps)


@pytest.mark.parametrize("case", sorted(BUFFER_CASES))
def test_one_plan_serves_every_framing(case, convolutions):
    params, x, taps = BUFFER_CASES[case]
    ch = ChannelRealization(0, 1.0, taps)
    # a plan's span copies outputs only at the period it was found to repeat
    # with, so a plan made at one cp_len is exact at another; cp_len moves no
    # tap's delay in samples, so the second call filters nothing
    for k in (1, -1, 7, -7):
        if params.cp_len + k < 0:
            continue
        other = replace(params, cp_len=params.cp_len + k)
        for first, second in [(params, other), (other, params)]:
            expected = apply_channel(second, ch, x)
            buffers = dirty_buffers(x)
            apply_channel(first, ch, x, buffers=buffers)
            plan = buffers.rows
            convolutions.clear()
            assert same_bits(apply_channel(second, ch, x, buffers=buffers), expected)
            assert not convolutions
            assert buffers.rows is plan


def test_buffers_from_another_array_or_framing_raise():
    params, x, _ = BUFFER_CASES["periodic_toy_preambles_n4"]
    ch = ChannelRealization(0, 1.0, TOY_TAPS)
    buffers = channel.FrameBuffers(x)
    # the first pass plans the rows; another framing may reuse them (see
    # test_one_plan_serves_every_framing), another array may not
    apply_channel(params, ch, x, buffers=buffers)
    other_shape = channel.FrameBuffers(x[:1])
    for other, other_buffers in [
        (x.copy(), buffers),
        # the buffers' own output stack as the input: it can never be
        # overwritten while it is read
        (buffers.frames, buffers),
        (x, other_shape),
    ]:
        with pytest.raises(ValueError, match="another array"):
            apply_channel(params, ch, other, buffers=other_buffers)


def test_plan_skips_all_zero_rows():
    rows, _ = TRIM_CASES["all_zero_row_beside_nonzero"]
    plan = channel._row_plan(np.stack(rows), 0)
    assert [(row, first, stop) for row, first, stop, *_ in plan] == [(1, 0, 400)]


NOISE_CALLS = {
    "awgn": lambda x, **kw: add_awgn(x, 5.0, seed=np.random.SeedSequence([1, 2]), **kw),
    "awgn_noiseless": lambda x, **kw: add_awgn(x, None, seed=1, **kw),
    "noise_power": lambda x, **kw: add_noise_power(x, 0.3, seed=np.random.SeedSequence([3]), **kw),
}
NOISE_ROWS = np.stack([bandlimited_noise(256, seed=13), 3.0 * bandlimited_noise(256, seed=14)])


@pytest.mark.parametrize("call", sorted(NOISE_CALLS))
@pytest.mark.parametrize("rows", [NOISE_ROWS, NOISE_ROWS[1]], ids=["stack", "single"])
@pytest.mark.parametrize("in_place", [False, True], ids=["copied", "in_place"])
def test_buffered_noise_matches_fresh_call(call, rows, in_place):
    add = NOISE_CALLS[call]
    expected = add(rows)
    buffers = dirty_buffers(rows)
    if in_place:
        # the input is the buffers' own frame stack, as after apply_channel
        buffers.frames[...] = rows
        x = buffers.frames
    else:
        x = rows.copy()
    got = add(x, buffers=buffers)
    assert got is buffers.frames
    assert same_bits(got, expected)
    if not in_place:
        assert np.array_equal(x, rows)


@pytest.mark.parametrize("seed", range(20))
def test_noise_draw_is_real_then_imaginary_draw(seed):
    # one 2L draw split in halves is the a + 1j*b of two L draws, bit for bit
    rng = np.random.default_rng(seed)
    expected = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    got = add_noise_power(np.zeros(300), 2.0, seed=seed)
    assert same_bits(got, expected)


@pytest.mark.parametrize("rows", [NOISE_ROWS, NOISE_ROWS[1]], ids=["stack", "single"])
def test_drawn_noise_row_matches_seeded_call(rows, rng_seeds):
    def seed():
        return np.random.SeedSequence([5, 2, 1, 0])

    adds = (
        lambda s, **kw: add_awgn(rows, 5.0, s, **kw),
        lambda s, **kw: add_noise_power(rows, 0.3, s, **kw),
    )
    expected = [add(seed()) for add in adds]
    unit = add_noise_power(np.zeros(rows.shape[-1]), 2.0, seed=seed())
    buffers = dirty_buffers(rows)
    shared = seed()
    rng_seeds.clear()
    # the same SeedSequence on the same buffers serves several calls, bit for
    # bit a fresh call's, and draws once
    for _ in range(2):
        for add, fresh in zip(adds, expected):
            assert same_bits(add(shared, buffers=buffers), fresh)
    assert rng_seeds == [shared]
    assert same_bits(buffers.unit, unit)
    # an equal-entropy but different SeedSequence draws again, the same bits
    other = seed()
    assert same_bits(adds[0](other, buffers=buffers), expected[0])
    assert rng_seeds == [shared, other]
    # None and a Generator draw on every call: fresh entropy, or the
    # generator's next values
    reference = np.random.default_rng(7)
    draws = [adds[1](reference).copy() for _ in range(2)]
    assert not np.array_equal(*draws)
    rng_seeds.clear()
    first, second = (adds[1](None, buffers=buffers).copy() for _ in range(2))
    assert not np.array_equal(first, second)
    generator = np.random.default_rng(7)
    for fresh in draws:
        assert same_bits(adds[1](generator, buffers=buffers), fresh)
    assert rng_seeds == [None, None, generator, generator]
    # an int draws the same bits again, and so does the shared seed after
    # other seeds
    rng_seeds.clear()
    assert same_bits(adds[1](3, buffers=buffers).copy(), adds[1](3, buffers=buffers))
    assert same_bits(adds[0](shared, buffers=buffers), expected[0])
    assert rng_seeds == [3, 3, shared]


def test_noise_row_checked():
    x = NOISE_ROWS
    with pytest.raises(ValueError, match="shape"):
        add_awgn(x, 5.0, seed=1, buffers=channel.FrameBuffers(NOISE_ROWS[0]))


def test_taps_sorted_by_delay():
    ch = ChannelRealization(
        0,
        1.0,
        [ChannelTap(0.5, 3e-6, 0.0), ChannelTap(1.0, 1e-6, 0.0)],
    )
    delays = [tap.delay_s for tap in ch.taps]
    assert delays == sorted(delays)
    assert ch.taps[0].gain == 1.0


def test_realization_needs_a_tap():
    with pytest.raises(ValueError, match="at least one tap"):
        ChannelRealization(0, 1.0, [])


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
    x = bandlimited_noise(128, seed=8)
    assert np.array_equal(add_awgn(x, math.inf, seed=1), x)
    assert np.array_equal(add_awgn(x, None, seed=1), x)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_awgn_rejects_nan_and_minus_infinity(snr_db):
    # -inf asks for infinite noise and NaN for nothing defined: neither may
    # pass the waveform through noiseless or return NaN samples
    x = bandlimited_noise(128, seed=8)
    with pytest.raises(ValueError, match="snr_db"):
        add_awgn(x, snr_db, seed=1)


@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf, -0.1, [0.3, math.nan]])
def test_noise_power_rejects_non_finite_and_negative(power):
    # a scalar or per-row power, bad in any row, never yields non-finite frames
    with pytest.raises(ValueError, match="noise power"):
        add_noise_power(NOISE_ROWS, power, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_awgn_rejects_a_non_finite_sample(bad, row):
    x = NOISE_ROWS.copy()
    x[row, 17] = bad
    with pytest.raises(ValueError, match="noise power"):
        add_awgn(x, 5.0, seed=1)
    with pytest.raises(ValueError, match="noise power"):
        add_awgn(x[row], 5.0, seed=1)


@pytest.mark.parametrize("rows", [NOISE_ROWS, NOISE_ROWS[1]], ids=["stack", "single"])
@pytest.mark.parametrize("snr_db", [-20.0, 5.0, 30.0])
def test_awgn_scales_noise_to_the_abs_power(rows, snr_db):
    # the signal power, a dot product of each row's float view, is the mean
    # of |x|^2 to rounding: the noise the SNR sets is the same
    seed = np.random.SeedSequence([4, 4])
    unit = add_noise_power(np.zeros(rows.shape[-1]), 2.0, seed=seed)
    noise = add_awgn(rows, snr_db, seed=seed) - rows
    for signal, added in zip(np.atleast_2d(rows), np.atleast_2d(noise)):
        expected = np.mean(np.abs(signal) ** 2) * 10.0 ** (-snr_db / 10.0)
        # the unit row carries a power of 2
        power = 2.0 * np.vdot(added, added).real / np.vdot(unit, unit).real
        assert power == pytest.approx(expected, rel=1e-12)


def test_awgn_bits_do_not_follow_the_blas_thread_count():
    # OpenBLAS splits a ddot of more than 10000 values over its threads, so a
    # signal power summed there would change its last bits with the count
    code = (
        "import hashlib, numpy as np\n"
        "from ddprach import add_awgn\n"
        "rng = np.random.default_rng(5)\n"
        "digest = hashlib.sha256()\n"
        "for _ in range(20):\n"
        "    x = rng.standard_normal((2, 9216)) + 1j * rng.standard_normal((2, 9216))\n"
        "    digest.update(add_awgn(x, 5.0, seed=1).tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(run.stdout)
    assert len(digests) == 1


def test_awgn_empirical_snr():
    n = 1_000_000
    rng = np.random.default_rng(9)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = add_awgn(x, 0.0, seed=10)
    noise = out - x
    snr_db = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(snr_db) <= 0.1


def test_awgn_deterministic():
    x = bandlimited_noise(256, seed=11)
    a = add_awgn(x, 5.0, seed=42)
    b = add_awgn(x, 5.0, seed=42)
    assert np.array_equal(a, b)


def test_awgn_zero_power_rejected():
    x = np.zeros(16)
    with pytest.raises(ValueError):
        add_awgn(x, 10.0, seed=0)


def test_absolute_noise_power():
    n = 500_000
    x = np.zeros(n) + 1.0
    out = add_noise_power(x, 0.25, seed=12)
    noise_power = np.mean(np.abs(out - x) ** 2)
    assert noise_power == pytest.approx(0.25, rel=0.01)


def test_stacked_noise_rows_equal_single_calls():
    # rows of different power: add_awgn scales per row, one draw is shared
    rows = np.stack([bandlimited_noise(256, seed=13), 3.0 * bandlimited_noise(256, seed=14)])
    awgn = add_awgn(rows, 5.0, seed=np.random.SeedSequence([1, 2]))
    absolute = add_noise_power(rows, 0.3, seed=np.random.SeedSequence([1, 2]))
    for i, row in enumerate(rows):
        expected = add_awgn(row, 5.0, seed=np.random.SeedSequence([1, 2]))
        assert np.array_equal(awgn[i], expected)
        expected = add_noise_power(row, 0.3, seed=np.random.SeedSequence([1, 2]))
        assert np.array_equal(absolute[i], expected)
    # both rows carry the same unit noise draw
    unit = (awgn - rows) / np.sqrt(np.mean(np.abs(rows) ** 2, axis=1))[:, None]
    assert np.allclose(unit[0], unit[1], atol=1e-12)


def test_stacked_awgn_rejects_an_all_zero_row():
    for zero in range(2):
        x = np.ones((2, 16))
        x[zero] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            add_awgn(x, 10.0, seed=0)


# ---------------------------------------------------------------------------
# received power
# ---------------------------------------------------------------------------

def test_received_power_value():
    # P_t = 0.1995 W, lambda = 0.16890 m, d = 100 m, 0 dB gains
    p_r = received_power(0.1995, 0.16890, 100.0)
    assert abs(p_r - 3.603e-9) <= 1e-12


def test_received_power_inverse_square():
    p1 = received_power(1.0, 0.2, 50.0)
    p2 = received_power(1.0, 0.2, 100.0)
    assert p1 == pytest.approx(4.0 * p2, rel=1e-12)


def test_received_power_friis_gain_product():
    # Friis multiplies the linear power gains once: 10 dB on either side is 10x
    base = received_power(1.0, 0.2, 100.0)
    for g_t_db, g_r_db in ((10.0, 0.0), (0.0, 10.0), (5.0, 5.0)):
        gained = received_power(1.0, 0.2, 100.0, g_t_db=g_t_db, g_r_db=g_r_db)
        assert gained == pytest.approx(10.0 * base, rel=1e-12)


def test_received_power_requires_positive_distance():
    with pytest.raises(ValueError):
        received_power(1.0, 0.2, 0.0)


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


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text("")
    with pytest.raises(TapFileError, match="line 1: expected header"):
        load_taps(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "taps.csv"
    # a blank line between the rows and a trailing one ended by \r\n
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,30.0,0.0,0.0,1e-7,0.0\n"
        "\n"
        "0,30.0,-3.0,0.0,5e-7,0.0\n"
        "\r\n",
        newline="",
    )
    assert [tap.delay_s for tap in load_taps(path)[0].taps] == [1e-7, 5e-7]


def test_load_rejects_short_row(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,30.0,0.0,0.0,1e-7,0.0\n"
        "0,30.0,0.0,0.0,1e-7\n"
    )
    with pytest.raises(TapFileError, match="line 3: expected 6 fields, got 5"):
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


@pytest.mark.parametrize("gain_db", ["nan", "inf", "-inf", "-10000", "1e5", "301"])
def test_load_rejects_non_finite_and_zero_gains(tmp_path, gain_db):
    path = tmp_path / "taps.csv"
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        f"0,30.0,{gain_db},0.0,1e-7,0.0\n"
    )
    with pytest.raises(TapFileError, match="line 2"):
        load_taps(path)


def test_load_rejects_rows_of_a_point_that_disagree_on_distance(tmp_path):
    # one point has one true distance: a later row may not overwrite it
    path = tmp_path / "taps.csv"
    path.write_text(
        "point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz\n"
        "0,30.0,0.0,0.0,1e-7,0.0\n"
        "1,60.0,0.0,0.0,2e-7,0.0\n"
        "0,30,-6.0,0.0,3e-7,0.0\n"
        "0,45.0,-3.0,0.0,5e-7,0.0\n"
    )
    with pytest.raises(TapFileError, match="line 5: point 0: true_distance_m 45.0"):
        load_taps(path)
    # nor does save_taps write two realizations of one point that disagree
    two = [one_tap(tap_row()), one_tap(tap_row(true_distance_m=45.0))]
    with pytest.raises(ValueError, match="point 0: true_distance_m 45.0 differs from 30.0"):
        save_taps(tmp_path / "saved.csv", two)
    assert not (tmp_path / "saved.csv").exists()


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
    # the point-indexed mapping that load_taps returns saves as its values do
    from_mapping, from_values = tmp_path / "mapping.csv", tmp_path / "values.csv"
    save_taps(from_mapping, loaded)
    save_taps(from_values, list(loaded.values()))
    assert from_mapping.read_text() == from_values.read_text()


def tap_row(**cells):
    """A valid taps-file row, one 0 dB tap, with ``cells`` set."""
    row = {"point_index": 0, "true_distance_m": 30.0, "gain_db": 0.0, "phase_rad": 0.0,
           "delay_s": 1e-7, "doppler_hz": 0.0}
    return {**row, **cells}


def one_tap(row):
    """The one-tap realization that save_taps writes as ``row``."""
    gain = cmath.rect(10.0 ** (row["gain_db"] / 20.0), row["phase_rad"])
    tap = ChannelTap(gain, row["delay_s"], row["doppler_hz"])
    return ChannelRealization(row["point_index"], row["true_distance_m"], [tap])


DB_RANGE = "dB is outside [-300.0, 300.0]"
DOPPLER_RANGE = "Hz is outside [-3000000000000.0, 3000000000000.0]"


@pytest.mark.parametrize(
    "column, past, edge, reason",
    [
        ("point_index", -1, 0, "negative point_index -1"),
        # an int of any size: never passed to math.isfinite, which overflows
        ("point_index", -(10**400), 10**400, f"negative point_index {-(10**400)}"),
        ("true_distance_m", 0.0, 5e-324, "true_distance_m 0.0 is not positive"),
        ("true_distance_m", math.nan, 5e-324, "non-finite value"),
        # gains 0, 1e-16 and 1e16
        ("gain_db", -math.inf, -300.0, "non-finite value"),
        ("gain_db", -320.0, -300.0, f"gain -320.0 {DB_RANGE}"),
        ("gain_db", 320.0, 300.0, f"gain 320.0 {DB_RANGE}"),
        ("phase_rad", math.nan, math.pi, "non-finite value"),
        ("delay_s", -1e-7, 0.0, "negative delay -1e-07"),
        ("doppler_hz", 5e12, 3e12, f"Doppler 5000000000000.0 {DOPPLER_RANGE}"),
        ("doppler_hz", -5e12, -3e12, f"Doppler -5000000000000.0 {DOPPLER_RANGE}"),
        ("doppler_hz", math.inf, 3e12, "non-finite value"),
    ],
    ids=["point", "point_400_digits", "distance_zero", "distance_nan", "gain_zero",
         "gain_-320_db", "gain_320_db", "phase_nan", "delay", "doppler", "doppler_negative",
         "doppler_inf"],
)
def test_save_refuses_each_row_that_load_rejects(tmp_path, column, past, edge, reason):
    # save_taps refuses a value just past its column's rule and writes no
    # file; the same value in a file fails load_taps on its line
    path = tmp_path / "taps.csv"
    with pytest.raises(ValueError, match=re.escape(reason)):
        save_taps(path, [one_tap(tap_row(**{column: past}))])
    assert not path.exists()
    write_rows(path, channel.TAPS_HEADER, [tap_row(**{column: past})])
    with pytest.raises(TapFileError, match=re.escape(f"line 2: {reason}")):
        load_taps(path)
    # at the rule's edge the row is written as given and reads back
    edge_row = tap_row(**{column: edge})
    save_taps(path, [one_tap(edge_row)])
    write_rows(tmp_path / "expected.csv", channel.TAPS_HEADER, [edge_row])
    assert path.read_text() == (tmp_path / "expected.csv").read_text()
    assert list(load_taps(path)) == [edge_row["point_index"]]


# ---------------------------------------------------------------------------

def overhead_point(height=30.0, speed=0.0):
    return TrajectoryPoint(
        index=0,
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


def test_only_echoes_draw_from_the_seed(rng_seeds):
    from ddprach import NlosSpec

    kwargs = dict(carrier_hz=1775e6, antenna=AntennaConfig(), tilt_deg=5.0)
    seed = np.random.SeedSequence(77)
    # the line-of-sight tap alone is geometry: no generator is made
    synthesize_scenario_channel(overhead_point(), nlos=None, seed=seed, **kwargs)
    assert rng_seeds == []
    synthesize_scenario_channel(overhead_point(), nlos=NlosSpec(), seed=seed, **kwargs)
    assert rng_seeds == [seed]


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

