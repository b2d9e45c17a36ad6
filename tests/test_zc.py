"""Zadoff-Chu generation and circular correlation.

The correlation oracle below is the direct O(L^2) sum with the package's
lag convention (reference delayed by the lag), kept independent of the
FFT-based implementation.
"""

import math

import numpy as np
import pytest

from ddprach import circular_correlation, generate_zc


def direct_correlation_power(y, x_ref):
    """O(L^2) reference: values[l] = |sum_n y[n] * conj(x_ref[(n - l) % L])|^2."""
    y = np.asarray(y)
    x_ref = np.asarray(x_ref)
    length = y.size
    out = np.empty(length)
    for lag in range(length):
        acc = 0.0 + 0.0j
        for n in range(length):
            acc += y[n] * np.conj(x_ref[(n - lag) % length])
        out[lag] = abs(acc) ** 2
    return out


# ---------------------------------------------------------------------------
# sequence generation
# ---------------------------------------------------------------------------

def test_first_samples_root1():
    seq = generate_zc(1, 139)
    assert seq[0] == pytest.approx(1.0 + 0.0j)
    # n(n+1)/2 = 1 at n=1
    assert seq[1] == pytest.approx(np.exp(-2j * np.pi / 139))


def test_unit_modulus():
    seq = generate_zc(1, 139)
    assert np.max(np.abs(np.abs(seq) - 1.0)) <= 1e-12


def test_definition_matches_direct_evaluation():
    q, n_zc = 25, 139
    seq = generate_zc(q, n_zc)
    n = np.arange(n_zc)
    expected = np.exp(-2j * np.pi * q * (n * (n + 1) / 2.0) / n_zc)
    assert np.allclose(seq, expected, atol=1e-12)


def test_root_must_be_coprime():
    with pytest.raises(ValueError):
        generate_zc(3, 9)


def test_root_out_of_range():
    with pytest.raises(ValueError):
        generate_zc(0, 139)
    with pytest.raises(ValueError):
        generate_zc(139, 139)


def test_length_too_short():
    with pytest.raises(ValueError):
        generate_zc(1, 2)


def test_non_prime_length_warns():
    with pytest.warns(UserWarning):
        generate_zc(1, 15)
    with pytest.warns(UserWarning, match="4 is not prime"):
        generate_zc(1, 4)


def test_sequence_is_immutable():
    seq = generate_zc(1, 139)
    with pytest.raises(ValueError):
        seq[0] = 0.0


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_autocorrelation_zero_lag_power():
    seq = generate_zc(1, 139)
    profile = circular_correlation(seq, seq)
    assert profile[0] == pytest.approx(139.0**2, rel=1e-6)
    assert int(np.argmax(profile)) == 0


@pytest.mark.parametrize("root", [1, 2, 25])
def test_cazac_nonzero_lags(root):
    seq = generate_zc(root, 139)
    profile = circular_correlation(seq, seq)
    sidelobes = np.delete(profile, 0)
    assert np.max(sidelobes) <= 1e-9 * profile[0]


def test_matches_direct_oracle():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(29) + 1j * rng.standard_normal(29)
    x = rng.standard_normal(29) + 1j * rng.standard_normal(29)
    profile = circular_correlation(y, x)
    expected = direct_correlation_power(y, x)
    assert profile.shape == (29,)
    assert np.allclose(profile, expected, rtol=1e-10, atol=1e-10)
    assert np.mean(profile) == pytest.approx(np.mean(expected))


def test_shift_to_lag_bijection():
    seq = generate_zc(2, 139)
    for shift in range(139):
        delayed = np.roll(seq, shift)  # delayed[n] = x[(n - shift) % L]
        profile = circular_correlation(delayed, seq)
        assert int(np.argmax(profile)) == shift


def test_peak_tie_breaks_to_smallest_lag():
    flat = np.ones(8, dtype=complex)
    profile = circular_correlation(flat, flat)
    assert int(np.argmax(profile)) == 0


def test_values_nonnegative():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    profile = circular_correlation(y, y)
    assert np.all(profile >= 0.0)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        circular_correlation(np.ones(8), np.ones(9))


@pytest.mark.parametrize(
    "received, reference, message",
    [
        (np.ones((2, 8)), np.ones((2, 8)), "one-dimensional"),
        (np.ones(0), np.ones(0), "at least one sample"),
    ],
    ids=["2-D", "empty"],
)
def test_correlation_rejects_a_shape_it_cannot_correlate(received, reference, message):
    with pytest.raises(ValueError, match=message):
        circular_correlation(received, reference)


def test_dft_magnitude_flat():
    for root in (1, 2, 25):
        seq = generate_zc(root, 139)
        spectrum = np.abs(np.fft.fft(seq))
        assert np.ptp(spectrum) <= 1e-9 * np.max(spectrum)


def test_mean_power_definition():
    seq = generate_zc(1, 139)
    profile = circular_correlation(seq, seq)
    # one bin at N^2, the rest ~0: mean is N^2 / L = N
    assert np.mean(profile) == pytest.approx(139.0, rel=1e-6)


def test_gcd_precondition_is_real_gcd():
    # 2 and 15 are coprime even though 15 is composite; only a warning
    with pytest.warns(UserWarning):
        seq = generate_zc(2, 15)
    assert seq.shape == (15,)
    assert math.gcd(2, seq.size) == 1
