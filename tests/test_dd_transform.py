"""Delay-Doppler <-> time-frequency transforms and the CP-OFDM modem core.

The transform oracle is the literal double sum over the grid; it is O((MN)^2)
so it only runs at small sizes, with the larger sizes covered by energy and
round-trip properties.
"""

import numpy as np
import pytest

from ddprach import heisenberg_modulate, isfft, sfft, wigner_demodulate


def isfft_oracle(data):
    """X[n, m] = (1/sqrt(MN)) sum_{l,k} x[l,k] exp(j2pi(nk/N - ml/M))."""
    m_count, n_count = data.shape
    out = np.zeros((n_count, m_count), dtype=complex)
    for n in range(n_count):
        for m in range(m_count):
            acc = 0.0 + 0.0j
            for l in range(m_count):
                for k in range(n_count):
                    acc += data[l, k] * np.exp(
                        2j * np.pi * (n * k / n_count - m * l / m_count)
                    )
            out[n, m] = acc / np.sqrt(m_count * n_count)
    return out


def sfft_oracle(data):
    """x[l, k] = (1/sqrt(NM)) sum_{n,m} X[n,m] exp(-j2pi(nk/N - ml/M))."""
    n_count, m_count = data.shape
    out = np.zeros((m_count, n_count), dtype=complex)
    for l in range(m_count):
        for k in range(n_count):
            acc = 0.0 + 0.0j
            for n in range(n_count):
                for m in range(m_count):
                    acc += data[n, m] * np.exp(
                        -2j * np.pi * (n * k / n_count - m * l / m_count)
                    )
            out[l, k] = acc / np.sqrt(n_count * m_count)
    return out


def random_grid(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


# ---------------------------------------------------------------------------
# ISFFT / SFFT
# ---------------------------------------------------------------------------

def test_isfft_matches_oracle():
    data = random_grid(8, 4, seed=0)
    tf = isfft(data)
    assert np.allclose(tf, isfft_oracle(data), atol=1e-10)


def test_sfft_matches_oracle():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    dd = sfft(data)
    assert np.allclose(dd, sfft_oracle(data), atol=1e-10)


def test_delta_to_constant():
    data = np.zeros((4, 4), dtype=complex)
    data[0, 0] = 1.0
    tf = isfft(data)
    assert np.allclose(tf, 0.25, atol=1e-12)


def test_constant_to_delta():
    c = 0.3 - 1.1j
    dd = sfft(np.full((4, 4), c))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 4.0 * c
    assert np.allclose(dd, expected, atol=1e-12)


@pytest.mark.parametrize("m,n", [(16, 8), (64, 16), (1024, 4)])
def test_round_trip_and_parseval(m, n):
    data = random_grid(m, n, seed=m + n)
    tf = isfft(data)
    assert tf.shape == (n, m)
    back = sfft(tf)
    assert np.allclose(back, data, rtol=1e-10, atol=1e-10)
    energy_in = np.sum(np.abs(data) ** 2)
    energy_tf = np.sum(np.abs(tf) ** 2)
    assert energy_tf == pytest.approx(energy_in, rel=1e-10)


def test_inverse_pair_other_direction():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    assert np.allclose(isfft(sfft(data)), data, rtol=1e-10, atol=1e-10)


def test_sfft_is_a_genuine_transform():
    # The symplectic pair with the (M,N) <-> (N,M) layout is an involution
    # (sfft applied twice reproduces the input), so non-degeneracy is
    # asserted as "not the identity map" plus the oracle match above.
    data = random_grid(4, 4, seed=5)
    once = sfft(data)
    assert not np.allclose(once, data, atol=1e-6)
    twice = sfft(once)
    assert np.allclose(twice, data, atol=1e-10)


def test_linearity():
    a, b = 1.7 - 0.2j, -0.4 + 2.1j
    x1 = random_grid(16, 4, seed=11)
    x2 = random_grid(16, 4, seed=12)
    combined = isfft(a * x1 + b * x2)
    separate = a * isfft(x1) + b * isfft(x2)
    assert np.allclose(combined, separate, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# Heisenberg / Wigner (CP-OFDM core)
# ---------------------------------------------------------------------------

def test_dc_subcarrier_constant_samples():
    samples = heisenberg_modulate(np.array([[1.0 + 0.0j]]), n_dft=8, cp_len=0)
    assert samples.size == 8
    assert np.allclose(np.abs(samples), np.abs(samples[0]), atol=1e-12)
    assert np.allclose(samples, samples[0], atol=1e-12)


def test_modem_round_trip():
    rng = np.random.default_rng(21)
    data = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    samples = heisenberg_modulate(data, n_dft=32, cp_len=8)
    back = wigner_demodulate(samples, 32, 8, m=16, n=4)
    assert np.allclose(back, data, rtol=1e-9, atol=1e-9)


def test_frame_length():
    samples = heisenberg_modulate(np.ones((4, 16), dtype=complex), n_dft=32, cp_len=8)
    assert samples.shape == (4 * (32 + 8),)


def test_cyclic_delay_phase_ramp():
    """A whole-sample cyclic delay (within the CP) rotates each subcarrier."""
    rng = np.random.default_rng(33)
    data = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
    samples = heisenberg_modulate(data, n_dft=32, cp_len=8)
    for d in (1, 3, 7):
        shifted = wigner_demodulate(np.roll(samples, d), 32, 8, m=16, n=1)
        ramp = np.exp(-2j * np.pi * np.arange(16) * d / 32)
        assert np.allclose(shifted[0], data[0] * ramp, rtol=1e-9, atol=1e-9)


def test_all_zero_waveform():
    samples = heisenberg_modulate(np.zeros((2, 8), dtype=complex), n_dft=16, cp_len=2)
    grid = wigner_demodulate(samples, 16, 2, m=8, n=2)
    assert grid.shape == (2, 8)
    assert np.all(grid == 0)


def test_framing_mismatch_rejected():
    samples = heisenberg_modulate(np.ones((4, 16), dtype=complex), n_dft=32, cp_len=8)
    with pytest.raises(ValueError, match="framing mismatch"):
        wigner_demodulate(samples, 32, 8, m=16, n=3)
    with pytest.raises(ValueError, match="framing mismatch"):
        wigner_demodulate(samples, 32, 7, m=16, n=4)


def test_n_dft_must_cover_subcarriers():
    with pytest.raises(ValueError):
        heisenberg_modulate(np.ones((1, 16), dtype=complex), n_dft=8, cp_len=0)


def test_full_chain_identity():
    """sfft . wigner . heisenberg . isfft is the identity on the DD grid."""
    data = random_grid(16, 4, seed=44)
    samples = heisenberg_modulate(isfft(data), n_dft=32, cp_len=8)
    back = sfft(wigner_demodulate(samples, 32, 8, m=16, n=4))
    assert np.allclose(back, data, rtol=1e-9, atol=1e-9)
