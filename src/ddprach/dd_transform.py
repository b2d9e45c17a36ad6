"""Delay-Doppler <-> time-frequency transforms and CP-OFDM (de)modulation.

The grids are plain complex arrays: the delay-Doppler grid has shape
``(m, n)``, indexed ``[l, k]`` (delay bin, Doppler bin), and the
time-frequency grid has shape ``(n, m)``, indexed ``[n, m]`` (OFDM symbol,
subcarrier).  The delay-Doppler grid is mapped to the time-frequency grid
with the inverse symplectic finite Fourier transform (ISFFT) and back with
the SFFT.  Both transforms use the symmetric unitary normalization
``1/sqrt(M N)`` so the pair is exactly inverse and energy-preserving.

The Heisenberg transform (time-frequency grid to samples) and its Wigner
inverse are discretized as cyclic-prefix OFDM with rectangular pulses: each
grid row is one OFDM symbol whose M active subcarriers occupy the first M
bins of an ``n_dft``-point spectrum.  The samples are a plain array, framed
by the caller's ``WaveformParams``.
"""

import numpy as np

__all__ = [
    "isfft",
    "sfft",
    "heisenberg_modulate",
    "wigner_demodulate",
]


def isfft(grid: np.ndarray) -> np.ndarray:
    """Inverse symplectic finite Fourier transform (delay-Doppler -> TF).

    Takes the ``(m, n)`` delay-Doppler grid ``x[l, k]`` (delay bin, Doppler
    bin) and returns the ``(n, m)`` time-frequency grid ``X[n, m]`` (OFDM
    symbol, subcarrier):

    ``X[n, m] = 1/sqrt(M N) sum_{l,k} x[l, k] exp(j 2 pi (n k / N - m l / M))``

    Unitary: IDFT of length N along the Doppler axis, DFT of length M along
    the delay axis.
    """
    return np.fft.ifft(np.fft.fft(grid, axis=0, norm="ortho"), axis=1, norm="ortho").T


def sfft(grid: np.ndarray) -> np.ndarray:
    """Symplectic finite Fourier transform (TF -> delay-Doppler).

    Takes the ``(n, m)`` time-frequency grid and returns the ``(m, n)``
    delay-Doppler grid:

    ``x[l, k] = 1/sqrt(N M) sum_{n,m} X[n, m] exp(-j 2 pi (n k / N - m l / M))``

    Exactly inverts :func:`isfft`: with the two index orders the two
    transforms are one expression.
    """
    return isfft(grid)


def heisenberg_modulate(grid: np.ndarray, n_dft: int, cp_len: int) -> np.ndarray:
    """Modulate an ``(n, m)`` time-frequency grid to CP-OFDM samples.

    Per symbol, the M subcarrier values fill bins ``0..M-1`` of an
    ``n_dft``-bin spectrum (guard bins zero); a unitary IDFT produces the
    symbol body and the last ``cp_len`` body samples are prepended as the
    cyclic prefix.  The output concatenates the N symbols into one array of
    ``N * (n_dft + cp_len)`` samples.
    """
    n_sym, m = grid.shape
    if n_dft < m:
        raise ValueError(f"n_dft ({n_dft}) must be >= subcarrier count ({m})")
    if not 0 <= cp_len <= n_dft:
        raise ValueError(f"cp_len must be in [0, n_dft], got {cp_len}")
    spectrum = np.zeros((n_sym, n_dft), dtype=complex)
    spectrum[:, :m] = grid
    body = np.fft.ifft(spectrum, axis=1, norm="ortho")
    frames = np.concatenate([body[:, n_dft - cp_len:], body], axis=1)
    return frames.reshape(-1)


def wigner_demodulate(samples, n_dft: int, cp_len: int, m: int, n: int) -> np.ndarray:
    """Demodulate CP-OFDM samples back to an ``(n, m)`` time-frequency grid.

    Inverse of :func:`heisenberg_modulate`: per symbol the cyclic prefix is
    stripped, the body is DFT'd (unitary) and the first ``m`` bins are kept.
    ``samples`` is read as complex.
    """
    samples = np.asarray(samples, dtype=complex)
    if m > n_dft:
        raise ValueError(f"m ({m}) must be <= n_dft ({n_dft})")
    frame_len = n_dft + cp_len
    expected = n * frame_len
    if samples.size != expected:
        raise ValueError(
            f"framing mismatch: got {samples.size} samples, "
            f"expected {expected} for {n} symbols of {frame_len}"
        )
    frames = samples.reshape(n, frame_len)
    return np.fft.fft(frames[:, cp_len:], axis=1, norm="ortho")[:, :m]
