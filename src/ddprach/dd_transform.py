"""Delay-Doppler <-> time-frequency transforms and CP-OFDM (de)modulation.

The delay-Doppler grid is mapped to the time-frequency grid with the inverse
symplectic finite Fourier transform (ISFFT) and back with the SFFT.  Both
transforms use the symmetric unitary normalization ``1/sqrt(M N)`` so the
pair is exactly inverse and energy-preserving.

The Heisenberg transform (time-frequency grid to waveform) and its Wigner
inverse are discretized as cyclic-prefix OFDM with rectangular pulses: each
grid row is one OFDM symbol whose M active subcarriers occupy the first M
bins of an ``n_dft``-point spectrum.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DelayDopplerGrid",
    "TimeFrequencyGrid",
    "Waveform",
    "isfft",
    "sfft",
    "heisenberg_modulate",
    "wigner_demodulate",
]


@dataclass
class DelayDopplerGrid:
    """Complex grid indexed ``[l, k]`` = (delay bin, Doppler bin).

    Attributes
    ----------
    data : np.ndarray
        Shape ``(m, n)``: ``m`` delay bins by ``n`` Doppler bins.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 2:
            raise ValueError("delay-Doppler grid must be two-dimensional")
        if self.m < 2 or self.n < 1:
            raise ValueError(
                f"grid must have at least 2 delay bins and 1 Doppler bin, "
                f"got {self.m} x {self.n}"
            )

    @property
    def m(self) -> int:
        """Number of delay bins (equals the subcarrier count)."""
        return self.data.shape[0]

    @property
    def n(self) -> int:
        """Number of Doppler bins (equals the symbol count)."""
        return self.data.shape[1]


@dataclass
class TimeFrequencyGrid:
    """Complex grid indexed ``[n, m]`` = (OFDM symbol, subcarrier).

    Attributes
    ----------
    data : np.ndarray
        Shape ``(n, m)``: ``n`` symbols by ``m`` subcarriers.
    subcarrier_spacing : float
        Subcarrier spacing in Hz.  The symbol interval is its reciprocal.
    """

    data: np.ndarray
    subcarrier_spacing: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 2:
            raise ValueError("time-frequency grid must be two-dimensional")
        if self.subcarrier_spacing <= 0:
            raise ValueError("subcarrier spacing must be positive")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    @property
    def symbol_interval(self) -> float:
        """Symbol duration in seconds (T = 1 / delta_f, unit T.df product)."""
        return 1.0 / self.subcarrier_spacing


@dataclass
class Waveform:
    """Sampled baseband waveform with its framing metadata.

    Attributes
    ----------
    samples : np.ndarray
        Complex baseband samples, shape ``(L,)``; the channel functions also
        accept an ``(S, L)`` stack of frames sharing this framing.
    sample_rate : float
        Samples per second (``subcarrier_spacing * n_dft``).
    n_dft : int
        DFT size used per OFDM symbol.
    cp_len : int
        Cyclic prefix length in samples.
    """

    samples: np.ndarray
    sample_rate: float
    n_dft: int
    cp_len: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)


def _symplectic(data: np.ndarray) -> np.ndarray:
    """Unitary DFT along axis 0, IDFT along axis 1, then transpose.

    With the grids' index orders (``[l, k]`` delay-Doppler, ``[n, m]``
    time-frequency) this one expression is both the ISFFT and the SFFT.
    """
    return np.fft.ifft(np.fft.fft(data, axis=0, norm="ortho"), axis=1, norm="ortho").T


def isfft(grid: DelayDopplerGrid, subcarrier_spacing: float = 1.0) -> TimeFrequencyGrid:
    """Inverse symplectic finite Fourier transform (delay-Doppler -> TF).

    ``X[n, m] = 1/sqrt(M N) sum_{l,k} x[l, k] exp(j 2 pi (n k / N - m l / M))``

    Unitary: IDFT of length N along the Doppler axis, DFT of length M along
    the delay axis.
    """
    return TimeFrequencyGrid(
        data=_symplectic(grid.data), subcarrier_spacing=subcarrier_spacing
    )


def sfft(grid: TimeFrequencyGrid) -> DelayDopplerGrid:
    """Symplectic finite Fourier transform (TF -> delay-Doppler).

    ``x[l, k] = 1/sqrt(N M) sum_{n,m} X[n, m] exp(-j 2 pi (n k / N - m l / M))``

    Exactly inverts :func:`isfft` (same unitary normalization).
    """
    return DelayDopplerGrid(data=_symplectic(grid.data))


def heisenberg_modulate(grid: TimeFrequencyGrid, n_dft: int, cp_len: int) -> Waveform:
    """Modulate a time-frequency grid to a CP-OFDM waveform.

    Per symbol, the M subcarrier values fill bins ``0..M-1`` of an
    ``n_dft``-bin spectrum (guard bins zero); a unitary IDFT produces the
    symbol body and the last ``cp_len`` body samples are prepended as the
    cyclic prefix.  The output concatenates the N symbols, giving
    ``N * (n_dft + cp_len)`` samples.
    """
    n_sym, m = grid.data.shape
    if n_dft < m:
        raise ValueError(f"n_dft ({n_dft}) must be >= subcarrier count ({m})")
    if not 0 <= cp_len <= n_dft:
        raise ValueError(f"cp_len must be in [0, n_dft], got {cp_len}")
    spectrum = np.zeros((n_sym, n_dft), dtype=complex)
    spectrum[:, :m] = grid.data
    body = np.fft.ifft(spectrum, axis=1, norm="ortho")
    frames = np.concatenate([body[:, n_dft - cp_len:], body], axis=1)
    return Waveform(
        samples=frames.reshape(-1),
        sample_rate=grid.subcarrier_spacing * n_dft,
        n_dft=n_dft,
        cp_len=cp_len,
    )


def wigner_demodulate(waveform: Waveform, m: int, n: int) -> TimeFrequencyGrid:
    """Demodulate a CP-OFDM waveform back to a time-frequency grid.

    Inverse of :func:`heisenberg_modulate`: per symbol the cyclic prefix is
    stripped, the body is DFT'd (unitary) and the first ``m`` bins are kept.
    """
    n_dft, cp_len = waveform.n_dft, waveform.cp_len
    if m > n_dft:
        raise ValueError(f"m ({m}) must be <= n_dft ({n_dft})")
    frame_len = n_dft + cp_len
    expected = n * frame_len
    if waveform.samples.size != expected:
        raise ValueError(
            f"waveform framing mismatch: got {waveform.samples.size} samples, "
            f"expected {expected} for {n} symbols of {frame_len}"
        )
    frames = waveform.samples.reshape(n, frame_len)
    spectrum = np.fft.fft(frames[:, cp_len:], axis=1, norm="ortho")
    return TimeFrequencyGrid(
        data=spectrum[:, :m],
        subcarrier_spacing=waveform.sample_rate / n_dft,
    )
