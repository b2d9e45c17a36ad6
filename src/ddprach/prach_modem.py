"""PRACH preamble modem: transmit, detect and convert time of arrival.

The preamble places one Zadoff-Chu sequence along the delay axis of a
delay-Doppler grid and repeats it on every Doppler row.  Two modulations
share that content:

* ``"otfs"`` precodes the grid through the ISFFT before CP-OFDM modulation;
* ``"ofdm"`` places the same rows directly on the time-frequency grid
  (classic PRACH).

One receiver serves both: each demodulated OFDM symbol is multiplied by a
frequency-domain matched filter and taken to the delay domain by one IDFT
pass (see :func:`_reference_spectrum`).  For ``"otfs"`` this equals
correlating each Doppler row of the SFFT output in the delay domain, because
the SFFT's transforms cancel against the correlator's and, by Parseval, leave
the power summed over rows unchanged; the row sum thus resolves no Doppler.

The per-symbol correlation powers are combined non-coherently, thresholded
against an order-statistics noise model and the peak lag is scaled to
DFT-rate samples and to metres.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dd_transform import (
    DelayDopplerGrid,
    TimeFrequencyGrid,
    Waveform,
    heisenberg_modulate,
    isfft,
    sfft,  # noqa: F401
    wigner_demodulate,
)
from .units import SPEED_OF_LIGHT, dbm_to_watts
# the receiver calls neither ``sfft`` nor ``circular_correlation``; both stay
# importable from here because perfbench/tracer.py wraps them by name
from .zc import CorrelationProfile, ZcSequence, circular_correlation, generate_zc  # noqa: F401

__all__ = [
    "WaveformParams",
    "ToaEstimate",
    "build_preamble_grid",
    "transmit",
    "detection_threshold",
    "receive_and_estimate_toa",
    "range_from_toa",
    "resolve_range",
]

MODULATIONS = ("otfs", "ofdm")


@dataclass
class WaveformParams:
    """Preamble and framing parameters."""

    delta_f_hz: float = 15e3     # subcarrier spacing [Hz]
    n_dft: int = 2048            # DFT size per OFDM symbol
    m: int = 1024                # active subcarriers / delay bins
    n: int = 4                   # OFDM symbols / Doppler bins
    n_zc: int = 139              # Zadoff-Chu length
    root: int = 1                # Zadoff-Chu root
    cp_len: int | None = None    # cyclic prefix [samples]; None = n_dft // 8
    modulation: str = "otfs"
    p_t_watts: float = dbm_to_watts(23.0)  # mean transmit power

    def __post_init__(self):
        if self.cp_len is None:
            self.cp_len = self.n_dft // 8
        if self.delta_f_hz <= 0:
            raise ValueError("delta_f_hz must be positive")
        if not 2 <= self.m <= self.n_dft:
            raise ValueError(f"need 2 <= m <= n_dft, got m={self.m}, n_dft={self.n_dft}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 3 <= self.n_zc <= self.m:
            raise ValueError(f"need 3 <= n_zc <= m, got n_zc={self.n_zc}, m={self.m}")
        # the checks of generate_zc, made here so that a config fails at parse time
        if not 1 <= self.root < self.n_zc:
            raise ValueError(f"need 1 <= root < n_zc, got root={self.root}, n_zc={self.n_zc}")
        if math.gcd(self.root, self.n_zc) != 1:
            raise ValueError(
                f"root and n_zc must be coprime, got gcd({self.root}, {self.n_zc}) = "
                f"{math.gcd(self.root, self.n_zc)}"
            )
        if not 0 <= self.cp_len <= self.n_dft:
            raise ValueError("cp_len must be in [0, n_dft]")
        if self.modulation not in MODULATIONS:
            raise ValueError(
                f"modulation must be one of {MODULATIONS}, got {self.modulation!r}"
            )
        if self.p_t_watts <= 0:
            raise ValueError("p_t_watts must be positive")

    @property
    def sample_rate(self) -> float:
        return self.delta_f_hz * self.n_dft

    @property
    def frame_len(self) -> int:
        return self.n * (self.n_dft + self.cp_len)


@dataclass
class ToaEstimate:
    """Detector output for one received frame."""

    detected: bool
    sample_delay: int                 # peak delay in DFT-rate samples
    threshold: float                  # detection threshold on the profile
    profile: CorrelationProfile       # combined profile over delay bins
    refined_sample_delay: float | None = None  # sub-bin peak, if requested


def build_preamble_grid(zc_seq: ZcSequence, params: WaveformParams) -> DelayDopplerGrid:
    """Place the ZC sequence in the first ``n_zc`` delay bins of every row."""
    if zc_seq.length > params.m:
        raise ValueError(
            f"ZC length {zc_seq.length} does not fit into {params.m} delay bins"
        )
    data = np.zeros((params.m, params.n), dtype=complex)
    data[: zc_seq.length, :] = zc_seq.samples[:, None]
    return DelayDopplerGrid(data)


def transmit(params: WaveformParams) -> Waveform:
    """Generate the preamble waveform with mean power ``p_t_watts``."""
    zc_seq = generate_zc(params.root, params.n_zc)
    grid = build_preamble_grid(zc_seq, params)
    if params.modulation == "otfs":
        tf = isfft(grid, subcarrier_spacing=params.delta_f_hz)
    else:
        # same grid content read as (symbol, subcarrier) rows
        tf = TimeFrequencyGrid(grid.data.T.copy(), subcarrier_spacing=params.delta_f_hz)
    waveform = heisenberg_modulate(tf, params.n_dft, params.cp_len)
    mean_power = float(np.mean(np.abs(waveform.samples) ** 2))
    waveform.samples = waveform.samples * math.sqrt(params.p_t_watts / mean_power)
    return waveform


def detection_threshold(profile: CorrelationProfile, target_pfa: float) -> float:
    """Detection threshold for a correlation profile.

    Models noise-only profile bins as i.i.d. exponential with mean
    ``mean_power``; the threshold that keeps the false-alarm probability of
    the profile maximum at ``target_pfa`` over L bins is

    ``T = -ln(1 - (1 - target_pfa)^(1/L)) * mean_power``
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must be in (0, 1)")
    if profile.mean_power <= 0.0:
        raise ValueError("profile has zero mean power; nothing is detectable")
    L = profile.values.size
    # 1 - (1 - pfa)^(1/L), evaluated without catastrophic cancellation
    per_bin = -math.expm1(math.log1p(-target_pfa) / L)
    return -math.log(per_bin) * profile.mean_power


@functools.lru_cache(maxsize=None)
def _reference_spectrum(root: int, n_zc: int, m: int, modulation: str) -> np.ndarray:
    """Frequency-domain matched filter ``H`` of the ZC reference over M bins.

    The combined profile is ``sum_rows |IDFT_M(Y[row] * H)|^2`` over the
    ``n`` demodulated symbols ``Y``.  OFDM carries the ZC on the subcarriers,
    so ``H = conj(zc)``.  OTFS carries it along delay: the SFFT's IDFT over
    delay cancels against the correlator's DFT, which leaves
    ``H = sqrt(M) * conj(DFT_M(zc))``; the SFFT's DFT over Doppler is
    unitary, so by Parseval the power summed over Doppler rows equals the
    power summed over symbols.  The row sum therefore resolves no Doppler; a
    delay-Doppler receiver would read a 2-D peak instead (ROADMAP item 2).
    """
    spectrum = np.zeros(m, dtype=complex)
    spectrum[:n_zc] = generate_zc(root, n_zc).samples
    if modulation == "otfs":
        spectrum = math.sqrt(m) * np.fft.fft(spectrum)
    spectrum = np.conj(spectrum)
    spectrum.setflags(write=False)
    return spectrum


# worker threads share the cache; the lock builds each reference only once
_reference_lock = threading.Lock()


def _combined_profile(tf: TimeFrequencyGrid, params: WaveformParams) -> CorrelationProfile:
    """Non-coherent sum of the per-symbol matched-filter output powers.

    All ``n`` symbols go through one multiply and one IFFT pass.
    """
    with _reference_lock:
        matched = _reference_spectrum(
            params.root, params.n_zc, params.m, params.modulation
        )
    corr = np.fft.ifft(tf.data * matched, axis=1)
    values = np.sum(np.abs(corr) ** 2, axis=0)
    return CorrelationProfile(
        values=values,
        peak_lag=int(np.argmax(values)),
        mean_power=float(np.mean(values)),
    )


def receive_and_estimate_toa(
    rx: Waveform,
    params: WaveformParams,
    target_pfa: float = 1e-3,
    interpolate_peak: bool = False,
) -> ToaEstimate:
    """Detect the preamble and estimate its time of arrival.

    Demodulates, applies the matched filter to every symbol, combines the
    correlation powers non-coherently and compares the peak
    against :func:`detection_threshold`.  The peak delay bin is rescaled to
    DFT-rate samples (``bin * n_dft / m``).  With ``interpolate_peak`` the
    two profile bins flanking the peak refine it to a sub-bin position
    (``refined_sample_delay``); the integer read-out is unchanged.
    """
    tf = wigner_demodulate(rx, params.m, params.n)
    combined = _combined_profile(tf, params)
    values = combined.values
    if combined.mean_power == 0.0:
        return ToaEstimate(False, 0, math.inf, combined)
    threshold = detection_threshold(combined, target_pfa)
    peak = combined.peak_lag
    detected = bool(values[peak] >= threshold)
    stride = params.n_dft / params.m
    sample_delay = int(round(peak * stride))
    refined = None
    if interpolate_peak and detected:
        amplitudes = np.sqrt(values)
        left = amplitudes[(peak - 1) % params.m]
        right = amplitudes[(peak + 1) % params.m]
        centre = amplitudes[peak]
        if right >= left:
            offset = right / (centre + right)
        else:
            offset = -left / (centre + left)
        refined = (peak + offset) * stride
    return ToaEstimate(detected, sample_delay, threshold, combined, refined)


def range_from_toa(sample_delay: float, delta_f_hz: float, n_dft: int) -> float:
    """Distance in metres for a delay of ``sample_delay`` DFT-rate samples.

    ``d = c * k / (delta_f * n_dft)``; one sample corresponds to
    ``c / (delta_f * n_dft)`` metres, the resolution quantum.
    """
    if delta_f_hz <= 0 or n_dft <= 0:
        raise ValueError("delta_f_hz and n_dft must be positive")
    return SPEED_OF_LIGHT * sample_delay / (delta_f_hz * n_dft)


def resolve_range(estimate: ToaEstimate, params: WaveformParams) -> float | None:
    """Estimated distance in metres of a detector output; ``None`` for a miss.

    Uses the refined sub-bin delay when present, the integer sample delay
    otherwise.
    """
    if not estimate.detected:
        return None
    delay = (
        estimate.refined_sample_delay
        if estimate.refined_sample_delay is not None
        else estimate.sample_delay
    )
    return range_from_toa(delay, params.delta_f_hz, params.n_dft)
