"""PRACH preamble modem: transmit, detect and convert time of arrival.

The preamble places one Zadoff-Chu sequence along the delay axis of a
delay-Doppler grid and repeats it on every Doppler row.  Two modulations
share that content:

* ``"otfs"`` precodes the grid through the ISFFT before CP-OFDM modulation,
  so the receiver applies the SFFT and correlates each Doppler row in the
  delay domain;
* ``"ofdm"`` places the same rows directly on the time-frequency grid
  (classic PRACH), so the receiver correlates each demodulated symbol
  against the frequency-domain reference.

Either way the per-row cyclic correlation powers are combined
non-coherently, thresholded against an order-statistics noise model and the
peak lag is scaled to DFT-rate samples and to metres.
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
    sfft,
    wigner_demodulate,
)
from .units import SPEED_OF_LIGHT, dbm_to_watts
# the receiver no longer calls ``circular_correlation``; it stays importable
# from here because perfbench/tracer.py wraps ``prach_modem.circular_correlation``
from .zc import CorrelationProfile, ZcSequence, circular_correlation, generate_zc  # noqa: F401

__all__ = [
    "WaveformParams",
    "ToaEstimate",
    "RangingResult",
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


@dataclass
class RangingResult:
    """One ranging measurement against the ground truth."""

    true_distance_m: float
    estimated_distance_m: float | None
    error_m: float | None             # true - estimated
    detected: bool
    los_tag: bool


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
    """Conjugated DFT of the ZC correlation reference over the M delay bins.

    OTFS rows are correlated in the delay domain against the zero-padded
    sequence; OFDM symbols are correlated against its IDFT, the delay-domain
    pair of the frequency-domain matched filter.
    """
    reference = np.zeros(m, dtype=complex)
    reference[:n_zc] = generate_zc(root, n_zc).samples
    if modulation == "ofdm":
        reference = np.fft.ifft(reference)
    spectrum = np.conj(np.fft.fft(reference))
    spectrum.setflags(write=False)
    return spectrum


# worker threads share the cache; the lock builds each reference only once
_reference_lock = threading.Lock()


def _combined_profile(tf: TimeFrequencyGrid, params: WaveformParams) -> CorrelationProfile:
    """Non-coherent sum of the per-row cyclic correlation powers.

    OTFS correlates each Doppler row of the SFFT output, OFDM each symbol
    taken to the delay domain; all ``n`` rows go through one FFT pass.
    """
    with _reference_lock:
        reference = _reference_spectrum(
            params.root, params.n_zc, params.m, params.modulation
        )
    if params.modulation == "otfs":
        # contiguous rows: an FFT pass over strided rows can round differently
        # from one-row FFTs, which would move profiles in the last bit
        rows = np.ascontiguousarray(sfft(tf).data.T)
    else:
        rows = np.fft.ifft(tf.data, axis=1)
    corr = np.fft.ifft(np.fft.fft(rows, axis=1) * reference, axis=1)
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

    Demodulates, correlates per Doppler row (OTFS) or per symbol (OFDM),
    combines the correlation powers non-coherently and compares the peak
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


def resolve_range(
    estimate: ToaEstimate,
    true_distance_m: float,
    params: WaveformParams,
    los_tag: bool,
) -> RangingResult:
    """Turn a detector output into a ranging measurement.

    Uses the refined sub-bin delay when present, the integer sample delay
    otherwise; a miss yields ``None`` distance and error.
    """
    if not estimate.detected:
        return RangingResult(true_distance_m, None, None, False, los_tag)
    delay = (
        estimate.refined_sample_delay
        if estimate.refined_sample_delay is not None
        else estimate.sample_delay
    )
    estimated = range_from_toa(delay, params.delta_f_hz, params.n_dft)
    return RangingResult(
        true_distance_m, estimated, true_distance_m - estimated, True, los_tag
    )
