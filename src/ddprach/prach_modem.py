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

The per-symbol correlation powers are combined non-coherently into one
``(m,)`` power array, the profile.  Its maximum is thresholded against an
order-statistics noise model (see :func:`detection_threshold`).  The time of
arrival is the first arrival, not the strongest: a detected frame reads the
earliest bin before the peak whose power is within 6 dB of it and above the
threshold, a leading-edge search (Dardari et al., Proc. IEEE 2009; Guvenc &
Chong, IEEE COMST 2009) that then climbs to the top of that bin's lobe, and
that lag is scaled to DFT-rate samples and to metres.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# the receiver calls neither ``sfft`` nor ``circular_correlation``; both stay
# importable from here because perfbench/tracer.py wraps them by name
from .dd_transform import heisenberg_modulate, isfft, wigner_demodulate
from .dd_transform import sfft  # noqa: F401
from .units import SPEED_OF_LIGHT, dbm_to_watts
from .zc import check_root, generate_zc
from .zc import circular_correlation  # noqa: F401

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
    """Preamble parameters, and the one framing of its sample array."""

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
        if not 0 < self.delta_f_hz < math.inf:
            raise ValueError(f"delta_f_hz must be positive and finite, got {self.delta_f_hz}")
        if not 2 <= self.m <= self.n_dft:
            raise ValueError(f"need 2 <= m <= n_dft, got m={self.m}, n_dft={self.n_dft}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 3 <= self.n_zc <= self.m:
            raise ValueError(f"need 3 <= n_zc <= m, got n_zc={self.n_zc}, m={self.m}")
        check_root(self.root, self.n_zc)
        if not 0 <= self.cp_len <= self.n_dft:
            raise ValueError("cp_len must be in [0, n_dft]")
        if self.modulation not in MODULATIONS:
            raise ValueError(
                f"modulation must be one of {MODULATIONS}, got {self.modulation!r}"
            )
        if not 0 < self.p_t_watts < math.inf:
            raise ValueError(f"p_t_watts must be positive and finite, got {self.p_t_watts}")

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
    sample_delay: int                 # first-path delay in DFT-rate samples; < 0 if early
    threshold: float                  # detection threshold on the profile
    profile: np.ndarray               # read-only (m,) combined power over delay bins
    refined_sample_delay: float | None = None  # sub-bin first path, if requested


def build_preamble_grid(zc: np.ndarray, params: WaveformParams) -> np.ndarray:
    """The ``(m, n)`` delay-Doppler grid with ``zc`` in the first delay bins of every row."""
    if zc.size > params.m:
        raise ValueError(f"ZC length {zc.size} does not fit into {params.m} delay bins")
    grid = np.zeros((params.m, params.n), dtype=complex)
    grid[: zc.size, :] = zc[:, None]
    return grid


def transmit(params: WaveformParams) -> np.ndarray:
    """The ``(frame_len,)`` preamble samples with mean power ``p_t_watts``."""
    grid = build_preamble_grid(generate_zc(params.root, params.n_zc), params)
    # ofdm reads the same grid content as (symbol, subcarrier) rows
    tf = isfft(grid) if params.modulation == "otfs" else grid.T
    samples = heisenberg_modulate(tf, params.n_dft, params.cp_len)
    mean_power = float(np.mean(np.abs(samples) ** 2))
    return samples * math.sqrt(params.p_t_watts / mean_power)


def detection_threshold(profile: np.ndarray, target_pfa: float) -> float:
    """Detection threshold for the maximum of a power profile of L bins.

    Models noise-only bins as i.i.d. exponential with mean
    ``mean_power = mean(profile)``; the threshold that keeps the false-alarm
    probability of the profile maximum at ``target_pfa`` is

    ``T = -ln(1 - (1 - target_pfa)^(1/L)) * mean_power``, and ``T = inf``
    for a zero mean, an underflowed one included: nothing is detectable.  A
    negative or non-finite mean raises ``ValueError``: a NaN or infinite
    frame is no miss.

    The receiver's profile does not meet that model: each bin sums ``n`` row
    powers (a Gamma(n) tail, not an exponential one) and its mean includes
    the signal peak.  The delivered false-alarm rate is therefore not
    ``target_pfa``; at ``target_pfa=0.05`` noise-only frames raised 0 of 400
    alarms per scheme (ROADMAP item 3).
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must be in (0, 1)")
    # np.mean's own sum and division, bit for bit, without its dispatch
    mean_power = float(np.add.reduce(profile) / profile.size)
    if not 0.0 <= mean_power < math.inf:  # NaN fails too
        raise ValueError(f"profile mean power must be finite and >= 0, got {mean_power}")
    if mean_power == 0.0:
        return math.inf
    # 1 - (1 - pfa)^(1/L), evaluated without catastrophic cancellation
    per_bin = -math.expm1(math.log1p(-target_pfa) / profile.size)
    return -math.log(per_bin) * mean_power


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
    spectrum[:n_zc] = generate_zc(root, n_zc)
    if modulation == "otfs":
        spectrum = math.sqrt(m) * np.fft.fft(spectrum)
    spectrum = np.conj(spectrum)
    spectrum.setflags(write=False)
    return spectrum


def _combined_profile(tf: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Non-coherent sum of the per-symbol matched-filter output powers.

    All ``n`` symbols of the ``(n, m)`` grid ``tf`` go through one multiply
    and one IFFT pass.  The IFFT output's float view is squared in place and
    summed over symbols, and each bin's real and imaginary sums are added:
    ``|z|^2`` as ``re^2 + im^2``, with no ``hypot``.  The result is the
    read-only ``(m,)`` power array.
    """
    matched = _reference_spectrum(params.root, params.n_zc, params.m, params.modulation)
    parts = np.fft.ifft(tf * matched, axis=1).view(float)
    np.square(parts, out=parts)
    sums = np.add.reduce(parts, axis=0)
    values = np.add(sums[0::2], sums[1::2])
    values.setflags(write=False)
    return values


# a first path may lie up to 6 dB below the peak in power; a sinc main lobe's
# first sidelobe, 13.3 dB below its peak, stays out of reach (ROADMAP item 4)
_FIRST_PATH_LEVEL = 10.0 ** (-6.0 / 10.0)


def _first_path_lag(values: np.ndarray, lag: int, threshold: float,
                    params: WaveformParams) -> int:
    """The signed lag of the first path: the top of the earliest run of bins
    at the first-path level before ``lag``.

    The level is ``max(threshold, peak - 6 dB)``, the peak being the bin at
    ``lag``.  The earliest bin at that level is the leading edge of a main
    lobe, which for ``ofdm``, about ``m / n_zc`` bins wide, lies bins before
    the path; the read-out climbs from it while the next bin is stronger,
    to the lobe's top.  The search runs from ``W = min(C, m - C - 1)``
    down to ``G = max(2, ceil(m / B))`` bins before ``lag``, ``C`` being the CP in
    bins (``floor(cp_len * m / n_dft)``) and ``B`` the reference's occupied
    bins (``m`` for ``otfs``, ``n_zc`` for ``ofdm``).  ``G`` skips the
    peak's own main lobe and its neighbour.  The profile is cyclic, so the
    bin ``k`` before the peak is also the image of an echo ``m - k`` bins
    after it; ``W`` stops where that echo would still lie within the CP, so
    no late echo is read as an arrival nearly ``m`` bins early; the climb
    stays in the window too.  ``lag`` itself when no bin reaches the level
    or the window is shorter than ``G``.
    """
    occupied = params.m if params.modulation == "otfs" else params.n_zc
    guard = max(2, math.ceil(params.m / occupied))
    cp_bins = params.cp_len * params.m // params.n_dft
    window = min(cp_bins, params.m - cp_bins - 1)
    if window < guard:
        return lag
    level = max(threshold, values[lag % params.m] * _FIRST_PATH_LEVEL)
    lags = np.arange(lag - window, lag - guard + 1)  # earliest first
    powers = values.take(lags, mode="wrap")
    first = int(np.argmax(powers >= level))
    if powers[first] < level:
        return lag
    # from the lobe's leading edge up to its top
    while first + 1 < len(lags) and powers[first + 1] > powers[first]:
        first += 1
    return int(lags[first])


def receive_and_estimate_toa(
    samples,
    params: WaveformParams,
    target_pfa: float = 1e-3,
    interpolate_peak: bool = False,
) -> ToaEstimate:
    """Detect the preamble and estimate the time of arrival of its first path.

    Demodulates ``samples``, one frame framed as ``params`` says, applies
    the matched filter to every symbol, combines the correlation powers
    non-coherently and compares the peak against :func:`detection_threshold`.
    The peak delay bin ``b`` is read as the lag ``b``, or as ``b - m`` when
    it lies past the CP (``b > cp_len * m / n_dft``) and within one main
    lobe of the profile's end (``b >= m - ceil(m / n_zc)``).  A detected
    frame then reads the top of the earliest run of bins before that lag
    whose power is at least ``max(threshold, peak - 6 dB)`` (see
    :func:`_first_path_lag`), so a strong late echo does not hide the line
    of sight; a miss keeps the peak's lag.  The lag is rescaled to DFT-rate
    samples (``lag * n_dft / m``), so an early arrival gives a negative
    delay.  With
    ``interpolate_peak`` the two profile bins flanking the chosen bin refine
    the lag to a sub-bin position (``refined_sample_delay``); the integer
    read-out is unchanged.
    """
    tf = wigner_demodulate(samples, params.n_dft, params.cp_len, params.m, params.n)
    values = _combined_profile(tf, params)
    threshold = detection_threshold(values, target_pfa)
    peak = int(np.argmax(values))  # the smallest lag on ties
    detected = bool(values[peak] >= threshold)
    stride = params.n_dft / params.m
    # the profile is cyclic: a peak past the CP and within one main lobe of
    # the last bin is an early arrival, read as a negative lag
    past_cp = peak > params.cp_len * params.m / params.n_dft
    in_last_lobe = peak >= params.m - math.ceil(params.m / params.n_zc)
    lag = peak - params.m if past_cp and in_last_lobe else peak
    if detected:
        lag = _first_path_lag(values, lag, threshold, params)
    sample_delay = int(round(lag * stride))
    refined = None
    if interpolate_peak and detected:
        amplitudes = np.sqrt(values)
        left = amplitudes[(lag - 1) % params.m]
        right = amplitudes[(lag + 1) % params.m]
        centre = amplitudes[lag % params.m]
        if right >= left:
            offset = right / (centre + right)
        else:
            offset = -left / (centre + left)
        refined = (lag + offset) * stride
    return ToaEstimate(detected, sample_delay, threshold, values, refined)


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
