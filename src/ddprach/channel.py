"""Tapped delay-line channel with per-tap Doppler, noise and link budget.

Each propagation path is a tap with complex gain, absolute delay and Doppler
shift; applying the channel evaluates

``y(t) = sum_i  g_i * exp(j 2 pi nu_i (t - tau_i)) * x(t - tau_i)``

at the waveform sample instants.  Sub-sample delays are realized with a
64-tap Kaiser-windowed sinc interpolator.  The module also covers AWGN
injection (SNR-relative or absolute noise power), the free-space link
budget, tap-file I/O and a synthetic scenario channel built from the
flyover geometry.
"""

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np

from .dd_transform import Waveform
from .uav_scenario import AntennaConfig, TrajectoryPoint, antenna_gain
from .units import SPEED_OF_LIGHT

__all__ = [
    "ChannelTap",
    "ChannelRealization",
    "NlosSpec",
    "LinkBudget",
    "TapFileError",
    "apply_channel",
    "add_awgn",
    "add_noise_power",
    "received_power",
    "channel_gain",
    "load_taps",
    "save_taps",
    "synthesize_scenario_channel",
]

# distinguishes a LoS realization: NLoS when the strongest late tap comes
# within this many dB of the first (shortest) tap
LOS_TAG_MARGIN_DB = 6.0

# windowed-sinc interpolator used for fractional-sample tap delays
_INTERP_TAPS = 64
_INTERP_BETA = 8.6
_INTERP_LAGS = np.arange(-(_INTERP_TAPS // 2 - 1), _INTERP_TAPS // 2 + 1)
_INTERP_WINDOW = np.kaiser(_INTERP_TAPS, _INTERP_BETA)


class TapFileError(ValueError):
    """Raised when a tap CSV file cannot be parsed."""


@dataclass
class ChannelTap:
    """One propagation path."""

    gain: complex          # complex amplitude (linear)
    delay_s: float         # absolute propagation delay [s]
    doppler_hz: float      # Doppler shift [Hz]


@dataclass
class ChannelRealization:
    """All taps seen from one trajectory point."""

    point_index: int
    true_distance_m: float
    taps: list[ChannelTap]
    los_tag: bool | None = None

    def __post_init__(self):
        if not self.taps:
            raise ValueError("a channel realization needs at least one tap")
        self.taps = sorted(self.taps, key=lambda tap: tap.delay_s)
        if self.los_tag is None:
            self.los_tag = _classify_los(self.taps)


@dataclass
class NlosSpec:
    """Random scatterer population for the synthetic scenario channel."""

    count: int = 2
    excess_delay_range_s: tuple[float, float] = (6.7e-8, 5.0e-7)
    relative_power_db_range: tuple[float, float] = (-6.0, -3.0)


@dataclass
class LinkBudget:
    """dB-domain budget terms for the squared channel gain."""

    p_r_db: float          # received power [dBm or dBW, consistent with p_t]
    p_t_db: float          # transmit power, same unit as p_r_db
    g_rmax_db: float       # receive antenna boresight gain [dB]
    g_tmax_db: float       # transmit antenna boresight gain [dB]
    ls_db: float = 0.0     # extra large-scale loss term [dB]


def _classify_los(taps: list[ChannelTap]) -> bool:
    """True (LoS) unless a later tap is within LOS_TAG_MARGIN_DB of tap 0."""
    if len(taps) == 1:
        return True
    first = abs(taps[0].gain) ** 2
    strongest_late = max(abs(tap.gain) ** 2 for tap in taps[1:])
    if first == 0.0:
        return False
    return strongest_late < first * 10.0 ** (-LOS_TAG_MARGIN_DB / 10.0)


def apply_channel(waveform: Waveform, realization: ChannelRealization) -> Waveform:
    """Run a waveform through the tapped delay-line channel (no noise).

    ``waveform.samples`` is one frame ``(L,)`` or a stack ``(S, L)`` of frames
    sharing the framing; every row goes through the same taps and matches a
    single-frame call exactly.  Integer tap delays are exact shifts;
    fractional parts use the Kaiser-windowed sinc interpolator.  Each delayed
    frame keeps the input length (tail truncated, head zero-filled).
    """
    x = waveform.samples
    fs = waveform.sample_rate
    n = x.shape[-1]
    duration = n / fs
    t = np.arange(n) / fs
    rows = x.reshape(-1, n)
    out = np.zeros_like(rows)
    for tap in realization.taps:
        if tap.delay_s < 0:
            raise ValueError(f"tap delay must be >= 0, got {tap.delay_s}")
        if tap.delay_s >= duration:
            raise ValueError(
                f"tap delay {tap.delay_s} s exceeds the frame duration "
                f"{duration} s"
            )
        delay_samples = tap.delay_s * fs
        n0 = int(math.floor(delay_samples))
        mu = delay_samples - n0
        on_grid = mu < 1e-12 or mu > 1.0 - 1e-12
        if on_grid:
            n0 = int(round(delay_samples))
        else:
            kernel = np.sinc(_INTERP_LAGS - mu) * _INTERP_WINDOW
        phasor = tap.gain * np.exp(2j * np.pi * tap.doppler_hz * (t - tap.delay_s))
        for row, acc in zip(rows, out):
            if on_grid:
                delayed = row
            else:
                delayed = np.convolve(row, kernel)[_INTERP_TAPS // 2 - 1 :]
            acc[n0:] += phasor[n0:] * delayed[: n - n0]
    return Waveform(out.reshape(x.shape), fs, waveform.n_dft, waveform.cp_len)


def add_awgn(waveform: Waveform, snr_db: float | None, seed=None) -> Waveform:
    """Add circular complex white Gaussian noise at a target SNR.

    The noise variance is scaled to the measured mean power of the input,
    row by row for a ``(S, L)`` stack; the rows share one unit noise draw
    (see :func:`add_noise_power`).  ``snr_db=None`` or ``+inf`` returns the
    waveform unchanged (noiseless).
    """
    if snr_db is None or math.isinf(snr_db):
        return Waveform(
            waveform.samples.copy(), waveform.sample_rate, waveform.n_dft,
            waveform.cp_len,
        )
    signal_power = np.mean(np.abs(waveform.samples) ** 2, axis=-1)
    if np.any(signal_power == 0.0):
        raise ValueError("cannot set an SNR on an all-zero waveform")
    return _add_noise(waveform, signal_power * 10.0 ** (-snr_db / 10.0), seed)


def add_noise_power(waveform: Waveform, noise_power_watts: float, seed=None) -> Waveform:
    """Add circular complex white Gaussian noise of absolute mean power.

    A ``(S, L)`` stack gets one ``(L,)`` noise vector added to every row, so
    each row equals a single-frame call with the same seed.
    """
    if noise_power_watts < 0:
        raise ValueError("noise power must be >= 0")
    return _add_noise(waveform, noise_power_watts, seed)


def _add_noise(waveform: Waveform, noise_power, seed) -> Waveform:
    """Add one unit noise draw scaled by a scalar or per-row noise power."""
    rng = np.random.default_rng(seed)
    n = waveform.samples.shape[-1]
    unit = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scale = np.sqrt(np.asarray(noise_power) / 2.0)
    noisy = waveform.samples.copy()
    rows = noisy.reshape(-1, n)
    for row, row_scale in zip(rows, np.broadcast_to(scale, rows.shape[:1])):
        row += row_scale * unit
    return Waveform(noisy, waveform.sample_rate, waveform.n_dft, waveform.cp_len)


def received_power(
    p_t_watts: float,
    wavelength_m: float,
    distance_m: float,
    g_t_db: float = 0.0,
    g_r_db: float = 0.0,
    friis_gains: bool = False,
) -> float:
    """Free-space received power in watts.

    Default form: ``P_r = P_t (lambda / 4 pi d)^2 (G_t G_r)^2`` with linear
    gains, i.e. the antenna gain product enters squared.  ``friis_gains=True``
    switches to the textbook Friis form with a first-power gain product.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    gains = 10.0 ** (g_t_db / 10.0) * 10.0 ** (g_r_db / 10.0)
    if not friis_gains:
        gains = gains**2
    return p_t_watts * (wavelength_m / (4.0 * math.pi * distance_m)) ** 2 * gains


def channel_gain(budget: LinkBudget) -> float:
    """Squared channel gain |h|^2 from a dB link budget.

    ``Pg = P_r - P_t - G_rmax - G_tmax + LS`` (dB), ``|h|^2 = 10^(Pg / 10)``.
    """
    pg_db = (
        budget.p_r_db
        - budget.p_t_db
        - budget.g_rmax_db
        - budget.g_tmax_db
        + budget.ls_db
    )
    return 10.0 ** (pg_db / 10.0)


# ---------------------------------------------------------------------------
# tap-file I/O
# ---------------------------------------------------------------------------

TAPS_HEADER = [
    "point_index",
    "true_distance_m",
    "gain_db",
    "phase_rad",
    "delay_s",
    "doppler_hz",
]


def load_taps(path) -> dict[int, ChannelRealization]:
    """Load per-point channel taps from CSV (one row per tap).

    Columns: ``point_index,true_distance_m,gain_db,phase_rad,delay_s,doppler_hz``.
    Rows are grouped by ``point_index``; taps are sorted by delay and the
    LoS tag is derived from the tap powers.  Malformed rows raise
    :class:`TapFileError` with the offending line number.
    """
    groups: dict[int, list[ChannelTap]] = {}
    distances: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TAPS_HEADER:
            raise TapFileError(
                f"{path}: line 1: expected header {','.join(TAPS_HEADER)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TAPS_HEADER):
                raise TapFileError(
                    f"{path}: line {line_no}: expected {len(TAPS_HEADER)} "
                    f"fields, got {len(row)}"
                )
            try:
                point = int(row[0])
                distance = float(row[1])
                gain_db = float(row[2])
                phase = float(row[3])
                delay = float(row[4])
                doppler = float(row[5])
            except ValueError as exc:
                raise TapFileError(f"{path}: line {line_no}: {exc}") from exc
            if delay < 0:
                raise TapFileError(
                    f"{path}: line {line_no}: negative delay {delay}"
                )
            gain = 10.0 ** (gain_db / 20.0) * cmath.exp(1j * phase)
            groups.setdefault(point, []).append(ChannelTap(gain, delay, doppler))
            distances[point] = distance
    return {
        point: ChannelRealization(point, distances[point], taps)
        for point, taps in sorted(groups.items())
    }


def save_taps(path, realizations) -> None:
    """Write channel realizations to CSV in the canonical column order.

    Accepts either an iterable of :class:`ChannelRealization` or the
    point-indexed mapping that :func:`load_taps` returns.
    """
    if isinstance(realizations, dict):
        realizations = realizations.values()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TAPS_HEADER)
        for real in sorted(realizations, key=lambda r: r.point_index):
            for tap in real.taps:
                amplitude = abs(tap.gain)
                if amplitude == 0.0:
                    raise ValueError("cannot store a zero-gain tap in dB")
                writer.writerow(
                    [
                        real.point_index,
                        f"{real.true_distance_m:.12g}",
                        f"{20.0 * math.log10(amplitude):.12g}",
                        f"{cmath.phase(tap.gain):.12g}",
                        f"{tap.delay_s:.12g}",
                        f"{tap.doppler_hz:.12g}",
                    ]
                )


# ---------------------------------------------------------------------------
# synthetic scenario channel
# ---------------------------------------------------------------------------

def synthesize_scenario_channel(
    point: TrajectoryPoint,
    carrier_hz: float,
    antenna: AntennaConfig,
    tilt_deg: float,
    nlos: NlosSpec | None = None,
    seed=None,
    g_t_db: float = 0.0,
    doppler_scale: float = 1.0,
) -> ChannelRealization:
    """Build a channel realization from the flyover geometry.

    The line-of-sight tap follows free space: delay from the 3-D distance,
    Doppler from the projection of the (horizontal) velocity onto the path,
    amplitude from the link budget with the directional antenna evaluated at
    the geometric elevation, and carrier phase ``-2 pi f_c tau``.  Each NLoS
    tap adds a random excess delay, a random reflection loss relative to
    free space at its own path length, an antenna gain drawn at a random
    arrival elevation, a uniform phase and a Doppler from a random arrival
    direction.  ``doppler_scale`` multiplies every tap Doppler; values above
    one emulate higher-mobility platforms without changing the geometry.
    """
    rng = np.random.default_rng(seed)
    wavelength = SPEED_OF_LIGHT / carrier_hz
    distance = point.distance_m
    tau0 = distance / SPEED_OF_LIGHT
    # velocity is +x; path direction from UAV towards the target
    radial_speed = point.speed_mps * (-point.horizontal_offset_m / distance)
    doppler0 = radial_speed * carrier_hz / SPEED_OF_LIGHT * doppler_scale

    def path_amplitude(path_m: float, elevation: float) -> float:
        g_r_db = antenna_gain(0.0, elevation, tilt_deg, antenna)
        p_r = received_power(1.0, wavelength, path_m, g_t_db, g_r_db)
        return math.sqrt(p_r)

    los_gain = path_amplitude(distance, point.elevation_deg) * cmath.exp(
        -2j * np.pi * carrier_hz * tau0
    )
    taps = [ChannelTap(los_gain, tau0, doppler0)]
    if nlos is not None:
        for _ in range(nlos.count):
            excess = rng.uniform(*nlos.excess_delay_range_s)
            loss_db = rng.uniform(*nlos.relative_power_db_range)
            arrival_deg = rng.uniform(0.0, 90.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            path_m = distance + excess * SPEED_OF_LIGHT
            amplitude = path_amplitude(path_m, arrival_deg) * 10.0 ** (loss_db / 20.0)
            doppler = (
                point.speed_mps
                * math.cos(rng.uniform(0.0, np.pi))
                * carrier_hz
                / SPEED_OF_LIGHT
                * doppler_scale
            )
            taps.append(ChannelTap(amplitude * cmath.exp(1j * phase), tau0 + excess, doppler))
    return ChannelRealization(point.index, distance, taps)
