"""Tapped delay-line channel with per-tap Doppler, noise and link budget.

Each propagation path is a tap with complex gain, absolute delay and Doppler
shift; applying the channel evaluates

``y(t) = sum_i  g_i * exp(j 2 pi nu_i (t - tau_i)) * x(t - tau_i)``

at the sample instants.  Sub-sample delays are realized with a
64-tap Kaiser-windowed sinc interpolator.  The module also covers AWGN
injection (SNR-relative or absolute noise power), the free-space link
budget, tap-file I/O and a synthetic scenario channel built from the
flyover geometry.
"""

import cmath
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .metrics import write_rows
from .prach_modem import WaveformParams
from .uav_scenario import AntennaConfig, TrajectoryPoint, antenna_gain
from .units import SPEED_OF_LIGHT

__all__ = [
    "ChannelTap",
    "ChannelRealization",
    "FrameBuffers",
    "NlosSpec",
    "TapFileError",
    "apply_channel",
    "add_awgn",
    "received_power",
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
_UNIT_KERNEL = np.ones(1)  # on-grid delays: a plain shift
# how far the longest kernel reaches past its output sample; also the length
# of the zero gap between the halves of a row span's operand (see _row_plan)
_REACH = _INTERP_TAPS - 1
_INTERP_GAP = np.zeros(_REACH)

# Doppler phasors are the outer product of one exponential per block of this
# many samples and one per in-block offset
_PHASOR_BLOCK = 64
_PHASOR_OFFSETS = np.arange(_PHASOR_BLOCK)


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


def _classify_los(taps: list[ChannelTap]) -> bool:
    """True (LoS) unless a later tap is within LOS_TAG_MARGIN_DB of tap 0."""
    if len(taps) == 1:
        return True
    first = abs(taps[0].gain) ** 2
    strongest_late = max(abs(tap.gain) ** 2 for tap in taps[1:])
    return strongest_late < first * 10.0 ** (-LOS_TAG_MARGIN_DB / 10.0)


class FrameBuffers:
    """What a pass over one sample array, an ``(S, L)`` stack or one ``(L,)``
    frame, keeps for a later pass over it to reuse.

    ``apply_channel`` and ``add_awgn`` write their output into the stack
    ``frames`` when given ``buffers=`` and return it, so it holds only until
    the next call on the same buffers.  The stack is kept because one allocated
    per pass is freed at every work item, and malloc then returns its pages and
    faults them in again; scratch arrays live for one call.  The buffers keep
    ``samples``: the first ``apply_channel`` on them plans its rows for its
    framing's period ``n_dft + cp_len``, later ones reuse the plan at any
    framing, since a span copies outputs only at the period it was found to
    repeat with, and one on another array raises ``ValueError``.  They keep,
    per tap position, the whole filtered output of each row span last made
    there, uncut, and the delay in samples it was made for; a later pass whose
    tap at that position has the same delay in samples reuses it, and each pass
    cuts it to the delayed frame.  They keep the unit noise row last drawn, in
    ``unit``, and the ``SeedSequence`` it was drawn from, in ``seed``; an
    ``add_awgn`` call given that very object reuses the row, and any other seed
    draws it anew.  The array must not change while the buffers serve it.
    One object serves one thread at a time; the experiment runners make one
    per process of a run, so ``--threads K`` holds K sets, one in each
    forked worker process.
    """

    def __init__(self, samples: np.ndarray):
        self.samples = samples                                  # the array they serve
        self.rows = None                                        # its row plan, once made
        self.taps = []                                          # _FilteredTap per tap position
        self.frames = np.empty(samples.shape, dtype=complex)    # the output stack
        self.unit = np.empty(samples.shape[-1], dtype=complex)  # the unit noise row
        self.seed = None                                        # the SeedSequence of unit


class _FilteredTap:
    """One tap's filtered output of each row span of a row plan, kept whole,
    before its delay cut, gain and Doppler phasor.

    These depend on the tap's delay in samples alone, which ``delay`` holds
    (``None`` until :func:`_filter_tap` fills them), with ``n0`` its integer
    part.  ``spans`` holds ``(row, at, values)`` per row span: its filtered
    output, as a view of ``storage``, which lands on frame samples
    ``at .. at + values.size - 1`` of the row; :func:`_add_tap` adds the
    part of it on the delayed frame.
    """

    def __init__(self, rows: list):
        # a span's output is at most _REACH samples longer than the span
        size = sum(stop - first + _REACH for _, first, stop, *_ in rows)
        self.storage = np.empty(size, dtype=complex)
        self.delay = None
        self.n0 = 0
        self.spans = []


def _row_plan(x: np.ndarray, period: int) -> list:
    """``(row, first, stop, operand, pieces, copies)`` per row of ``x`` with a
    nonzero sample: the recipe by which :func:`_filter_tap` fills the row's
    filtered nonzero span ``first .. stop - 1``.

    ``np.convolve`` computes filtered span sample ``j`` as one dot product of
    the kernel with span samples ``j - K + 1 .. j`` (``K <= _INTERP_TAPS``
    kernel taps).  When the span repeats bit for bit with ``period``, every
    ``j`` from ``period + _REACH`` to the span end is the same dot product as
    ``j - period``, so a copy of that output is exact.  Only a head of
    ``period + _REACH`` samples and, for the outputs past the span end, the
    last ``_REACH`` samples need filtering; otherwise the whole span does.
    The kernels are real, so ``operand`` holds each of these halves' real
    and imaginary parts, ``[re, gap, im]`` or ``[head re, gap, head im, gap,
    tail re, gap, tail im]``, and goes through one real convolution; each
    ``_REACH``-sample zero gap keeps the outputs of its neighbours apart.
    Each of ``pieces``, ``(lo, hi, at, size)``, fills filtered samples
    ``lo .. hi - 1`` (``hi=None``: to the last) with the real parts of the
    convolution from output ``at`` on and the imaginary parts ``size``
    outputs later; each of ``copies``, ``(lo, hi, source)``, in order, then
    repeats the filtered samples from ``source`` on into ``lo .. hi - 1``.
    """
    n = x.shape[-1]
    rows = []
    for index, row in enumerate(x.reshape(-1, n)):
        nonzero = row != 0
        if not nonzero.any():
            continue
        first = int(nonzero.argmax())
        stop = n - int(nonzero[::-1].argmax())
        span = row[first:stop]
        end = span.size
        if _repeats(span, period):
            head = period + _REACH
            halves = (span[:head], span[-_REACH:])
            # the outputs past the span end read the tail, the last half
            # pair; those before it repeat every period
            pieces = [(0, head, 0, head + _REACH), (end, None, 2 * head + 3 * _REACH, 2 * _REACH)]
            copies = [(i, min(i + period, end), i - period) for i in range(head, end, period)]
        else:
            halves, pieces, copies = (span,), [(0, None, 0, end + _REACH)], []
        # no gap after the last half: a trailing one changes output bits
        parts = [part for h in halves for part in (h.real, _INTERP_GAP, h.imag, _INTERP_GAP)]
        rows.append((index, first, stop, np.concatenate(parts[:-1]), pieces, copies))
    return rows


def apply_channel(
    params: WaveformParams,
    realization: ChannelRealization,
    samples,
    buffers: FrameBuffers | None = None,
) -> np.ndarray:
    """Run samples through the tapped delay-line channel (no noise).

    ``samples``, read as complex, is one frame ``(L,)`` or a stack ``(S, L)``
    of frames; of their framing, ``params``, the channel reads ``sample_rate``
    and the period ``n_dft + cp_len``.  Every row goes through the same taps
    and matches a single-frame call exactly.  Integer tap delays are exact shifts;
    fractional parts use the Kaiser-windowed sinc interpolator.  Each delayed
    frame keeps the input length (tail truncated, head zero-filled).  Only
    the span between a row's first and last nonzero sample is filtered, so
    the work per row scales with that span; a span that repeats bit for bit
    every ``n_dft + cp_len`` samples is filtered over one period and its
    edges only, with the same output.  With ``buffers``, made from this very
    array, the result is written into ``buffers.frames``, the row plan of
    the first call on them serves this one at any framing, and a tap whose
    delay in samples equals the one the buffers last filtered at its
    position reuses those filtered spans (see :class:`FrameBuffers`).
    """
    x = np.asarray(samples, dtype=complex)
    fs = params.sample_rate
    n = x.shape[-1]
    delays = [check_tap_delay(tap, fs, n) for tap in realization.taps]
    if buffers is None:
        buffers = FrameBuffers(x)
    elif buffers.samples is not x:
        raise ValueError("the buffers were made from another array")
    if buffers.rows is None:
        buffers.rows = _row_plan(x, params.n_dft + params.cp_len)
    buffers.frames.fill(0)
    out = buffers.frames.reshape(-1, n)
    for index, (tap, delay) in enumerate(zip(realization.taps, delays)):
        if index == len(buffers.taps):
            buffers.taps.append(_FilteredTap(buffers.rows))
        filtered = buffers.taps[index]
        if filtered.delay != delay:
            _filter_tap(filtered, delay, buffers.rows)
        _add_tap(out, filtered, tap, fs)
    return buffers.frames


def _repeats(span: np.ndarray, period: int) -> bool:
    """True if ``span`` repeats bit for bit with ``period`` and is longer
    than ``period + _REACH`` samples.

    Bits, not values, are compared, so that a ``-0.0`` against ``+0.0`` or a
    NaN makes the span count as not repeating.
    """
    if not 0 < period < span.size - _REACH:
        return False
    return all(
        np.array_equal(bits[period:], bits[:-period])
        for bits in (span.real.view(np.uint64), span.imag.view(np.uint64))
    )


def check_tap_delay(tap: ChannelTap, fs: float, n: int) -> float:
    """Return a tap's delay in samples; raise ``ValueError`` unless it lies
    within an ``n``-sample frame: the one frame rule of :func:`apply_channel`,
    of a synthetic pass's bounding taps and of each taps-file point."""
    duration = n / fs
    if not tap.delay_s >= 0:
        raise ValueError(f"tap delay must be >= 0, got {tap.delay_s}")
    if tap.delay_s >= duration:
        raise ValueError(
            f"tap delay {tap.delay_s} s exceeds the frame duration {duration} s"
        )
    return tap.delay_s * fs


def check_link_budget(realization: ChannelRealization, p_t_watts: float) -> None:
    """Raise ``ValueError`` unless the strongest of a realization's taps
    receives a normal double at ``p_t_watts``: the frame's mean ``|x|^2`` is
    that power, and below it underflows, to zero at last."""
    strongest = p_t_watts * max(abs(tap.gain) ** 2 for tap in realization.taps)
    if not strongest >= sys.float_info.min:
        raise ValueError(
            f"the strongest tap receives {strongest} W, below {sys.float_info.min} W"
        )


def _tap_delay(delay_samples: float):
    """Split a delay in samples into ``(n0, kernel)``: the integer delay
    ``n0`` and the sinc kernel for the fractional part; an on-grid delay gets
    the unit kernel."""
    n0 = int(math.floor(delay_samples))
    mu = delay_samples - n0
    if mu < 1e-12 or mu > 1.0 - 1e-12:
        return int(round(delay_samples)), _UNIT_KERNEL
    return n0, np.sinc(_INTERP_LAGS - mu) * _INTERP_WINDOW


def _filter_tap(filtered: _FilteredTap, delay: float, rows: list) -> None:
    """Fill ``filtered`` with the spans of a tap ``delay`` samples late.

    ``rows`` is a row plan from :func:`_row_plan`.  Each span
    ``first .. stop - 1`` is filtered by the tap's kernel, whole, into
    ``filtered.storage``, with one convolution of its operand, whose outputs
    fill the span's pieces before its copies are made; :func:`_add_tap` cuts
    it to the delayed frame.
    """
    filtered.delay = None  # a fill cut short by an error must never match
    n0, kernel = _tap_delay(delay)
    # filtered span sample j is row sample first + j - lead, frame sample
    # n0 + first + j - lead
    lead = (kernel.size - 1) // 2
    spans = []
    used = 0
    for row, first, stop, operand, pieces, copies in rows:
        values = filtered.storage[used : used + stop - first + kernel.size - 1]
        used += values.size
        convolved = np.convolve(operand, kernel)
        for lo, hi, at, size in pieces:
            out = values[lo:hi]
            out.real = convolved[at : at + out.size]
            out.imag = convolved[at + size : at + size + out.size]
        for lo, hi, source in copies:
            values[lo:hi] = values[source : source + hi - lo]
        spans.append((row, n0 + first - lead, values))
    filtered.spans = spans
    filtered.n0 = n0
    filtered.delay = delay


def _add_tap(out: np.ndarray, filtered: _FilteredTap, tap: ChannelTap, fs: float):
    """Add one tap's filtered output of each row span to its row of ``out``.

    This is where a span is cut to the delayed frame: its part on frame
    samples ``n0 .. n - 1``, the head before ``n0`` being zero-filled.  That
    part is rotated by the tap's gain and Doppler phasor, built once over
    the frame; the stored outputs stay as they are.
    """
    n = out.shape[-1]
    phasor = _doppler_phasor(tap, fs, n)
    for row, at, values in filtered.spans:
        lo = max(at, filtered.n0)
        hi = min(at + values.size, n)
        if hi <= lo:
            continue  # delayed wholly past the frame end
        # keep the operand order phasor * values: a complex product can
        # differ in the last bit when its operands are swapped
        out[row, lo:hi] += phasor[lo:hi] * values[lo - at : hi - at]


def _doppler_phasor(tap: ChannelTap, fs: float, n: int) -> np.ndarray:
    """``g exp(j 2 pi nu (t - tau))`` at frame samples ``0 .. n - 1``,
    rounded up to whole ``_PHASOR_BLOCK``-sample blocks, flattened.

    Sample ``i = B b + o`` (``B = _PHASOR_BLOCK``) is the product of a block
    exponential at ``t = B b / fs`` and an offset exponential at ``o / fs``.
    """
    block_starts = np.arange(-(-n // _PHASOR_BLOCK)) * _PHASOR_BLOCK
    blocks = tap.gain * np.exp(
        2j * np.pi * tap.doppler_hz * (block_starts / fs - tap.delay_s)
    )
    offsets = np.exp(2j * np.pi * tap.doppler_hz * (_PHASOR_OFFSETS / fs))
    return (blocks[:, None] * offsets).reshape(-1)


def add_awgn(
    samples,
    snr_db: float | None = None,
    seed=None,
    buffers: FrameBuffers | None = None,
    *,
    noise_power_watts=None,
) -> np.ndarray:
    """Add circular complex white Gaussian noise, at a target SNR or of an
    absolute mean power.

    ``samples``, read as complex, is one ``(L,)`` frame or an ``(S, L)``
    stack.  The two noise arguments exclude each other, as the config's
    ``noise`` fields do.  ``snr_db`` scales the noise to the measured mean
    power of each row: the dot product of the row's float view with itself,
    over ``L``; NaN and ``-inf`` raise ``ValueError``, and so does a row that
    is all zero.  ``noise_power_watts`` is one power for every row or one per
    row of a ``(S, L)`` stack.  Either way each power must be finite and
    ``>= 0``, or ``ValueError`` is raised.  With neither, or ``snr_db=+inf``,
    a copy of the samples is returned (noiseless) and nothing is drawn.

    One ``(L,)`` unit noise row, drawn from ``seed``, is scaled to each row's
    power and added, so each row equals a single-frame call with the same
    seed.  With ``buffers`` the noise is added in place onto
    ``buffers.frames``, after copying the input there unless it already is
    that array; a ``seed`` that is the very ``SeedSequence`` the buffers last
    drew from reuses their row, bit for bit a new draw's.  ``None`` draws
    fresh entropy, an ``int`` the same bits again and a ``Generator`` its
    next values.
    """
    if snr_db is not None and noise_power_watts is not None:
        raise ValueError("snr_db and noise_power_watts are mutually exclusive")
    if snr_db is not None and (math.isnan(snr_db) or snr_db == -math.inf):
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
    x = np.asarray(samples, dtype=complex)
    if buffers is None:
        buffers = FrameBuffers(x)
    elif buffers.frames.shape != x.shape:
        raise ValueError(f"buffers hold frames of shape {buffers.frames.shape}, got {x.shape}")
    if x is not buffers.frames:
        np.copyto(buffers.frames, x)
    noise, n = buffers.unit, buffers.unit.size
    rows = buffers.frames.reshape(-1, n)
    if noise_power_watts is None:
        if snr_db is None or snr_db == math.inf:
            return buffers.frames
        # not np.dot: OpenBLAS threads a ddot this long, so its bits would
        # follow the BLAS thread count and its idle threads spin beside
        # forked workers
        floats = rows.view(float)
        signal_power = np.einsum("ij,ij->i", floats, floats) / n
        if np.any(signal_power == 0.0):
            raise ValueError("cannot set an SNR on an all-zero waveform")
        noise_power_watts = signal_power * 10.0 ** (-snr_db / 10.0)
    noise_power = np.asarray(noise_power_watts, dtype=float)
    if not np.isfinite(noise_power).all() or (noise_power < 0).any():
        raise ValueError(f"noise power must be finite and >= 0, got {noise_power_watts}")
    row_scales = np.full(len(rows), np.sqrt(noise_power / 2.0))
    # default_rng leaves a SeedSequence as it was, so the row of the very one
    # the buffers last drew from is still theirs; any other seed draws
    if not (seed is buffers.seed and isinstance(seed, np.random.SeedSequence)):
        # one standard_normal draw of 2L values: the L real parts, then the
        # L imaginary parts
        draws = np.random.default_rng(seed).standard_normal(2 * n)
        noise.real = draws[:n]
        noise.imag = draws[n:]
        buffers.seed = seed
    for row, row_scale in zip(rows, row_scales):
        # keep the operand order row_scale * noise, as for the phasor above
        row += row_scale * noise
    return buffers.frames


def received_power(
    p_t_watts: float,
    wavelength_m: float,
    distance_m: float,
    g_t_db: float = 0.0,
    g_r_db: float = 0.0,
) -> float:
    """Free-space received power in watts.

    Friis's transmission formula, ``P_r = P_t (lambda / 4 pi d)^2 G_t G_r``
    with linear power gains (H. T. Friis, "A Note on a Simple Transmission
    Formula", Proc. IRE 34(5), 1946).
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    gains = 10.0 ** (g_t_db / 10.0) * 10.0 ** (g_r_db / 10.0)
    return p_t_watts * (wavelength_m / (4.0 * math.pi * distance_m)) ** 2 * gains


# ---------------------------------------------------------------------------
# tap-file I/O
# ---------------------------------------------------------------------------

# the largest dB level, of a config field or a taps-file gain: 10**(x/10)
# stays finite, and so does received_power's product of two such gains,
# 10**(2 * 300 / 10) = 1e60
MAX_DB = 300.0
# the top of the ITU radio spectrum, the config's largest carrier; a Doppler
# v f_c / c with v below light's speed is at most that, so it bounds a
# taps-file Doppler too
MAX_CARRIER_HZ = 3.0e12

# the taps file's columns in file order: each one's type, the rule its value
# obeys once every float is finite, and the reason for a value that breaks it;
# point_index is an int of any size, and a run ignores a point past its pass
TAPS_COLUMNS = {
    "point_index": (int, lambda v: v >= 0, "negative point_index {}"),
    "true_distance_m": (float, lambda v: v > 0, "true_distance_m {} is not positive"),
    "gain_db": (float, lambda v: -MAX_DB <= v <= MAX_DB,
                f"gain {{}} dB is outside [{-MAX_DB}, {MAX_DB}]"),
    "phase_rad": (float, lambda v: True, None),  # any finite angle
    "delay_s": (float, lambda v: v >= 0, "negative delay {}"),
    "doppler_hz": (float, lambda v: abs(v) <= MAX_CARRIER_HZ,
                   f"Doppler {{}} Hz is outside [{-MAX_CARRIER_HZ}, {MAX_CARRIER_HZ}]"),
}
TAPS_HEADER = list(TAPS_COLUMNS)


def _check_tap_row(row: dict, distances: dict) -> None:
    """Raise ``ValueError`` with the reason unless ``row``, a value per
    column of :data:`TAPS_COLUMNS`, obeys each column's rule, and its
    ``true_distance_m`` equals the one in ``distances`` of its point's
    earlier rows; record it there for a first row of its point."""
    floats = (row[column] for column, (kind, *_) in TAPS_COLUMNS.items() if kind is float)
    if not all(map(math.isfinite, floats)):
        raise ValueError("non-finite value")
    for column, (_, rule, reason) in TAPS_COLUMNS.items():
        if not rule(row[column]):
            raise ValueError(reason.format(row[column]))
    point, distance = row["point_index"], row["true_distance_m"]
    if distances.setdefault(point, distance) != distance:
        raise ValueError(
            f"point {point}: true_distance_m {distance} "
            f"differs from {distances[point]} on its earlier rows"
        )


def _read_rows(path):
    """Read a taps file: yield ``(line_no, row)`` for each non-blank line
    after the header line, ``row`` mapping each column to its text.

    A first line other than :data:`TAPS_HEADER`, or a row with another field
    count, raises :class:`TapFileError` naming the path and the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != TAPS_HEADER:
            raise TapFileError(f"{path}: line 1: expected header {','.join(TAPS_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TAPS_HEADER):
                raise TapFileError(
                    f"{path}: line {line_no}: expected {len(TAPS_HEADER)} fields, got {len(row)}"
                )
            yield line_no, dict(zip(TAPS_HEADER, row))


def load_taps(path) -> dict[int, ChannelRealization]:
    """Load per-point channel taps from CSV (one row per tap).

    The columns are those of :data:`TAPS_COLUMNS`, each cell parsed by its
    column's type.  Rows are grouped by ``point_index``; taps are sorted by
    delay and the LoS tag is derived from the tap powers.  A cell that does
    not parse, a row that breaks a column's rule and a ``true_distance_m``
    other than on the point's earlier rows raise :class:`TapFileError` with
    the offending line number.
    """
    groups: dict[int, list[ChannelTap]] = {}
    distances: dict[int, float] = {}
    for line_no, text in _read_rows(path):
        try:
            row = {column: kind(text[column]) for column, (kind, *_) in TAPS_COLUMNS.items()}
            _check_tap_row(row, distances)
        except ValueError as exc:
            raise TapFileError(f"{path}: line {line_no}: {exc}") from exc
        gain = 10.0 ** (row["gain_db"] / 20.0) * cmath.exp(1j * row["phase_rad"])
        tap = ChannelTap(gain, row["delay_s"], row["doppler_hz"])
        groups.setdefault(row["point_index"], []).append(tap)
    return {
        point: ChannelRealization(point, distances[point], taps)
        for point, taps in sorted(groups.items())
    }


def save_taps(path, realizations) -> None:
    """Write channel realizations to CSV in the canonical column order.

    Accepts either an iterable of :class:`ChannelRealization` or the
    point-indexed mapping that :func:`load_taps` returns.  Every row that
    :func:`load_taps` would reject raises ``ValueError`` with the same
    reason, before the file is opened.
    """
    if isinstance(realizations, dict):
        realizations = realizations.values()
    rows = []
    distances = {}
    for real in sorted(realizations, key=lambda r: r.point_index):
        for tap in real.taps:
            amplitude = abs(tap.gain)
            cells = (
                real.point_index,
                real.true_distance_m,
                20.0 * math.log10(amplitude) if amplitude else -math.inf,
                cmath.phase(tap.gain),
                tap.delay_s,
                tap.doppler_hz,
            )
            row = dict(zip(TAPS_HEADER, cells))
            _check_tap_row(row, distances)
            rows.append(row)
    write_rows(path, TAPS_HEADER, rows)


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
) -> ChannelRealization:
    """Build a channel realization from the flyover geometry.

    The line-of-sight tap follows free space: delay from the 3-D distance,
    Doppler from the projection of the (horizontal) velocity onto the path,
    amplitude from the link budget with the directional antenna evaluated at
    the geometric elevation, and carrier phase ``-2 pi f_c tau``.  Each NLoS
    tap adds a random excess delay, a random reflection loss relative to
    free space at its own path length, an antenna gain drawn at a random
    arrival elevation, a uniform phase and a Doppler from a random arrival
    direction.  ``seed`` feeds these echoes only: a draw without them makes
    no generator.

    The delays are one-way: the model assumes a ground node on the UAV's
    clock.  A real PRACH receiver measures a round trip, since the UE times
    its preamble from the downlink it received (ROADMAP item 16).
    """
    wavelength = SPEED_OF_LIGHT / carrier_hz
    distance = point.distance_m
    tau0 = distance / SPEED_OF_LIGHT
    # velocity is +x; path direction from UAV towards the target
    radial_speed = point.speed_mps * (-point.horizontal_offset_m / distance)
    doppler0 = radial_speed * carrier_hz / SPEED_OF_LIGHT

    def path_amplitude(path_m: float, elevation: float) -> float:
        g_r_db = antenna_gain(0.0, elevation, tilt_deg, antenna)
        p_r = received_power(1.0, wavelength, path_m, g_t_db, g_r_db)
        return math.sqrt(p_r)

    los_gain = path_amplitude(distance, point.elevation_deg) * cmath.exp(
        -2j * np.pi * carrier_hz * tau0
    )
    taps = [ChannelTap(los_gain, tau0, doppler0)]
    if nlos and nlos.count:
        rng = np.random.default_rng(seed)
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
            )
            taps.append(ChannelTap(amplitude * cmath.exp(1j * phase), tau0 + excess, doppler))
    return ChannelRealization(point.index, distance, taps)
