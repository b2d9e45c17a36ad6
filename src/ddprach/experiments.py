"""Monte Carlo experiment runners behind the command-line interface.

A run is one config, or one config per value of its sweep.  No sweep axis
changes the preamble samples or the framing, so a run transmits each scheme
once into one preamble stack and reads a taps file once, before any work
item runs.  Every run then goes through its (trajectory point, trial) work
items in canonical order on the calling thread; each item runs every sweep
value and every scheme.  The run keeps one set of ``FrameBuffers`` made from
that stack, which plans its rows once and keeps each tap's filtered spans:
the values of a ``speed_mps`` or ``tilt_deg`` sweep share an item's tap
delays, so they filter each tap once.  Seeds for the channel draw and the
noise draw are derived by hashing the master seed together with the item
indices, so results do not depend on the execution order; all schemes and
sweep values of an item share the channel and noise seeds, making
comparisons paired.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .channel import (
    FrameBuffers,
    TapFileError,
    add_awgn,
    add_noise_power,
    apply_channel,
    draw_unit_noise,
    load_taps,
    synthesize_scenario_channel,
)
from .config import SWEEP_AXES, ConfigError, ExperimentConfig
from .dd_transform import Waveform
from .metrics import ResultRecord, error_cdf, rmse
from .prach_modem import receive_and_estimate_toa, resolve_range, transmit
from .uav_scenario import (
    build_trajectory,
    los_point_count,
    pitch_angle,
    propulsion_power,
)

__all__ = [
    "CDF_HEADER",
    "run_simulate",
    "run_cdf_sweep",
    "run_speed_tradeoff",
    "run_tilt_sweep",
    "summarize",
]

# stream tags keeping channel and noise draws on disjoint substreams
_CHANNEL_STREAM = 1
_NOISE_STREAM = 2


def _stream_seed(master: int, stream: int, point: int, trial: int):
    return np.random.SeedSequence([master, stream, point, trial])


def _resolve_tilt(cfg: ExperimentConfig) -> float:
    if cfg.scenario.tilt_deg is not None:
        return cfg.scenario.tilt_deg
    return pitch_angle(cfg.scenario.trajectory.speed_mps, cfg.scenario.airframe)[1]


def _with_field(obj, path: str, value):
    """Copy of dataclass ``obj`` with the field at dotted ``path`` set to ``value``."""
    name, _, rest = path.partition(".")
    if rest:
        value = _with_field(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


class _Setup(NamedTuple):
    """What a work item needs of one sweep value, made once per run."""

    cfg: ExperimentConfig
    tilt: float
    trajectory: list
    params: dict
    stacked: Waveform   # the run's (schemes, L) preamble stack at this value's rate


def _run_grid(
    cfg: ExperimentConfig, axis: str | None = None
) -> list[tuple[ExperimentConfig, list[ResultRecord]]]:
    """``(swept_cfg, records)`` for each value of ``cfg.sweep`` along ``axis``,
    or the one pair ``(cfg, records)`` when ``axis`` is None.

    Each record list runs points x trials x schemes in canonical order.  A
    work item is one (point, trial): it draws its unit noise once and runs
    every value on it.  The channel and noise seeds do not depend on the
    swept value, so every value sees the same physical channels and the same
    noise draw, and the comparison is paired.
    """
    cfgs = [cfg]
    if axis is not None:
        if cfg.sweep.axis != axis:
            raise ConfigError(f"sweep.axis: this command sweeps {axis}, got {cfg.sweep.axis}")
        cfgs = [_with_field(cfg, SWEEP_AXES[axis], value) for value in cfg.sweep.values]
    # one channel pass and one noise draw per item serve all schemes, which
    # keeps the comparison paired; no sweep axis changes the samples, so the
    # stack serves every value
    tx = [transmit(replace(cfg.waveform, modulation=s)) for s in cfg.schemes]
    stack = np.stack([w.samples for w in tx])
    setups = []
    for swept in cfgs:
        spec = swept.scenario.trajectory
        setups.append(
            _Setup(
                swept,
                _resolve_tilt(swept),
                build_trajectory(spec.height_m, spec.dp_m, spec.count, spec.speed_mps),
                {s: replace(swept.waveform, modulation=s) for s in cfg.schemes},
                Waveform(stack, swept.waveform.sample_rate, tx[0].n_dft, tx[0].cp_len),
            )
        )
    file_taps = None
    if cfg.channel.source == "taps_file":
        file_taps = load_taps(cfg.channel.taps_path)
        durations = [s.stacked.samples.shape[-1] / s.stacked.sample_rate for s in setups]
        for point_idx in range(cfg.scenario.trajectory.count):
            if point_idx not in file_taps:
                raise TapFileError(f"taps file has no rows for point {point_idx}")
            delay = file_taps[point_idx].taps[-1].delay_s
            for duration in durations:
                if delay >= duration:
                    raise TapFileError(
                        f"taps file: point {point_idx}: tap delay {delay} s exceeds "
                        f"the frame duration {duration} s"
                    )
    noisy = cfg.noise.snr_db is not None or cfg.noise.noise_power_watts is not None
    # one set of buffers, and the one row plan they make, serves every item
    buffers = FrameBuffers(setups[0].stacked)
    runs = [(setup.cfg, []) for setup in setups]
    for point_idx in range(cfg.scenario.trajectory.count):
        for trial in range(cfg.trials):
            # buffers.unit holds this row until the item's last value has used it
            noise = None
            if noisy:
                seed = _stream_seed(cfg.seed, _NOISE_STREAM, point_idx, trial)
                noise = draw_unit_noise(seed, buffers)
            # default_rng leaves a SeedSequence as it was, so every value
            # draws the same taps from this one
            realization = channel_seed = None
            if file_taps is None:
                channel_seed = _stream_seed(cfg.seed, _CHANNEL_STREAM, point_idx, trial)
            else:
                realization = file_taps[point_idx]
            for setup, (_, records) in zip(setups, runs):
                records += _run_config(
                    setup, point_idx, realization, channel_seed, noise, buffers
                )
    return runs


def _run_config(
    setup: _Setup, point_idx: int, realization, channel_seed, noise, buffers
) -> list[ResultRecord]:
    """The records of one work item under one swept config, one per scheme.

    ``realization`` is the item's channel from the taps file (``None``:
    synthesize it from ``channel_seed``), ``noise`` the item's unit noise row
    (``None`` for a noiseless run) and ``buffers`` the run's
    :class:`FrameBuffers`.
    """
    cfg = setup.cfg
    if realization is None:
        realization = synthesize_scenario_channel(
            setup.trajectory[point_idx],
            cfg.scenario.carrier_hz,
            cfg.scenario.antenna,
            setup.tilt,
            cfg.channel.nlos,
            seed=channel_seed,
            g_t_db=cfg.channel.g_t_db,
            doppler_scale=cfg.channel.doppler_scale,
        )
    rx = apply_channel(setup.stacked, realization, buffers=buffers)
    if cfg.noise.noise_power_watts is not None:
        rx = add_noise_power(rx, cfg.noise.noise_power_watts, buffers=buffers, noise=noise)
    else:
        rx = add_awgn(rx, cfg.noise.snr_db, buffers=buffers, noise=noise)
    records = []
    for scheme, samples in zip(cfg.schemes, rx.samples):
        params = setup.params[scheme]
        estimate = receive_and_estimate_toa(
            Waveform(samples, rx.sample_rate, rx.n_dft, rx.cp_len),
            params,
            target_pfa=cfg.detection.target_pfa,
            interpolate_peak=cfg.detection.interpolate_peak,
        )
        est_d = resolve_range(estimate, params)
        true_d = realization.true_distance_m
        records.append(
            ResultRecord(
                scheme=scheme,
                delta_f_hz=cfg.waveform.delta_f_hz,
                speed_mps=cfg.scenario.trajectory.speed_mps,
                point_index=point_idx,
                los_tag=realization.los_tag,
                true_d_m=true_d,
                est_d_m=est_d,
                error_m=None if est_d is None else true_d - est_d,
                detected=estimate.detected,
            )
        )
    return records


def summarize(records: list[ResultRecord]) -> dict[str, dict[str, float]]:
    """Per-scheme RMSE (detected rows) and detection rate."""
    summary: dict[str, dict[str, float]] = {}
    for scheme in sorted({r.scheme for r in records}):
        rows = [r for r in records if r.scheme == scheme]
        errors = [r.error_m for r in rows if r.detected]
        entry = {"detection_rate": len(errors) / len(rows)}
        if errors:
            entry["rmse_m"] = rmse(errors)
            entry["mean_abs_error_m"] = float(np.mean(np.abs(errors)))
        summary[scheme] = entry
    return summary


def _rmse_columns(cfg: ExperimentConfig, records: list[ResultRecord]) -> dict:
    summary = summarize(records)
    return {f"rmse_{s}_m": summary.get(s, {}).get("rmse_m") for s in cfg.schemes}


def run_simulate(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Single grid run at the configured operating point."""
    [(_, records)] = _run_grid(cfg)
    return records


# the columns of cdf.csv, declared apart from its rows: a sweep that detects
# nothing writes no row, and its table is the header alone
CDF_HEADER = ["scheme", "delta_f_hz", "abs_error_m", "cdf"]


def run_cdf_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Error-CDF rows per (scheme, subcarrier spacing), keyed by :data:`CDF_HEADER`."""
    rows = []
    for swept, records in _run_grid(cfg, "delta_f_hz"):
        for scheme in cfg.schemes:
            errors = [r.error_m for r in records if r.scheme == scheme and r.detected]
            if errors:
                delta_f = swept.waveform.delta_f_hz
                rows += [
                    dict(zip(CDF_HEADER, (scheme, delta_f, abscissa, probability)))
                    for abscissa, probability in error_cdf(errors)
                ]
    return rows


def run_speed_tradeoff(cfg: ExperimentConfig) -> list[dict]:
    """Ranging RMSE versus speed next to tilt and propulsion power."""
    return [
        {
            "speed_mps": swept.scenario.trajectory.speed_mps,
            "tilt_deg": _resolve_tilt(swept),
            "power_w": propulsion_power(
                swept.scenario.trajectory.speed_mps, cfg.scenario.airframe
            ),
            **_rmse_columns(cfg, records),
        }
        for swept, records in _run_grid(cfg, "speed_mps")
    ]


def run_tilt_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Ranging RMSE and LoS point counts versus forced antenna tilt."""
    spec = cfg.scenario.trajectory
    trajectory = build_trajectory(spec.height_m, spec.dp_m, spec.count, spec.speed_mps)
    fnb = cfg.scenario.antenna.fnb_deg
    p0 = (len(trajectory) - 1) // 2
    rows = []
    for swept, records in _run_grid(cfg, "tilt_deg"):
        tilt = swept.scenario.tilt_deg
        # per-point main-lobe test: off-boresight angle within the first null
        geometric = sum(1 for p in trajectory if 180.0 - p.elevation_deg - tilt <= fnb)
        try:
            last_los = los_point_count(spec.height_m, spec.dp_m, fnb, tilt, p0)
        except ValueError:
            last_los = None
        rows.append(
            {
                "tilt_deg": tilt,
                "n_los_geometric": geometric,
                "last_los_index": last_los,
                "n_los_tagged": len({r.point_index for r in records if r.los_tag}),
                **_rmse_columns(cfg, records),
            }
        )
    return rows
