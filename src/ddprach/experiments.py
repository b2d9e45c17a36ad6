"""Monte Carlo experiment runners behind the command-line interface.

Every run fans out over (trajectory point, trial, scheme) work items.  Seeds
for the channel draw and the noise draw are derived by hashing the master
seed together with the item indices, so results are independent of the
execution order and of the worker-thread count; both schemes of an item
share the channel and noise seeds, making comparisons paired.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .channel import (
    add_awgn,
    add_noise_power,
    apply_channel,
    load_taps,
    synthesize_scenario_channel,
)
from .config import ConfigError, ExperimentConfig
from .dd_transform import Waveform
from .metrics import ErrorSample, ResultRecord, error_cdf, rmse
from .prach_modem import (
    WaveformParams,
    receive_and_estimate_toa,
    resolve_range,
    transmit,
)
from .uav_scenario import (
    build_trajectory,
    los_point_count,
    pitch_angle,
    propulsion_power,
)

__all__ = [
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


def _resolve_tilt(cfg: ExperimentConfig, speed: float) -> float:
    if cfg.scenario.tilt_deg is not None:
        return cfg.scenario.tilt_deg
    return pitch_angle(speed, cfg.scenario.airframe)[1]


def _make_params(cfg: ExperimentConfig, scheme: str, delta_f: float) -> WaveformParams:
    return replace(cfg.waveform, modulation=scheme, delta_f_hz=delta_f)


def _run_grid(
    cfg: ExperimentConfig,
    *,
    delta_f: float | None = None,
    speed: float | None = None,
    tilt_deg: float | None = None,
    threads: int = 1,
) -> list[ResultRecord]:
    """Run points x trials x schemes and return records in canonical order."""
    delta_f = cfg.waveform.delta_f_hz if delta_f is None else delta_f
    speed = cfg.scenario.trajectory.speed_mps if speed is None else speed
    tilt = _resolve_tilt(cfg, speed) if tilt_deg is None else tilt_deg
    trajectory = build_trajectory(
        cfg.scenario.trajectory.height_m,
        cfg.scenario.trajectory.dp_m,
        cfg.scenario.trajectory.count,
        speed,
    )
    params = {s: _make_params(cfg, s, delta_f) for s in cfg.schemes}
    tx = [transmit(params[s]) for s in cfg.schemes]
    # one (schemes, L) stack: each item runs one channel pass and one noise
    # draw for all schemes, which keeps the comparison paired
    stacked = Waveform(
        np.stack([w.samples for w in tx]), tx[0].sample_rate, tx[0].n_dft, tx[0].cp_len
    )
    file_taps = (
        load_taps(cfg.channel.taps_path) if cfg.channel.source == "taps_file" else None
    )

    def run_item(item):
        point_idx, trial = item
        point = trajectory[point_idx]
        if file_taps is not None:
            if point_idx not in file_taps:
                raise ValueError(f"taps file has no rows for point {point_idx}")
            realization = file_taps[point_idx]
        else:
            realization = synthesize_scenario_channel(
                point,
                cfg.scenario.carrier_hz,
                cfg.scenario.antenna,
                tilt,
                cfg.channel.nlos,
                seed=_stream_seed(cfg.seed, _CHANNEL_STREAM, point_idx, trial),
                g_t_db=cfg.channel.g_t_db,
                doppler_scale=cfg.channel.doppler_scale,
            )
        rx = apply_channel(stacked, realization)
        noise_seed = _stream_seed(cfg.seed, _NOISE_STREAM, point_idx, trial)
        if cfg.noise.noise_power_watts is not None:
            rx = add_noise_power(rx, cfg.noise.noise_power_watts, noise_seed)
        else:
            rx = add_awgn(rx, cfg.noise.snr_db, noise_seed)
        records = []
        for scheme, samples in zip(cfg.schemes, rx.samples):
            estimate = receive_and_estimate_toa(
                Waveform(samples, rx.sample_rate, rx.n_dft, rx.cp_len),
                params[scheme],
                target_pfa=cfg.detection.target_pfa,
                interpolate_peak=cfg.detection.interpolate_peak,
            )
            result = resolve_range(
                estimate,
                realization.true_distance_m,
                params[scheme],
                realization.los_tag,
            )
            records.append(
                ResultRecord(
                    scheme=scheme,
                    delta_f_hz=delta_f,
                    speed_mps=speed,
                    point_index=point_idx,
                    los_tag=result.los_tag,
                    true_d_m=result.true_distance_m,
                    est_d_m=result.estimated_distance_m,
                    error_m=result.error_m,
                    detected=result.detected,
                )
            )
        return records

    items = [
        (point_idx, trial)
        for point_idx in range(len(trajectory))
        for trial in range(cfg.trials)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(run_item, items))
    else:
        batches = [run_item(item) for item in items]
    return [record for batch in batches for record in batch]


def summarize(records: list[ResultRecord]) -> dict[str, dict[str, float]]:
    """Per-scheme RMSE (detected rows) and detection rate."""
    summary: dict[str, dict[str, float]] = {}
    for scheme in sorted({r.scheme for r in records}):
        rows = [r for r in records if r.scheme == scheme]
        detected = [r for r in rows if r.detected]
        entry = {"detection_rate": len(detected) / len(rows)}
        if detected:
            samples = [ErrorSample(r.error_m, r.los_tag, scheme) for r in detected]
            entry["rmse_m"] = rmse(samples)
            entry["mean_abs_error_m"] = float(
                np.mean([abs(r.error_m) for r in detected])
            )
        summary[scheme] = entry
    return summary


def run_simulate(cfg: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """Single grid run at the configured operating point."""
    return _run_grid(cfg, threads=threads)


def run_cdf_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Error-CDF rows per (scheme, subcarrier spacing).

    The channel and noise seeds do not depend on the swept spacing, so every
    spacing sees the same physical channels and the comparison isolates the
    delay-resolution effect.
    """
    if cfg.sweep.axis != "delta_f_hz":
        raise ConfigError("cdf sweep requires sweep.axis = delta_f_hz")
    rows = []
    for delta_f in cfg.sweep.values:
        records = _run_grid(cfg, delta_f=delta_f, threads=threads)
        for scheme in cfg.schemes:
            detected = [
                r for r in records if r.scheme == scheme and r.detected
            ]
            if not detected:
                continue
            samples = [ErrorSample(r.error_m, r.los_tag, scheme) for r in detected]
            for abscissa, probability in error_cdf(samples):
                rows.append(
                    {
                        "scheme": scheme,
                        "delta_f_hz": delta_f,
                        "abs_error_m": abscissa,
                        "cdf": probability,
                    }
                )
    return rows


def run_speed_tradeoff(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Ranging RMSE versus speed next to tilt and propulsion power."""
    if cfg.sweep.axis != "speed_mps":
        raise ConfigError("speed tradeoff requires sweep.axis = speed_mps")
    rows = []
    for speed in cfg.sweep.values:
        records = _run_grid(cfg, speed=speed, threads=threads)
        summary = summarize(records)
        row = {
            "speed_mps": speed,
            "tilt_deg": _resolve_tilt(cfg, speed),
            "power_w": propulsion_power(speed, cfg.scenario.airframe),
        }
        for scheme in cfg.schemes:
            row[f"rmse_{scheme}_m"] = summary.get(scheme, {}).get("rmse_m")
        rows.append(row)
    return rows


def run_tilt_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Ranging RMSE and LoS point counts versus forced antenna tilt."""
    if cfg.sweep.axis != "tilt_deg":
        raise ConfigError("tilt sweep requires sweep.axis = tilt_deg")
    trajectory = build_trajectory(
        cfg.scenario.trajectory.height_m,
        cfg.scenario.trajectory.dp_m,
        cfg.scenario.trajectory.count,
        cfg.scenario.trajectory.speed_mps,
    )
    fnb = cfg.scenario.antenna.fnb_deg
    p0 = (len(trajectory) - 1) // 2
    rows = []
    for tilt in cfg.sweep.values:
        records = _run_grid(cfg, tilt_deg=tilt, threads=threads)
        summary = summarize(records)
        # per-point main-lobe test: off-boresight angle within the first null
        geometric = sum(
            1 for p in trajectory if 180.0 - p.elevation_deg - tilt <= fnb
        )
        try:
            last_los = los_point_count(
                cfg.scenario.trajectory.height_m,
                cfg.scenario.trajectory.dp_m,
                fnb,
                tilt,
                p0,
            )
        except ValueError:
            last_los = None
        tagged = {r.point_index for r in records if r.los_tag}
        row = {
            "tilt_deg": tilt,
            "n_los_geometric": geometric,
            "last_los_index": last_los,
            "n_los_tagged": len(tagged),
        }
        for scheme in cfg.schemes:
            row[f"rmse_{scheme}_m"] = summary.get(scheme, {}).get("rmse_m")
        rows.append(row)
    return rows
