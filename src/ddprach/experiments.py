"""Monte Carlo experiment runners behind the command-line interface.

Every run fans out over (trajectory point, trial) work items; each item runs
every config of the run (one per sweep value) and every scheme.  Seeds for
the channel draw and the noise draw are derived by hashing the master seed
together with the item indices, so results are independent of the execution
order and of the worker-thread count; all schemes and sweep values of an
item share the channel and noise seeds, making comparisons paired.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .channel import (
    FrameBuffers,
    RowPlan,
    TapFileError,
    add_awgn,
    add_noise_power,
    apply_channel,
    draw_unit_noise,
    load_taps,
    plan_rows,
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
    """What a work item needs of one config, made once per run."""

    cfg: ExperimentConfig
    tilt: float
    trajectory: list
    params: dict
    stacked: Waveform   # the schemes' preambles as one (schemes, L) stack
    plan: RowPlan       # the channel's row plan of ``stacked``
    file_taps: dict | None


def _setups(cfgs: list[ExperimentConfig]) -> list[_Setup]:
    """One set-up per config.  Configs whose preamble stacks are bit-equal
    share one array and one row plan; a taps file is read once."""
    setups, plans, taps_files = [], [], {}
    for cfg in cfgs:
        spec = cfg.scenario.trajectory
        params = {s: replace(cfg.waveform, modulation=s) for s in cfg.schemes}
        tx = [transmit(params[s]) for s in cfg.schemes]
        # each item runs one channel pass and one noise draw for all schemes,
        # which keeps the comparison paired
        stacked = Waveform(
            np.stack([w.samples for w in tx]), tx[0].sample_rate, tx[0].n_dft, tx[0].cp_len
        )
        plan = _shared_plan(plans, stacked)
        if plan is None:
            plan = plan_rows(stacked)
            plans.append(plan)
        stacked = Waveform(plan.samples, stacked.sample_rate, stacked.n_dft, stacked.cp_len)
        file_taps = None
        if cfg.channel.source == "taps_file":
            path = cfg.channel.taps_path
            if path not in taps_files:
                taps_files[path] = load_taps(path)
            file_taps = taps_files[path]
        setups.append(
            _Setup(
                cfg,
                _resolve_tilt(cfg),
                build_trajectory(spec.height_m, spec.dp_m, spec.count, spec.speed_mps),
                params,
                stacked,
                plan,
                file_taps,
            )
        )
    return setups


def _shared_plan(plans: list[RowPlan], stacked: Waveform) -> RowPlan | None:
    """The plan of ``plans`` made from samples bit-equal to ``stacked``'s,
    with the same framing, if any."""
    period = stacked.n_dft + stacked.cp_len
    bits = stacked.samples.view(np.uint64)
    for plan in plans:
        if plan.period == period and np.array_equal(plan.samples.view(np.uint64), bits):
            return plan
    return None


def _run_grid(cfgs: list[ExperimentConfig], threads: int = 1) -> list[list[ResultRecord]]:
    """Run points x trials x schemes for each config of one run.

    Returns one record list per config, each in canonical order.  A work
    item is one (point, trial): it draws its unit noise once and runs every
    config on it, so the configs must agree on the seed, the item grid, the
    schemes and ``frame_len``.
    """
    first = cfgs[0]
    for cfg in cfgs[1:]:
        if _grid_of(cfg) != _grid_of(first):
            raise ValueError(
                "the configs of one run must share seed, trials, trajectory count, "
                "schemes and waveform.frame_len"
            )
    setups = _setups(cfgs)
    noisy = any(
        cfg.noise.snr_db is not None or cfg.noise.noise_power_watts is not None for cfg in cfgs
    )
    shape = setups[0].stacked.samples.shape
    # each worker thread reuses one set of row buffers for all its items
    local = threading.local()

    def run_item(item):
        point_idx, trial = item
        buffers = getattr(local, "buffers", None)
        if buffers is None:
            buffers = local.buffers = FrameBuffers(shape)
        # buffers.unit holds this row until the item's last config has used it
        noise = None
        if noisy:
            seed = _stream_seed(first.seed, _NOISE_STREAM, point_idx, trial)
            noise = draw_unit_noise(seed, buffers)
        return [_run_config(setup, point_idx, trial, noise, buffers) for setup in setups]

    items = [
        (point_idx, trial)
        for point_idx in range(first.scenario.trajectory.count)
        for trial in range(first.trials)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(run_item, items))
    else:
        batches = [run_item(item) for item in items]
    return [
        [record for batch in batches for record in batch[k]] for k in range(len(setups))
    ]


def _grid_of(cfg: ExperimentConfig) -> tuple:
    return (
        cfg.seed,
        cfg.trials,
        cfg.scenario.trajectory.count,
        cfg.schemes,
        cfg.waveform.frame_len,
    )


def _run_config(
    setup: _Setup, point_idx: int, trial: int, noise, buffers
) -> list[ResultRecord]:
    """The records of one work item under one config, one per scheme.

    ``noise`` is the item's unit noise row (``None`` for a noiseless run)
    and ``buffers`` its worker's :class:`FrameBuffers`.
    """
    cfg = setup.cfg
    if setup.file_taps is not None:
        if point_idx not in setup.file_taps:
            raise TapFileError(f"taps file has no rows for point {point_idx}")
        realization = setup.file_taps[point_idx]
        duration = setup.stacked.samples.shape[-1] / setup.stacked.sample_rate
        if realization.taps[-1].delay_s >= duration:
            raise TapFileError(
                f"taps file: point {point_idx}: tap delay "
                f"{realization.taps[-1].delay_s} s exceeds the frame "
                f"duration {duration} s"
            )
    else:
        realization = synthesize_scenario_channel(
            setup.trajectory[point_idx],
            cfg.scenario.carrier_hz,
            cfg.scenario.antenna,
            setup.tilt,
            cfg.channel.nlos,
            seed=_stream_seed(cfg.seed, _CHANNEL_STREAM, point_idx, trial),
            g_t_db=cfg.channel.g_t_db,
            doppler_scale=cfg.channel.doppler_scale,
        )
    rx = apply_channel(setup.stacked, realization, buffers=buffers, plan=setup.plan)
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


def _sweep(cfg: ExperimentConfig, axis: str, threads: int):
    """``(swept_cfg, records)`` for each value of ``cfg.sweep``.

    The channel and noise seeds do not depend on the swept value, so every
    value sees the same physical channels and the same noise draw, and the
    comparison is paired.
    """
    if cfg.sweep.axis != axis:
        raise ConfigError(f"sweep.axis: this command sweeps {axis}, got {cfg.sweep.axis}")
    swept = [_with_field(cfg, SWEEP_AXES[axis], value) for value in cfg.sweep.values]
    return zip(swept, _run_grid(swept, threads))


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


def run_simulate(cfg: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """Single grid run at the configured operating point."""
    return _run_grid([cfg], threads)[0]


def run_cdf_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Error-CDF rows per (scheme, subcarrier spacing)."""
    rows = []
    for swept, records in _sweep(cfg, "delta_f_hz", threads):
        for scheme in cfg.schemes:
            errors = [r.error_m for r in records if r.scheme == scheme and r.detected]
            if errors:
                rows += [
                    {
                        "scheme": scheme,
                        "delta_f_hz": swept.waveform.delta_f_hz,
                        "abs_error_m": abscissa,
                        "cdf": probability,
                    }
                    for abscissa, probability in error_cdf(errors)
                ]
    return rows


def run_speed_tradeoff(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
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
        for swept, records in _sweep(cfg, "speed_mps", threads)
    ]


def run_tilt_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Ranging RMSE and LoS point counts versus forced antenna tilt."""
    spec = cfg.scenario.trajectory
    trajectory = build_trajectory(spec.height_m, spec.dp_m, spec.count, spec.speed_mps)
    fnb = cfg.scenario.antenna.fnb_deg
    p0 = (len(trajectory) - 1) // 2
    rows = []
    for swept, records in _sweep(cfg, "tilt_deg", threads):
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
