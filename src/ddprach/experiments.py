"""Monte Carlo experiment runners behind the command-line interface.

A run flies the :class:`~ddprach.config.Flight` records that
:func:`ddprach.config.flights` lists, the config or each sweep value's, with
the tilt, propulsion power and framing it derives once.  No sweep axis
changes the preamble samples or the framing, so a run transmits each scheme
once into one preamble stack and reads a taps file once, before any work
item runs.  Its (trajectory point, trial) work items then run in canonical
order; each item runs every sweep value and every scheme.  With
``workers=K`` (the command line's ``--threads K``, which keeps its name but
starts processes) the trajectory points are split into ``min(K, count)``
contiguous ranges, one process each: the calling process runs the first and
``os.fork`` children the others (so this needs a platform with ``fork``,
such as Linux); each builds every flight's pass, and each range's records
come back in range order.  Memory grows with K, one interpreter's worth of
pages touched per child, and spans or counters recorded by a wrapper
installed in the calling process see its own range only: the benchmark's
traced speed-tradeoff at ``--threads 2`` counts 840 interpolated taps where
one process counts 1680.  Each process keeps one set of ``FrameBuffers`` made
from the stack, which plans its rows once and keeps each tap's filtered
spans: the trials of a point share its line-of-sight tap, and the values of
a ``speed_mps`` or ``tilt_deg`` sweep share an item's tap delays, so they
filter each tap once.  Every flight of an item draws its own synthetic
channel from the item's channel seed, so values that change nothing the
draw reads fly equal channels.  Seeds for the channel draw and the noise
draw are derived by hashing the master seed together with the item indices, so
results depend neither on the execution order nor on K; all schemes and
sweep values of an item share the channel and noise seeds, making
comparisons paired.  The preamble stack is a plain ``(schemes, frame_len)``
array; each flight frames it with its own ``params``.
"""

import os
import pickle
import signal
from dataclasses import asdict
from functools import partial

import numpy as np

from .channel import (
    FrameBuffers,
    TapFileError,
    add_awgn,
    add_noise_power,
    apply_channel,
    check_link_budget,
    check_tap_delay,
    load_taps,
    synthesize_scenario_channel,
)
from .config import ConfigError, ExperimentConfig, Flight, flights
from .metrics import ResultRecord, error_cdf, rmse
from .prach_modem import receive_and_estimate_toa, resolve_range, transmit
from .uav_scenario import build_trajectory
# config.flights calls these; they stay importable from here because
# perfbench/tracer.py wraps them by name (ROADMAP item 8)
from .uav_scenario import pitch_angle, propulsion_power  # noqa: F401

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


def _run_grid(
    cfg: ExperimentConfig, axis: str | None = None, workers: int = 1
) -> list[tuple[Flight, list[ResultRecord]]]:
    """``(flight, records)`` for each value of ``cfg.sweep`` along ``axis``
    (``flight.cfg`` is the swept config), or the one pair when ``axis`` is
    None, with the flights of :func:`flights`.

    Each record list runs points x trials x schemes in canonical order.  A
    work item is one (point, trial): it passes its noise seed to every value,
    and the run's buffers draw that seed's unit noise row once.  The channel
    and noise seeds do not depend on the swept value, so every value sees the
    same physical channels and the same noise draw, and the comparison is
    paired.  The points run in ``min(workers, count)`` processes over
    contiguous ranges (see :func:`_fork_map`); one worker runs them all in
    this process.
    """
    if axis is not None and cfg.sweep.axis != axis:
        raise ConfigError(f"sweep.axis: this command sweeps {axis}, got {cfg.sweep.axis}")
    base, *swept = flights(cfg)
    flown = [base] if axis is None else swept
    # one channel pass and one noise draw per item serve all schemes, which
    # keeps the comparison paired; no sweep axis changes the samples, so the
    # base flight's stack serves every value
    stack = np.stack([transmit(params) for params in base.params.values()])
    file_taps = None
    if cfg.channel.source == "taps_file":
        file_taps = load_taps(cfg.channel.taps_path)
        for point_idx in range(cfg.scenario.trajectory.count):
            if point_idx not in file_taps:
                raise TapFileError(f"taps file has no rows for point {point_idx}")
            real = file_taps[point_idx]
            try:
                # the channel's link-budget and frame rules, at every flight
                for flight in flown:
                    waveform = flight.cfg.waveform
                    check_link_budget(real, waveform.p_t_watts)
                    check_tap_delay(real.taps[-1], waveform.sample_rate, waveform.frame_len)
            except ValueError as exc:
                raise TapFileError(f"taps file: point {point_idx}: {exc}") from exc
    count = cfg.scenario.trajectory.count
    k = min(workers, count)
    ranges = [range(count * i // k, count * (i + 1) // k) for i in range(k)]
    parts = _fork_map(partial(_run_points, cfg, flown, stack, file_taps), ranges)
    return [
        (flight, [record for part in parts for record in part[i]])
        for i, flight in enumerate(flown)
    ]


def _run_points(
    cfg: ExperimentConfig, flown: list[Flight], stack: np.ndarray, file_taps, points: range
) -> list[list[ResultRecord]]:
    """One record list per flight over the work items of ``points``, in
    canonical order."""
    trajectories = [build_trajectory(**asdict(f.cfg.scenario.trajectory)) for f in flown]
    # one set of buffers, and the one row plan they make, serves every item
    buffers = FrameBuffers(stack)
    runs = [[] for _ in flown]
    for point_idx in points:
        for trial in range(cfg.trials):
            # default_rng leaves a SeedSequence as it was, so every value
            # draws its taps and noise from the same seeds; the buffers draw
            # the noise row of this very noise seed once
            noise_seed = _stream_seed(cfg.seed, _NOISE_STREAM, point_idx, trial)
            channel_seed = _stream_seed(cfg.seed, _CHANNEL_STREAM, point_idx, trial)
            for flight, trajectory, records in zip(flown, trajectories, runs):
                if file_taps is not None:
                    realization = file_taps[point_idx]
                else:
                    realization = synthesize_scenario_channel(
                        trajectory[point_idx],
                        flight.cfg.scenario.carrier_hz,
                        flight.cfg.scenario.antenna,
                        flight.tilt_deg,
                        flight.cfg.channel.nlos,
                        seed=channel_seed,
                        g_t_db=flight.cfg.channel.g_t_db,
                    )
                records += _run_config(flight, realization, noise_seed, buffers)
    return runs


def _fork_map(fn, items: list) -> list:
    """``[fn(item) for item in items]``, each item in its own process.

    Forked children compute every item after the first, which this process
    computes while they run.  A child pickles its result, or the exception
    it raised, into a pipe and leaves through ``os._exit``, so it runs no
    cleanup of the parent's.  The results come back in item order, and the
    first failed child's exception is raised here.  Every child is reaped
    before this returns or raises, and killed first unless its result was
    read, so an error or an interrupt leaves no process behind.  One item
    forks nothing.
    """
    pids, pipes = [], []
    try:
        for item in items[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, item, write_fd)
            finally:
                os.close(write_fd)  # the child never gets here
            pids.append(pid)
        results = [fn(items[0])]
        while pids:
            # read to the end before waiting: a child blocks on a full pipe
            data = pipes[0].read()
            _, status = os.waitpid(pids[0], 0)
            pid = pids.pop(0)
            pipes.pop(0).close()
            try:
                ok, value = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError) as exc:
                raise ChildProcessError(
                    f"worker process {pid} exited with code "
                    f"{os.waitstatus_to_exitcode(status)} and sent no result"
                ) from exc
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _child(fn, item, write_fd: int):
    """Body of a forked child of :func:`_fork_map`; ends the process."""
    code = 1
    try:
        try:
            payload = (True, fn(item))
        except BaseException as exc:  # sent to the parent, which raises it
            payload = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_config(flight: Flight, realization, noise_seed, buffers) -> list[ResultRecord]:
    """The records of one work item under one flight, one per scheme.

    ``realization`` is the item's channel, ``noise_seed`` the item's noise
    ``SeedSequence`` and ``buffers`` the run's :class:`FrameBuffers`, made
    from its preamble stack, which draw that seed's unit noise row on the
    item's first noise call and reuse it on the others.
    """
    cfg = flight.cfg
    # positional: the benchmark's tracer reads args[0] and args[1]
    rx = apply_channel(cfg.waveform, realization, buffers.samples, buffers=buffers)
    if cfg.noise.noise_power_watts is not None:
        rx = add_noise_power(rx, cfg.noise.noise_power_watts, noise_seed, buffers)
    else:
        rx = add_awgn(rx, cfg.noise.snr_db, noise_seed, buffers)
    records = []
    for scheme, samples in zip(cfg.schemes, rx):
        params = flight.params[scheme]
        estimate = receive_and_estimate_toa(
            samples,
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
                point_index=realization.point_index,
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


def run_simulate(cfg: ExperimentConfig, workers: int = 1) -> list[ResultRecord]:
    """Single grid run at the configured operating point, in ``workers``
    processes (see :func:`_run_grid`)."""
    [(_, records)] = _run_grid(cfg, workers=workers)
    return records


# the columns of cdf.csv, declared apart from its rows: a sweep that detects
# nothing writes no row, and its table is the header alone
CDF_HEADER = ["scheme", "delta_f_hz", "abs_error_m", "cdf"]


def run_cdf_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Error-CDF rows per (scheme, subcarrier spacing), keyed by :data:`CDF_HEADER`."""
    rows = []
    for flight, records in _run_grid(cfg, "delta_f_hz", workers):
        for scheme in cfg.schemes:
            errors = [r.error_m for r in records if r.scheme == scheme and r.detected]
            if errors:
                delta_f = flight.cfg.waveform.delta_f_hz
                rows += [
                    dict(zip(CDF_HEADER, (scheme, delta_f, abscissa, probability)))
                    for abscissa, probability in error_cdf(errors)
                ]
    return rows


def run_speed_tradeoff(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Ranging RMSE versus speed next to tilt and propulsion power."""
    return [
        {
            "speed_mps": flight.cfg.scenario.trajectory.speed_mps,
            "tilt_deg": flight.tilt_deg,
            "power_w": flight.power_w,
            **_rmse_columns(cfg, records),
        }
        for flight, records in _run_grid(cfg, "speed_mps", workers)
    ]


def run_tilt_sweep(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Ranging RMSE and LoS point counts versus forced antenna tilt.

    ``n_los_geometric`` counts the pass's points inside the first-null
    beamwidth, each point once, and ``last_los_index`` is the largest index
    among them, ``None`` when there is none.  ``n_los_tagged`` counts the
    distinct points with at least one LoS-tagged record over all trials and
    schemes, so with ``trials > 1`` it can grow with the trial count, up to
    the point count.
    """
    fnb = cfg.scenario.antenna.fnb_deg
    # no tilt moves the pass
    trajectory = build_trajectory(**asdict(cfg.scenario.trajectory))
    rows = []
    for flight, records in _run_grid(cfg, "tilt_deg", workers):
        tilt = flight.tilt_deg
        # per-point main-lobe test: off-boresight angle within the first null
        in_beam = [p.index for p in trajectory if 180.0 - p.elevation_deg - tilt <= fnb]
        rows.append(
            {
                "tilt_deg": tilt,
                "n_los_geometric": len(in_beam),
                "last_los_index": max(in_beam, default=None),
                "n_los_tagged": len({r.point_index for r in records if r.los_tag}),
                **_rmse_columns(cfg, records),
            }
        )
    return rows
