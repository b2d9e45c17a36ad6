"""Ranging benchmark for ddprach: records/s, set-up, memory and RMSE.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree: the program is imported from ``src/``,
so nothing needs installing, and scratch files go under ``.bench_build/``.
``--workload all`` runs every workload in turn.  Besides standard output, each
invocation leaves ``.bench_build/perfbench/report-*.json`` with the
environment (nproc, Python, numpy, BLAS, git revision, thread pins), every
per-command sample and the checks.

The loop is closed: one ``ddprach`` command at a time, each in a fresh
interpreter started through ``probe.py``, with BLAS/OpenMP pinned to one
thread so that ``--threads`` is the only concurrency.  Each workload writes its
own config and passes the workload seed to the program as ``--seed``.

Every invocation first checks that ``simulate`` at the README default config
writes a byte-identical ``results.csv`` at ``--threads 1`` and ``--threads
2``, then runs the workload once at the reference seed for the accuracy
metrics, then repeats the workload command for ``--seconds``.

With ``--trace 0`` the timed commands give the end-to-end metrics:

* ``records_per_s``: result records computed (points x trials x schemes x
  sweep values) by one timed command over its work time in
  ``ddprach.cli.main``, CSV writing included; median over the commands of the
  run.  Work time is wall time less the CPU time the hypervisor stole while
  the command ran (``/proc/stat`` steal, divided by the command's
  ``--threads``).  On a shared host steal comes in spells that can slow a
  command by a third and are not the program's doing; other drift of the
  machine's speed stays in.  The plain wall-time rates are printed beside it.
* ``setup_s``: ``import ddprach`` + ``load_config`` + preamble ``transmit``
  per scheme in a fresh interpreter, less steal; median over the commands of
  the run.
* ``peak_rss_mb``: peak resident memory of the command's process; median.
* ``rmse_otfs_m``/``rmse_ofdm_m``: RMSE computed from the output file of the
  accuracy command.  It runs at a fixed seed (``REFERENCE_SEED``), so these
  repeat exactly for the same code: under the NLoS channel a few wrap-around
  false peaks (errors of about 20 km, roughly 1 record in 170 for ``ofdm``)
  decide the RMSE of a 280-record sample, and from one workload seed to the
  next it swings by a factor of ten.

With ``--trace 1`` untraced and traced commands alternate; the traced ones
give the per-layer metrics in ``PER_LAYER`` (spans recorded by ``tracer.py``)
and ``trace.overhead_pct`` compares the two kinds.  Counts must repeat
exactly between the traced commands.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every command launched counts as
attempted; one that exits nonzero, writes a wrong CSV, or differs from the
first timed command's output at the same seed counts as failed.
"""

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import outputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
SCRATCH = ROOT / ".bench_build" / "perfbench"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REFERENCE_SEED = 0      # seed of the accuracy command
MIN_TIMED = 5           # timed commands per run, even past --seconds
MIN_TRACED = 2          # traced commands per run, so that counts are compared
COMMAND_TIMEOUT_S = 120

# The README default config, spelled out so that a change of the program's
# defaults does not change the benchmark's inputs.
README_DEFAULT = {
    "waveform": {"delta_f_hz": 15.0e3, "n_dft": 2048, "m": 1024, "n": 4, "n_zc": 139, "root": 1},
    "scenario": {
        "carrier_hz": 1775.0e6,
        "trajectory": {"height_m": 30.0, "dp_m": 0.5, "count": 140, "speed_mps": 10.0},
        "tilt_deg": None,
    },
    "channel": {
        "source": "synthetic",
        "nlos": {
            "count": 2,
            "excess_delay_range_s": [6.7e-8, 5.0e-7],
            "relative_power_db_range": [-6.0, -3.0],
        },
    },
    "noise": {"snr_db": 5.0},
    "detection": {"target_pfa": 1.0e-3, "interpolate_peak": False},
    "schemes": ["otfs", "ofdm"],
    "trials": 1,
    "sweep": {"axis": "delta_f_hz", "values": [15.0e3, 30.0e3, 60.0e3]},
}


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int
    overrides: dict

    def config(self) -> dict:
        cfg = copy.deepcopy(README_DEFAULT)
        for section, value in self.overrides.items():
            if isinstance(value, dict):
                cfg[section].update(value)
            else:
                cfg[section] = value
        return cfg


# Why each workload exists, and what it should move, is in BENCHMARK.json.
WORKLOADS = {
    # README default scenario, trials raised so one command runs for seconds
    "simulate-default": Workload("simulate", 1, {"trials": 2}),
    # single-tap channel, three spacings: the receiver carries the time
    "cdf-sweep-los": Workload("cdf-sweep", 1, {"channel": {"nlos": None}}),
    # the only workload on the thread pool and the speed-dependent tilt
    "speed-tradeoff-2t": Workload(
        "speed-tradeoff",
        2,
        {"sweep": {"axis": "speed_mps", "values": [5.0, 10.0, 15.0, 20.0]}},
    ),
}

END_TO_END = {
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rmse_otfs_m": "m",
    "rmse_ofdm_m": "m",
}

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "channel.apply_ms_per_call": ("ms", "records_per_s: simulate-default, speed-tradeoff-2t"),
    "channel.taps_per_apply": ("count", "records_per_s: simulate-default, speed-tradeoff-2t"),
    "channel.interp_taps": ("count", "records_per_s: simulate-default, speed-tradeoff-2t"),
    "channel.kaiser_calls": ("count", "records_per_s: simulate-default, speed-tradeoff-2t"),
    "channel.awgn_ms_per_call": ("ms", "records_per_s: all three workloads"),
    "channel.synthesize_ms_per_call": ("ms", "records_per_s: simulate-default, speed-tradeoff-2t"),
    "prach_modem.receive_ms_per_call": ("ms", "records_per_s: cdf-sweep-los"),
    "prach_modem.transmit_calls": ("count", "setup_s: all"),
    "prach_modem.transmit_ms": ("ms", "setup_s: all"),
    "prach_modem.detected_ratio_otfs": ("ratio", "none: a speed change must not move it"),
    "prach_modem.detected_ratio_ofdm": ("ratio", "none: a speed change must not move it"),
    "dd_transform.wigner_ms_per_call": ("ms", "records_per_s: cdf-sweep-los"),
    "dd_transform.sfft_ms_per_call": ("ms", "records_per_s: cdf-sweep-los"),
    "zc.generate_calls": ("count", "records_per_s: cdf-sweep-los"),
    "zc.correlate_calls": ("count", "records_per_s: cdf-sweep-los"),
    "zc.correlate_ms": ("ms", "records_per_s: cdf-sweep-los"),
    "uav_scenario.ms": ("ms", "setup_s; records_per_s: speed-tradeoff-2t"),
    "metrics.write_ms": ("ms", "records_per_s: cdf-sweep-los"),
    "metrics.error_cdf_ms": ("ms", "records_per_s: cdf-sweep-los (0 elsewhere: not called)"),
    "config.load_ms": ("ms", "setup_s: all"),
    "experiments.self_ms": ("ms", "records_per_s: speed-tradeoff-2t"),
    "experiments.thread_busy_ratio": ("ratio", "records_per_s: speed-tradeoff-2t; batching also peak_rss_mb"),
    "cli.main_ms": ("ms", "none: checks the trace against the untraced work time"),
    "trace.overhead_pct": ("%", "none: cost of tracing"),
}
for layer in tracer.LAYERS:
    PER_LAYER.setdefault(f"{layer}.self_ms", ("ms", "self time of the layer's spans"))


class Runner:
    """Launches probe commands one at a time and keeps the failure count."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
        self.versions: dict = {}

    def run(self, tag, config_path, command, seed, threads, grid, run_id=None):
        """Run one command; return ``(probe result, rmse, out dir)`` or None."""
        self.attempted += 1
        out = self.workdir / tag
        out.mkdir()
        args = [sys.executable, str(PROBE), str(out / "probe.json")]
        if run_id is not None:
            args += ["--trace", str(out / "spans.json"), str(run_id)]
        args += [
            "--", command, "--config", str(config_path), "--seed", str(seed),
            "--out", str(out), "--threads", str(threads),
        ]
        try:
            proc = subprocess.run(
                args, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self.fail(tag, f"timed out after {COMMAND_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self.fail(tag, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            rmse = outputs.check_and_rmse(command, out, grid)
        except outputs.OutputError as exc:
            return self.fail(tag, str(exc))
        with open(out / "probe.json") as fh:
            result = json.load(fh)
        self.versions = {"numpy": result["numpy"], "blas": result["blas"]}
        return result, rmse, out

    def fail(self, tag, reason):
        self.failed += 1
        self.errors.append(f"{tag}: {reason}")
        return None


def grid_of(command: str, cfg: dict) -> outputs.Grid:
    values = cfg["sweep"]["values"] if command != "simulate" else [cfg["waveform"]["delta_f_hz"]]
    return outputs.Grid(
        points=cfg["scenario"]["trajectory"]["count"],
        trials=cfg["trials"],
        schemes=tuple(cfg["schemes"]),
        values=tuple(values),
    )


def to_yaml(value) -> str:
    """Flow-style YAML; floats keep a decimal point, which YAML 1.1 needs."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {to_yaml(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(to_yaml(v) for v in value) + "]"
    if isinstance(value, float):
        mantissa, _, exponent = repr(value).partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return mantissa + (f"e{int(exponent):+d}" if exponent else "")
    return json.dumps(value)  # null, true/false, int, str


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(to_yaml(cfg) + "\n")
    return path


def git_revision() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (
        f"n={len(values)} q1={q1:.6g} q3={q3:.6g} "
        f"min={min(values):.6g} max={max(values):.6g}"
    )


def own_time(wall_s: float, steal_s: float, threads: int) -> float:
    """Wall time less the hypervisor's steal on the command's threads.

    The steal counter covers every CPU, so at most half the wall time is taken
    off: steal on a CPU the command did not use must not drive it to zero.
    """
    return wall_s - min(steal_s / threads, 0.5 * wall_s)


def threads_check(runner: Runner, seed: int) -> bool:
    """simulate at the README default is byte-identical at 1 and 2 threads."""
    config = write_config(runner.workdir / "readme-default.yaml", README_DEFAULT)
    grid = grid_of("simulate", README_DEFAULT)
    files = []
    for threads in (1, 2):
        done = runner.run(f"threads{threads}", config, "simulate", seed, threads, grid)
        if done is None:
            return False
        files.append((done[2] / "results.csv").read_bytes())
    if files[0] != files[1]:
        runner.errors.append("results.csv differs between --threads 1 and --threads 2")
        return False
    return True


def bench(name: str, seed: int, seconds: int, trace: bool, runner: Runner) -> dict:
    """Run one workload; return its metrics, their samples and its checks."""
    workload = WORKLOADS[name]
    cfg = workload.config()
    config = write_config(runner.workdir / f"{name}.yaml", cfg)
    grid = grid_of(workload.command, cfg)
    output_file = outputs.OUTPUT_FILE[workload.command]

    checks = {"threads_identical": threads_check(runner, seed)}
    reference = runner.run(
        "reference", config, workload.command, REFERENCE_SEED, workload.threads, grid
    )
    checks["reference_ok"] = reference is not None

    def work_time(result):
        return own_time(result["work_s"], result["work_steal_s"], workload.threads)

    timed, traced = [], []
    first_output = None
    start = time.monotonic()
    i = 0
    while not runner.failed and (
        time.monotonic() - start < seconds
        or len(timed) < (MIN_TRACED if trace else MIN_TIMED)
    ):
        for sink in [timed, traced] if trace else [timed]:
            run_id = i if sink is traced else None
            tag = f"{'traced' if sink is traced else 'timed'}{i}"
            done = runner.run(tag, config, workload.command, seed, workload.threads, grid, run_id)
            if done is None:
                break  # the run is already incorrect; report it without waiting
            result, _, out = done
            data = (out / output_file).read_bytes()
            first_output = first_output or data
            if data != first_output:
                runner.fail(tag, f"{output_file} differs from the first command's")
                break
            if sink is traced:
                with open(out / "spans.json") as fh:
                    result["layers"] = tracer.summarize(json.load(fh), workload.threads)
            sink.append(result)
            shutil.rmtree(out)
        i += 1

    if trace:
        samples = {
            key: [t["layers"][key] for t in traced]
            for key in PER_LAYER
            if key != "trace.overhead_pct"
        }
        # each traced command against the untraced one just before it
        samples["trace.overhead_pct"] = [
            100.0 * (work_time(t) / work_time(u) - 1.0) for t, u in zip(traced, timed)
        ]
        counts = [{key: t["layers"][key] for key in tracer.EXACT_COUNTS} for t in traced]
        checks["counts_repeat"] = all(c == counts[0] for c in counts)
    else:
        samples = {
            "records_per_s": [grid.records / work_time(t) for t in timed],
            "setup_s": [own_time(t["setup_s"], t["setup_steal_s"], 1) for t in timed],
            "peak_rss_mb": [t["peak_rss_mb"] for t in timed],
            "wall_records_per_s": [grid.records / t["work_s"] for t in timed],
            "wall_setup_s": [t["setup_s"] for t in timed],
        }
        if reference is not None:
            for scheme, value in reference[1].items():
                samples[f"rmse_{scheme}_m"] = [value]
    order = PER_LAYER if trace else END_TO_END
    metrics = {key: statistics.median(samples[key]) for key in order if samples.get(key)}
    return {"workload": name, "checks": checks, "metrics": metrics, "samples": samples}


def environment(runner: Runner) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **runner.versions,
        "git": git_revision(),
        **THREAD_PINS,
    }


def print_report(report: dict, trace: bool) -> None:
    print(f"# workload {report['workload']}  checks {json.dumps(report['checks'])}")
    for key, value in report["metrics"].items():
        unit, moves = PER_LAYER[key] if trace else (END_TO_END[key], "")
        moves = f"  moves {moves}" if moves else ""
        print(f"{key:34s} {value:14.6g} {unit:10s} {describe(report['samples'][key])}{moves}")
    for key in ("wall_records_per_s", "wall_setup_s"):
        if key in report["samples"]:
            values = report["samples"][key]
            print(f"# {key:32s} {statistics.median(values):14.6g} {describe(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ddprach" / "cli.py").is_file():
        print(f"perfbench: no ddprach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = {k: u for k, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = SCRATCH / f"{label}-{os.getpid()}"
    runners, reports = [], []
    try:
        for name in names:
            runners.append(Runner(workdir / name))
            reports.append(bench(name, args.seed, args.seconds, bool(args.trace), runners[-1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    correct = failed == 0 and all(
        all(rep["checks"].values()) and set(rep["metrics"]) == set(units)
        for rep in reports
    )
    env = environment(runners[0])
    with open(SCRATCH / f"report-{label}.json", "w") as fh:
        json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                   "errors": [e for r in runners for e in r.errors],
                   "reports": reports}, fh, indent=1)

    print(f"# perfbench seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    for runner in runners:
        for error in runner.errors:
            print(f"# failed {error}")
    for report in reports:
        print_report(report, bool(args.trace))

    def key(workload, metric):
        return metric if len(names) == 1 else f"{workload}/{metric}"

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(rep["workload"], metric): {"value": value, "unit": units[metric]}
            for rep in reports
            for metric, value in rep["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
