"""Command-line entry point.

Subcommands
-----------
simulate        single run at the configured operating point
cdf-sweep       error CDF per (scheme, subcarrier spacing)
speed-tradeoff  ranging RMSE vs speed next to tilt and propulsion power
tilt-sweep      ranging RMSE and LoS point counts vs forced antenna tilt
validate-config parse + echo the canonical form of a config file

Exit codes: 0 success, 2 config error, 3 data error (e.g. malformed taps
file); any other error, such as a worker process that died, is a bug and
ends in a traceback.  All outputs are CSVs written under ``--out`` (default:
cwd).
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .channel import TapFileError
from .config import ConfigError, load_config, serialize_config
from .experiments import (
    CDF_HEADER,
    run_cdf_sweep,
    run_simulate,
    run_speed_tradeoff,
    run_tilt_sweep,
    summarize,
)
from .metrics import write_results_csv
# perfbench/tracer.py wraps the writer under this name until ROADMAP item 8
from .metrics import write_rows as _write_rows

__all__ = ["main", "build_parser"]


# ``--threads K`` keeps its name but runs K processes, forked with
# ``os.fork`` (Linux), each holding its own interpreter's pages; the bound is
# the one the thread pool had, so every command line accepted or refused
# before still is
_MAX_THREADS = 64


def _integer_in(low: int, high: float = math.inf):
    """argparse type: an integer in ``[low, high]``; anything else exits 2 at
    parse time."""
    bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")
        return value

    return parse


def _output_dir(text: str) -> str:
    """argparse type: a directory that can be made after the run; a path
    that is, or sits under, an existing non-directory exits 2 at parse time."""
    path = Path(text)
    for part in (path, *path.parents):
        if os.path.exists(part):
            if not os.path.isdir(part):
                raise argparse.ArgumentTypeError(f"{part} exists and is not a directory")
            break
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddprach",
        description="Delay-Doppler PRACH ranging experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "run the configured scenario once"),
        ("cdf-sweep", "error CDF per subcarrier spacing"),
        ("speed-tradeoff", "RMSE vs speed with tilt and propulsion power"),
        ("tilt-sweep", "RMSE and LoS counts vs forced antenna tilt"),
        ("validate-config", "check a config file and print its canonical form"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to YAML config")
        if name != "validate-config":
            # the config's own ``seed`` rule: >= 0
            cmd.add_argument(
                "--seed", type=_integer_in(0), help="override config seed"
            )
            cmd.add_argument("--out", type=_output_dir, default=".", help="output directory")
            cmd.add_argument(
                "--threads",
                type=_integer_in(1, _MAX_THREADS),
                default=1,
                help=(
                    "worker processes, forked, over contiguous ranges of trajectory "
                    f"points; memory grows with it; 1 to {_MAX_THREADS} (default 1)"
                ),
            )
    return parser


def _print_summary(summary: dict) -> None:
    for scheme, entry in summary.items():
        parts = [f"{scheme}: detection_rate={entry['detection_rate']:.4f}"]
        if "rmse_m" in entry:
            parts.append(f"rmse_m={entry['rmse_m']:.6g}")
        if "mean_abs_error_m" in entry:
            parts.append(f"mean_abs_error_m={entry['mean_abs_error_m']:.6g}")
        print("  ".join(parts))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate-config":
        print(serialize_config(cfg), end="")
        return 0

    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

    def out_path(name: str) -> Path:
        # made only once a run has succeeded, so a failed run leaves no directory
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / name

    try:
        if args.command == "simulate":
            records = run_simulate(cfg, workers=args.threads)
            path = out_path("results.csv")
            write_results_csv(path, records)
            _print_summary(summarize(records))
        elif args.command == "cdf-sweep":
            rows = run_cdf_sweep(cfg, workers=args.threads)
            path = out_path("cdf.csv")
            _write_rows(path, CDF_HEADER, rows)
        # a sweep runner writes one row per sweep value, and sweep.values is
        # never empty: the first row's keys are the columns
        elif args.command == "speed-tradeoff":
            rows = run_speed_tradeoff(cfg, workers=args.threads)
            path = out_path("speed_tradeoff.csv")
            _write_rows(path, list(rows[0]), rows)
        elif args.command == "tilt-sweep":
            rows = run_tilt_sweep(cfg, workers=args.threads)
            path = out_path("tilt_sweep.csv")
            _write_rows(path, list(rows[0]), rows)
        print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ChildProcessError:
        raise  # a worker process that died is a bug, though an OSError
    except (TapFileError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
