"""Command-line entry point.

Subcommands
-----------
simulate        single run at the configured operating point
cdf-sweep       error CDF per (scheme, subcarrier spacing)
speed-tradeoff  ranging RMSE vs speed next to tilt and propulsion power
tilt-sweep      ranging RMSE and LoS point counts vs forced antenna tilt
validate-config parse + echo the canonical form of a config file

Exit codes: 0 success, 2 config error, 3 data error (e.g. malformed taps
file).  All outputs are CSVs written under ``--out`` (default: cwd).
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from .channel import TapFileError
from .config import ConfigError, load_config, serialize_config
from .experiments import (
    run_cdf_sweep,
    run_simulate,
    run_speed_tradeoff,
    run_tilt_sweep,
    summarize,
)
from .metrics import format_cell, write_results_csv

__all__ = ["main", "build_parser"]


def _integer_at_least(low: int):
    """argparse type: an integer ``>= low``; anything else exits 2 at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


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
                "--seed", type=_integer_at_least(0), help="override config seed"
            )
            cmd.add_argument("--out", default=".", help="output directory")
            cmd.add_argument(
                "--threads", type=_integer_at_least(1), default=1, help="worker threads"
            )
    return parser


def _write_rows(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(row[key]) for key in header])


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
            records = run_simulate(cfg, threads=args.threads)
            path = out_path("results.csv")
            write_results_csv(path, records)
            _print_summary(summarize(records))
        elif args.command == "cdf-sweep":
            rows = run_cdf_sweep(cfg, threads=args.threads)
            path = out_path("cdf.csv")
            _write_rows(path, ["scheme", "delta_f_hz", "abs_error_m", "cdf"], rows)
        elif args.command == "speed-tradeoff":
            rows = run_speed_tradeoff(cfg, threads=args.threads)
            header = ["speed_mps", "tilt_deg", "power_w"]
            header += [f"rmse_{s}_m" for s in cfg.schemes]
            path = out_path("speed_tradeoff.csv")
            _write_rows(path, header, rows)
        elif args.command == "tilt-sweep":
            rows = run_tilt_sweep(cfg, threads=args.threads)
            header = [
                "tilt_deg",
                "n_los_geometric",
                "last_los_index",
                "n_los_tagged",
            ]
            header += [f"rmse_{s}_m" for s in cfg.schemes]
            path = out_path("tilt_sweep.csv")
            _write_rows(path, header, rows)
        print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TapFileError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
