"""Checks on the CSV a ddprach command writes, and the RMSE read from it.

The expected layouts are the ones the README documents; they are written out
here rather than imported, so that the check does not trust the program.
"""

import collections
import csv
import math
from dataclasses import dataclass

RESULTS_HEADER = [
    "scheme",
    "delta_f_hz",
    "speed_mps",
    "point_index",
    "los_tag",
    "true_d_m",
    "est_d_m",
    "error_m",
    "detected",
]
CDF_HEADER = ["scheme", "delta_f_hz", "abs_error_m", "cdf"]

OUTPUT_FILE = {
    "simulate": "results.csv",
    "cdf-sweep": "cdf.csv",
    "speed-tradeoff": "speed_tradeoff.csv",
}


class OutputError(Exception):
    """The command's output is missing or wrong."""


@dataclass(frozen=True)
class Grid:
    """What one command computes: points x trials x schemes x sweep values."""

    points: int
    trials: int
    schemes: tuple[str, ...]
    values: tuple[float, ...]   # swept values; one entry for ``simulate``

    @property
    def records(self) -> int:
        return self.points * self.trials * len(self.schemes) * len(self.values)


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise OutputError(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise OutputError(f"{what}: not finite: {text!r}")
    return value


def _read(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise OutputError(f"{path} is empty")
    return rows[0], rows[1:]


def _results_rmse(path, grid: Grid) -> dict[str, float]:
    header, rows = _read(path)
    if header != RESULTS_HEADER:
        raise OutputError(f"results.csv header {header}")
    if len(rows) != grid.records:
        raise OutputError(f"results.csv has {len(rows)} rows, expected {grid.records}")
    errors = collections.defaultdict(list)
    per_scheme = collections.Counter()
    for line, row in enumerate(rows, start=2):
        where = f"results.csv line {line}"
        if len(row) != len(RESULTS_HEADER) or row[0] not in grid.schemes:
            raise OutputError(f"{where}: malformed row {row}")
        per_scheme[row[0]] += 1
        true_d = _finite(row[5], where)
        if row[8] == "1":
            est = _finite(row[6], where)
            err = _finite(row[7], where)
            if abs(true_d - est - err) > 1e-6 * max(1.0, abs(true_d)):
                raise OutputError(f"{where}: error_m != true_d_m - est_d_m")
            errors[row[0]].append(err)
        elif row[8] != "0" or row[6] or row[7]:
            raise OutputError(f"{where}: bad miss row {row}")
    expected = grid.points * grid.trials * len(grid.values)
    for scheme in grid.schemes:
        if per_scheme[scheme] != expected:
            raise OutputError(f"results.csv: {per_scheme[scheme]} {scheme} rows")
        if not errors[scheme]:
            raise OutputError(f"results.csv: no detected {scheme} row")
    return {
        scheme: math.sqrt(sum(e * e for e in errs) / len(errs))
        for scheme, errs in errors.items()
    }


def _cdf_rmse(path, grid: Grid) -> dict[str, float]:
    """RMSE of each CDF (from its steps), averaged over the swept spacings."""
    header, rows = _read(path)
    if header != CDF_HEADER:
        raise OutputError(f"cdf.csv header {header}")
    steps = collections.defaultdict(list)
    for line, row in enumerate(rows, start=2):
        where = f"cdf.csv line {line}"
        if len(row) != len(CDF_HEADER):
            raise OutputError(f"{where}: malformed row {row}")
        key = (row[0], _finite(row[1], where))
        steps[key].append((_finite(row[2], where), _finite(row[3], where)))
    expected = {(s, v) for s in grid.schemes for v in grid.values}
    if set(steps) != expected:
        raise OutputError(f"cdf.csv groups {sorted(steps)}")
    per_spacing = collections.defaultdict(list)
    for (scheme, _), points in sorted(steps.items()):
        if len(points) > grid.points * grid.trials:
            raise OutputError(f"cdf.csv: {len(points)} steps for {scheme}")
        mean_square = 0.0
        last_x, last_p = -1.0, 0.0
        for x, p in points:
            if not (x > last_x and 0.0 <= x and last_p < p <= 1.0):
                raise OutputError(f"cdf.csv: {scheme} steps not increasing")
            mean_square += x * x * (p - last_p)
            last_x, last_p = x, p
        if abs(last_p - 1.0) > 1e-9:
            raise OutputError(f"cdf.csv: {scheme} CDF ends at {last_p}")
        per_spacing[scheme].append(math.sqrt(mean_square))
    return {s: sum(v) / len(v) for s, v in per_spacing.items()}


def _speed_rmse(path, grid: Grid) -> dict[str, float]:
    """RMSE per scheme averaged over the swept speeds."""
    header, rows = _read(path)
    expected = ["speed_mps", "tilt_deg", "power_w"]
    expected += [f"rmse_{s}_m" for s in grid.schemes]
    if header != expected:
        raise OutputError(f"speed_tradeoff.csv header {header}")
    if len(rows) != len(grid.values):
        raise OutputError(f"speed_tradeoff.csv has {len(rows)} rows")
    sums = collections.Counter()
    for line, (row, speed) in enumerate(zip(rows, grid.values), start=2):
        where = f"speed_tradeoff.csv line {line}"
        if len(row) != len(expected):
            raise OutputError(f"{where}: malformed row {row}")
        values = [_finite(cell, where) for cell in row]
        if values[0] != speed or values[2] <= 0.0 or min(values[3:]) < 0.0:
            raise OutputError(f"{where}: bad row {row}")
        for scheme, value in zip(grid.schemes, values[3:]):
            sums[scheme] += value
    return {s: sums[s] / len(rows) for s in grid.schemes}


def check_and_rmse(command: str, out_dir, grid: Grid) -> dict[str, float]:
    """Validate the command's output file and return the RMSE per scheme.

    Raises :class:`OutputError` when the file is missing or malformed, when
    the row count disagrees with ``grid`` or when a detected row has a
    non-finite distance.
    """
    check = {
        "simulate": _results_rmse,
        "cdf-sweep": _cdf_rmse,
        "speed-tradeoff": _speed_rmse,
    }[command]
    return check(out_dir / OUTPUT_FILE[command], grid)
