"""Ranging error statistics: RMSE, LoS bound, CDF, and the one CSV writer."""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ResultRecord",
    "RESULTS_HEADER",
    "rmse",
    "error_cdf",
    "rmse_los_bound",
    "write_rows",
    "write_results_csv",
    "read_results_csv",
]


def rmse(errors) -> float:
    """Root mean square of the errors."""
    if len(errors) == 0:
        raise ValueError("rmse needs at least one error")
    return float(np.sqrt(np.mean(np.square(np.asarray(errors, dtype=float)))))


def error_cdf(errors) -> list[tuple[float, float]]:
    """Empirical CDF of the absolute errors.

    Returns ``(abscissa, probability)`` step points at each distinct
    absolute error, right-continuous and reaching probability 1.0.
    """
    if len(errors) == 0:
        raise ValueError("error_cdf needs at least one error")
    magnitudes = np.sort(np.abs(np.asarray(errors, dtype=float)))
    n = magnitudes.size
    points = []
    for i, value in enumerate(magnitudes):
        if i + 1 < n and magnitudes[i + 1] == value:
            continue  # keep only the last (highest) step of duplicates
        points.append((float(value), (i + 1) / n))
    return points


def rmse_los_bound(m: int, k: int, p_t_watts: float, h_squared: float) -> float:
    """Lower bound on the LoS ranging RMSE.

    ``sqrt( 6 / (4 pi M K (M^2 - 1) P_t) * 1 / |h|^2 )`` for M subcarriers,
    K symbols, transmit power P_t and squared channel gain |h|^2.  Scales as
    ``1 / |h|``.
    """
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    if p_t_watts <= 0 or h_squared <= 0:
        raise ValueError("p_t_watts and h_squared must be positive")
    return math.sqrt(
        6.0 / (4.0 * math.pi * m * k * (m**2 - 1) * p_t_watts) / h_squared
    )


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

@dataclass
class ResultRecord:
    """One row of the simulation results CSV; its fields are the columns."""

    scheme: str
    delta_f_hz: float
    speed_mps: float
    point_index: int
    los_tag: bool
    true_d_m: float
    est_d_m: float | None
    error_m: float | None
    detected: bool


RESULTS_HEADER = [f.name for f in fields(ResultRecord)]


def format_cell(value) -> str:
    """One CSV cell: empty for ``None``, ``1``/``0`` for a boolean and 12
    significant digits for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_rows(path, header, rows) -> None:
    """Write a CSV table: the ``header`` line, then one line per row mapping,
    its cells taken in ``header`` order through :func:`format_cell`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(row[key]) for key in header])


def write_results_csv(path, records) -> None:
    """Write result records in the canonical column order."""
    write_rows(
        path,
        RESULTS_HEADER,
        ({**vars(rec), "los_tag": "los" if rec.los_tag else "nlos"} for rec in records),
    )


def read_results_csv(path) -> list[ResultRecord]:
    """Read back a results CSV written by :func:`write_results_csv`.

    Empty lines are skipped; a row with another field count than the header
    raises ``ValueError`` naming the path and the line.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_HEADER:
            raise ValueError(f"{path}: unexpected results header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RESULTS_HEADER):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(RESULTS_HEADER)} "
                    f"fields, got {len(row)}"
                )
            records.append(
                ResultRecord(
                    scheme=row[0],
                    delta_f_hz=float(row[1]),
                    speed_mps=float(row[2]),
                    point_index=int(row[3]),
                    los_tag=row[4] == "los",
                    true_d_m=float(row[5]),
                    est_d_m=float(row[6]) if row[6] else None,
                    error_m=float(row[7]) if row[7] else None,
                    detected=row[8] == "1",
                )
            )
    return records
