"""Ranging error statistics: RMSE, CDF, and the CSV table writer."""

import csv
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ResultRecord",
    "RESULTS_HEADER",
    "rmse",
    "error_cdf",
    "write_rows",
    "write_results_csv",
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
    magnitudes = np.abs(np.asarray(errors, dtype=float))
    # one step per distinct value, at the share of errors up to and including it
    values, counts = np.unique(magnitudes, return_counts=True)
    return list(zip(values.tolist(), (np.cumsum(counts) / magnitudes.size).tolist()))


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

