"""Ranging error statistics: RMSE, LoS bound, CDF, and the one CSV writer and reader."""

import csv
import math
import typing
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ResultRecord",
    "RESULTS_HEADER",
    "rmse",
    "error_cdf",
    "rmse_los_bound",
    "read_rows",
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


def read_rows(path, header, error=ValueError):
    """Read a CSV table: yield ``(line_no, row)`` for each non-blank line
    after the ``header`` line, ``row`` mapping each column to its text.

    A first line other than ``header``, or a row with another field count,
    raises ``error`` naming the path and the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise error(f"{path}: line 1: expected header {','.join(header)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise error(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            yield line_no, dict(zip(header, row))


def write_results_csv(path, records) -> None:
    """Write result records in the canonical column order."""
    write_rows(
        path,
        RESULTS_HEADER,
        ({**vars(rec), "los_tag": "los" if rec.los_tag else "nlos"} for rec in records),
    )


def _parse_cell(kind, text: str, truth: tuple[str, str]):
    """One cell as a value of field type ``kind``: ``""`` is ``None`` where
    the type allows it, and a boolean is one of the two ``truth`` texts."""
    if type(None) in typing.get_args(kind):
        if not text:
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    if kind is bool and text not in truth:
        raise ValueError(f"expected {' or '.join(truth)}, got {text!r}")
    return text == truth[0] if kind is bool else kind(text)


def read_results_csv(path) -> list[ResultRecord]:
    """Read back a results CSV written by :func:`write_results_csv`.

    Each cell is parsed by its ``ResultRecord`` field's type.  A foreign
    header, a row with another field count or a cell that does not parse
    raises ``ValueError`` naming the path and the line.
    """
    records = []
    for line_no, row in read_rows(path, RESULTS_HEADER):
        values = {}
        for f in fields(ResultRecord):
            truth = ("los", "nlos") if f.name == "los_tag" else ("1", "0")
            try:
                values[f.name] = _parse_cell(f.type, row[f.name], truth)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {f.name}: {exc}") from exc
        records.append(ResultRecord(**values))
    return records
