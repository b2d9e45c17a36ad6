"""Error statistics, the LoS RMSE bound and results-CSV round trips."""

import math

import pytest

from ddprach import (
    ResultRecord,
    error_cdf,
    read_results_csv,
    rmse,
    rmse_los_bound,
    write_results_csv,
)
from ddprach.metrics import RESULTS_HEADER


# ---------------------------------------------------------------------------
# rmse
# ---------------------------------------------------------------------------

def test_rmse_small_set():
    assert rmse([1.0, 2.0, 2.0]) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_rmse_single_sample_is_magnitude():
    assert rmse([-4.2]) == pytest.approx(4.2, rel=1e-12)


def test_rmse_sign_and_order_invariance():
    a = rmse([3.0, -1.0, 2.5])
    b = rmse([-2.5, 1.0, 3.0])
    assert a == pytest.approx(b, rel=1e-12)


def test_rmse_scaling():
    base = [1.0, 2.0, 3.0]
    scaled = [5.0, 10.0, 15.0]
    assert rmse(scaled) == pytest.approx(5.0 * rmse(base), rel=1e-12)


def test_rmse_empty_raises():
    with pytest.raises(ValueError):
        rmse([])


# ---------------------------------------------------------------------------
# error cdf
# ---------------------------------------------------------------------------

def test_cdf_identical_samples_collapse():
    assert error_cdf([1.0, 1.0, 1.0]) == [(1.0, 1.0)]


def test_cdf_step_points():
    points = error_cdf([1.0, -2.0, 3.0, 4.0])
    assert points == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]


def test_cdf_uses_magnitudes():
    assert error_cdf([-5.0, 5.0]) == [(5.0, 1.0)]


def test_cdf_reaches_one():
    points = error_cdf(list(range(17)))
    assert points[-1][1] == 1.0
    probs = [p for _, p in points]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_cdf_empty_raises():
    with pytest.raises(ValueError):
        error_cdf([])


# ---------------------------------------------------------------------------
# LoS RMSE bound
# ---------------------------------------------------------------------------

def test_bound_unit_example():
    # sqrt(6 / (4 pi * 2 * 1 * 3 * 1)) = sqrt(1 / (4 pi)) = 0.2820947918
    assert rmse_los_bound(2, 1, 1.0, 1.0) == pytest.approx(0.28209479, abs=1e-6)


def test_bound_double_evaluation():
    m, k, p_t, h2 = 1024, 4, 0.1995262314968880, 1e-12
    expected = math.sqrt(6.0 / (4.0 * math.pi * m * k * (m**2 - 1) * p_t * h2))
    assert rmse_los_bound(m, k, p_t, h2) == pytest.approx(expected, rel=1e-12)


def test_bound_scales_inversely_with_gain():
    base = rmse_los_bound(1024, 4, 0.2, 1e-12)
    assert rmse_los_bound(1024, 4, 0.2, 4e-12) == pytest.approx(base / 2.0, rel=1e-12)


def test_bound_shrinks_with_aperture():
    assert rmse_los_bound(2048, 4, 0.2, 1e-12) < rmse_los_bound(1024, 4, 0.2, 1e-12)


def test_bound_validation():
    with pytest.raises(ValueError):
        rmse_los_bound(1, 4, 0.2, 1e-12)
    with pytest.raises(ValueError):
        rmse_los_bound(1024, 0, 0.2, 1e-12)
    with pytest.raises(ValueError):
        rmse_los_bound(1024, 4, 0.0, 1e-12)
    with pytest.raises(ValueError):
        rmse_los_bound(1024, 4, 0.2, 0.0)


# ---------------------------------------------------------------------------
# results CSV
# ---------------------------------------------------------------------------

def test_results_csv_round_trip(tmp_path):
    records = [
        ResultRecord("otfs", 15e3, 10.0, 3, True, 60.0, 58.55, 1.45, True),
        ResultRecord("ofdm", 30e3, 0.0, 7, False, 120.0, None, None, False),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(path, records)
    with open(path, "a", newline="") as fh:
        fh.write("\r\n")  # a trailing blank line
    loaded = read_results_csv(path)
    assert len(loaded) == 2
    assert loaded[0].scheme == "otfs"
    assert loaded[0].los_tag is True
    assert loaded[0].error_m == pytest.approx(1.45, rel=1e-9)
    assert loaded[1].est_d_m is None
    assert loaded[1].error_m is None
    assert loaded[1].detected is False
    assert loaded[1].los_tag is False


@pytest.mark.parametrize(
    "text",
    [
        "a,b,c\n1,2,3\n",
        # the results header, then a row of 8 fields
        ",".join(RESULTS_HEADER) + "\notfs,15000.0,10.0,3,los,60.0,58.55,1.45\n",
        "",
    ],
    ids=["foreign_header", "short_row", "empty_file"],
)
def test_results_csv_rejects_foreign_header(tmp_path, text):
    path = tmp_path / "other.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_results_csv(path)


@pytest.mark.parametrize(
    "row, column",
    [
        ("otfs,15000.0,10.0,3,los,sixty,58.55,1.45,1", "true_d_m"),
        ("otfs,15000.0,10.0,3,los,60.0,58.55,1.45,", "detected"),
        ("otfs,15000.0,10.0,3.5,los,60.0,58.55,1.45,1", "point_index"),
        ("otfs,15000.0,10.0,3,1,60.0,58.55,1.45,1", "los_tag"),
    ],
    ids=["text_number", "empty_boolean", "float_index", "numeric_los_tag"],
)
def test_results_csv_names_the_line_of_a_bad_cell(tmp_path, row, column):
    path = tmp_path / "results.csv"
    path.write_text(",".join(RESULTS_HEADER) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=f"line 2: {column}: "):
        read_results_csv(path)
