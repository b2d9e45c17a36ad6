"""Error statistics: RMSE and the empirical CDF."""

import math

import numpy as np
import pytest

from ddprach import error_cdf, rmse


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


def loop_cdf(errors):
    """The CDF's definition, one step at a time: the last of each run of ties."""
    magnitudes = sorted(abs(float(e)) for e in errors)
    n = len(magnitudes)
    return [(value, (i + 1) / n) for i, value in enumerate(magnitudes)
            if i + 1 == n or magnitudes[i + 1] != value]


def test_cdf_matches_loop_reference():
    rng = np.random.default_rng(4)
    for _ in range(200):
        size = int(rng.integers(1, 80))
        # rounding makes ties, with both signs of the same magnitude
        errors = np.round(rng.standard_normal(size) * 10.0, int(rng.integers(0, 2)))
        points = error_cdf(errors)
        assert points == loop_cdf(errors)
        assert all(type(v) is float and type(p) is float for v, p in points)


def test_cdf_empty_raises():
    with pytest.raises(ValueError):
        error_cdf([])

