"""Trajectory geometry, antenna pattern, pitch angle, power, LoS counting."""

import math

import numpy as np
import pytest

from ddprach import (
    AirframeConfig,
    AntennaConfig,
    antenna_gain,
    build_trajectory,
    los_point_count,
    pitch_angle,
    propulsion_power,
)
from ddprach.uav_scenario import INDUCED_POWER_CORRECTION, PROFILE_DRAG_COEFFICIENT


# ---------------------------------------------------------------------------
# antenna pattern
# ---------------------------------------------------------------------------

def test_boresight_gain():
    cfg = AntennaConfig()
    assert antenna_gain(0.0, 17.0, 17.0, cfg) == pytest.approx(cfg.g_rmax_db)


def test_gain_3db_widths():
    cfg = AntennaConfig(g_rmax_db=10.0, gamma_3db_deg=65.0, theta_3db_deg=65.0)
    assert antenna_gain(65.0, 5.0, 5.0, cfg) == pytest.approx(10.0 - 12.0)
    assert antenna_gain(32.5, 5.0 + 32.5, 5.0, cfg) == pytest.approx(10.0 - 6.0)


def test_gain_floor_caps_attenuation_at_30_db():
    # TR 38.901 Table 7.3-1: the parabolic pattern is cut at A_max = 30 dB;
    # uncapped, the first path would read -122.9 dB
    cfg = AntennaConfig()
    assert antenna_gain(180.0, 120.0, 0.0, cfg) == cfg.g_rmax_db - 30.0
    assert antenna_gain(0.0, 1.0e6, 0.0, cfg) == cfg.g_rmax_db - 30.0
    # just inside the floor the pattern is still parabolic
    assert antenna_gain(0.0, 29.0**0.5 / 12.0**0.5 * 65.0, 0.0, cfg) == pytest.approx(
        cfg.g_rmax_db - 29.0
    )
    # the channel passes gamma = 0; the README default's worst case, the
    # overhead point at zero tilt, is 23 dB down: the floor never binds there
    assert antenna_gain(0.0, 90.0, 0.0, cfg) == pytest.approx(
        cfg.g_rmax_db - 12.0 * (90.0 / 65.0) ** 2
    )


def test_gain_argmax_at_tilt():
    cfg = AntennaConfig()
    tilt = 23.0
    thetas = np.linspace(-60.0, 90.0, 301)
    gains = [antenna_gain(7.0, theta, tilt, cfg) for theta in thetas]
    assert thetas[int(np.argmax(gains))] == pytest.approx(tilt, abs=0.5)


def test_fnb_default():
    cfg = AntennaConfig(theta_3db_deg=40.0)
    assert cfg.fnb_deg == pytest.approx(100.0)
    explicit = AntennaConfig(theta_3db_deg=40.0, fnb_deg=80.0)
    assert explicit.fnb_deg == 80.0


# ---------------------------------------------------------------------------
# pitch angle
# ---------------------------------------------------------------------------

def test_pitch_at_hover():
    theta_xi, theta_v = pitch_angle(0.0, AirframeConfig())
    assert theta_xi == 90.0
    assert theta_v == 0.0


@pytest.mark.parametrize("v", [1.0e-300, 5e-324])
def test_pitch_at_a_speed_whose_square_underflows_is_hover(v):
    # v**2 is 0.0 here: the drag ratio is infinite, as at hover
    assert v > 0.0 and v**2 == 0.0
    assert pitch_angle(v, AirframeConfig()) == (90.0, 0.0)


def test_pitch_monotone_in_speed():
    cfg = AirframeConfig()
    tilts = [pitch_angle(v, cfg)[1] for v in np.linspace(0.5, 30.0, 60)]
    assert all(b > a for a, b in zip(tilts, tilts[1:]))


def test_pitch_double_evaluation():
    """Independent scalar evaluation of the drag-balance pitch at v = 10."""
    cfg = AirframeConfig()
    x = (cfg.mass_kg * cfg.gravity_mps2) / (
        cfg.air_density_kgpm3 * cfg.drag_coefficient * cfg.swept_area_m2 * 10.0**2
    )
    expected_xi = math.degrees(math.acos(math.sqrt(x * x + 1.0) - x))
    theta_xi, theta_v = pitch_angle(10.0, cfg)
    assert theta_xi == pytest.approx(expected_xi, rel=1e-12)
    assert theta_v == pytest.approx(90.0 - expected_xi, rel=1e-12)


def test_pitch_range():
    cfg = AirframeConfig()
    for v in np.linspace(0.0, 120.0, 50):
        _, theta_v = pitch_angle(v, cfg)
        assert 0.0 <= theta_v < 90.0


def test_pitch_rejects_negative_speed():
    with pytest.raises(ValueError):
        pitch_angle(-1.0, AirframeConfig())


# ---------------------------------------------------------------------------
# propulsion power
# ---------------------------------------------------------------------------

def hover_constants(cfg):
    """``(v0, P0, Pi)`` of Zeng's eq. (12) for the airframe's weight, in the
    operation order of ``propulsion_power``."""
    weight = cfg.mass_kg * cfg.gravity_mps2
    rho_a = cfg.air_density_kgpm3 * cfg.rotor_disc_area_m2
    v0 = math.sqrt(weight / (2.0 * rho_a))
    p0 = PROFILE_DRAG_COEFFICIENT / 8.0 * rho_a * cfg.rotor_solidity * cfg.tip_speed_mps**3
    pi = (1.0 + INDUCED_POWER_CORRECTION) * weight * v0
    return v0, p0, pi


def eq12(v, v0, p0, pi, cfg):
    """Eq. (12) of Zeng, Xu & Zhang (IEEE TWC 2019), written out."""
    profile = p0 * (1.0 + 3.0 * v**2 / cfg.tip_speed_mps**2)
    parasite = 0.5 * cfg.fuselage_drag_ratio * cfg.air_density_kgpm3 * \
        cfg.rotor_solidity * cfg.rotor_disc_area_m2 * v**3
    a = v**2 / (2.0 * v0**2)
    induced = pi * math.sqrt(math.sqrt(1.0 + a * a) - a)
    return profile + parasite + induced


def test_power_at_hover_exact():
    cfg = AirframeConfig()
    _, p0, pi = hover_constants(cfg)
    assert propulsion_power(0.0, cfg) == p0 + pi


def test_power_reproduces_zeng_table_1():
    # Table I's aircraft weighs W = 20 N and prints the hover constants
    # v0 = 4.03 m/s, P0 = 79.86 W and Pi = 88.63 W that the rotor derives
    cfg = AirframeConfig()
    cfg.mass_kg = 20.0 / cfg.gravity_mps2
    for v in np.linspace(0.0, 30.0, 61):
        assert propulsion_power(v, cfg) == pytest.approx(
            eq12(v, 4.03, 79.86, 88.63, cfg), rel=1e-3
        )


def test_power_has_interior_minimum():
    cfg = AirframeConfig()
    speeds = np.linspace(0.0, 30.0, 301)
    powers = [propulsion_power(v, cfg) for v in speeds]
    v_star = speeds[int(np.argmin(powers))]
    assert 1.0 < v_star < 25.0
    assert min(powers) < powers[0]


def test_power_parasite_asymptotics():
    cfg = AirframeConfig()
    v = 2000.0
    ratio = propulsion_power(2 * v, cfg) / propulsion_power(v, cfg)
    assert ratio == pytest.approx(8.0, rel=0.01)


def test_power_uses_rotor_disc_area():
    cfg = AirframeConfig()
    v = 10.0
    assert propulsion_power(v, cfg) == pytest.approx(
        eq12(v, *hover_constants(cfg), cfg), rel=1e-12
    )


def test_power_continuous_near_zero():
    cfg = AirframeConfig()
    assert propulsion_power(1e-9, cfg) == pytest.approx(
        propulsion_power(0.0, cfg), rel=1e-6
    )


# ---------------------------------------------------------------------------
# LoS point count
# ---------------------------------------------------------------------------

def test_los_count_worked_example():
    # tan(70 deg) = 2.747: 30 / (0.5 * 2.747) = 21.8 -> 21
    assert los_point_count(30.0, 0.5, 100.0, 10.0, p0=0) == 21


def test_los_count_offset_is_additive():
    base = los_point_count(30.0, 0.5, 100.0, 10.0, p0=0)
    assert los_point_count(30.0, 0.5, 100.0, 10.0, p0=40) == base + 40


def test_los_count_monotone_in_tilt():
    counts = [los_point_count(30.0, 0.5, 100.0, tilt, p0=0) for tilt in range(0, 41, 5)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_los_count_validity_window():
    with pytest.raises(ValueError):
        los_point_count(30.0, 0.5, 60.0, 0.0, p0=0)  # angle 120 deg
    with pytest.raises(ValueError):
        los_point_count(30.0, 0.5, 90.0, 0.0, p0=0)  # angle exactly 90 deg
    with pytest.raises(ValueError):
        los_point_count(30.0, 0.5, 170.0, 10.0, p0=0)  # angle 0 deg


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def test_trajectory_span():
    points = build_trajectory(30.0, 0.5, 140, 10.0)
    assert len(points) == 140
    offsets = [p.horizontal_offset_m for p in points]
    assert max(offsets) - min(offsets) == pytest.approx(69.5)


def test_trajectory_overhead_point():
    points = build_trajectory(30.0, 0.5, 141, 10.0)
    p0 = (141 - 1) // 2
    assert points[p0].horizontal_offset_m == pytest.approx(0.0)
    assert points[p0].distance_m == pytest.approx(30.0)
    assert points[p0].elevation_deg == pytest.approx(90.0)


def test_trajectory_symmetric_distances():
    points = build_trajectory(20.0, 1.0, 21, 5.0)
    p0 = 10
    for k in range(1, 11):
        assert points[p0 - k].distance_m == pytest.approx(points[p0 + k].distance_m)


def test_trajectory_point_fields():
    points = build_trajectory(30.0, 0.5, 9, 12.0)
    for i, p in enumerate(points):
        assert p.index == i
        assert p.height_m == 30.0
        assert p.speed_mps == 12.0
        assert 0.0 < p.elevation_deg <= 90.0
        assert p.distance_m == pytest.approx(
            math.hypot(p.horizontal_offset_m, p.height_m)
        )


def test_trajectory_validation():
    with pytest.raises(ValueError):
        build_trajectory(30.0, 0.5, 0, 10.0)
    with pytest.raises(ValueError):
        build_trajectory(30.0, 0.0, 10, 10.0)
