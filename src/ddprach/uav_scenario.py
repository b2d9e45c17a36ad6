"""UAV flyover geometry, antenna pattern, pitch/tilt and propulsion power.

Models a rotary-wing UAV flying a straight, constant-height line over a
ground target: per-point geometry (elevation angle to the target), the
parabolic dB antenna pattern of the UAV-mounted panel (floored 30 dB below
boresight), the speed-dependent airframe pitch (which tilts the antenna
boresight), the rotary-wing propulsion power curve, and the closed-form
count of trajectory points kept inside the antenna's first-null beamwidth.
"""

import math
from dataclasses import dataclass

__all__ = [
    "AntennaConfig",
    "AirframeConfig",
    "TrajectoryPoint",
    "build_trajectory",
    "antenna_gain",
    "pitch_angle",
    "propulsion_power",
    "los_point_count",
]


@dataclass
class AntennaConfig:
    """Directional antenna pattern parameters (parabolic in dB)."""

    g_rmax_db: float = 10.0       # boresight gain [dB]
    gamma_3db_deg: float = 65.0   # horizontal 3 dB beamwidth parameter [deg]
    theta_3db_deg: float = 65.0   # vertical 3 dB beamwidth parameter [deg]
    fnb_deg: float | None = None  # first-null beamwidth [deg]; None = 2.5 * theta_3db

    def __post_init__(self):
        if self.fnb_deg is None:
            self.fnb_deg = 2.5 * self.theta_3db_deg


@dataclass
class AirframeConfig:
    """Rotary-wing airframe constants (typical quadrotor values).

    The propulsion defaults are Table I of Zeng, Xu & Zhang, "Energy
    Minimization for Wireless Communication With Rotary-Wing UAV" (IEEE TWC
    2019), for a weight W = 20 N: ``induced_velocity_mps`` is
    ``sqrt(W / (2 rho A))`` (4.029), ``induced_power_w`` is
    ``1.1 W^1.5 / sqrt(2 rho A)`` (88.63) and ``blade_profile_power_w`` is
    ``delta / 8 rho s A U_tip^3`` with delta = 0.012 (79.86).
    :func:`pitch_angle` weighs ``mass_kg * gravity_mps2`` = 39.24 N, another
    aircraft: at that weight the same laws give 5.64 m/s and 243.6 W.
    """

    mass_kg: float = 4.0
    gravity_mps2: float = 9.81
    air_density_kgpm3: float = 1.225
    drag_coefficient: float = 0.5       # fuselage drag coefficient
    swept_area_m2: float = 0.2          # fuselage frontal area [m^2]
    blade_profile_power_w: float = 80.0   # hover blade profile power [W]
    induced_power_w: float = 88.6         # hover induced power [W]
    tip_speed_mps: float = 120.0          # rotor blade tip speed [m/s]
    induced_velocity_mps: float = 4.03    # mean hover induced velocity [m/s]
    fuselage_drag_ratio: float = 0.6
    rotor_solidity: float = 0.05
    rotor_disc_area_m2: float = 0.503


@dataclass
class TrajectoryPoint:
    """One sampled position on the flyover line."""

    index: int
    height_m: float
    horizontal_offset_m: float    # signed offset from the overhead point
    speed_mps: float
    elevation_deg: float          # elevation angle of the target seen from the UAV

    @property
    def distance_m(self) -> float:
        """True 3-D distance to the target."""
        return math.hypot(self.horizontal_offset_m, self.height_m)


def overhead_index(count: int) -> int:
    """Index of the overhead point (elevation 90 degrees) of a ``count``-point
    pass; an even count puts its extra point past it: the far end is the last."""
    return (count - 1) // 2


def trajectory_point(
    index: int, height_m: float, dp_m: float, count: int, speed_mps: float
) -> TrajectoryPoint:
    """Point ``index`` of the pass that :func:`build_trajectory` samples."""
    offset = (index - overhead_index(count)) * dp_m
    return TrajectoryPoint(
        index=index,
        height_m=height_m,
        horizontal_offset_m=offset,
        speed_mps=speed_mps,
        elevation_deg=math.degrees(math.atan2(height_m, abs(offset))),
    )


def build_trajectory(
    height_m: float, dp_m: float, count: int, speed_mps: float
) -> list[TrajectoryPoint]:
    """Sample a straight constant-height pass over the target at the origin.

    Points are spaced ``dp_m`` apart along the x axis and centred so that the
    overhead point has index :func:`overhead_index` ``(count)``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if dp_m <= 0 or height_m <= 0:
        raise ValueError("dp_m and height_m must be positive")
    return [trajectory_point(i, height_m, dp_m, count, speed_mps) for i in range(count)]


# front-to-back floor of the element pattern: A_max = SLA_V = 30 dB in
# 3GPP TR 38.901, Table 7.3-1
MAX_ATTENUATION_DB = 30.0
# an angle at twice its 3 dB width alone attenuates 48 dB, past the floor:
# capping the ratio there changes no gain and keeps its square finite
_MAX_WIDTH_RATIO = 2.0


def antenna_gain(
    gamma_deg: float, theta_deg: float, tilt_deg: float, cfg: AntennaConfig
) -> float:
    """Directional antenna gain in dB (parabolic pattern with a 30 dB floor).

    ``G = G_max - min(12 (gamma / gamma_3dB)^2 + 12 ((theta - tilt) / theta_3dB)^2, 30)``

    ``gamma`` is the horizontal offset angle and ``theta`` the vertical angle
    of the path; tilting the airframe by ``tilt_deg`` moves the vertical
    boresight.  The floor keeps a path far off boresight at 30 dB below the
    peak instead of letting the received power underflow to zero, and no
    tilt or beamwidth overflows it.
    """
    ratios = (gamma_deg / cfg.gamma_3db_deg, (theta_deg - tilt_deg) / cfg.theta_3db_deg)
    horizontal, vertical = (12.0 * min(abs(r), _MAX_WIDTH_RATIO) ** 2 for r in ratios)
    return cfg.g_rmax_db - min(horizontal + vertical, MAX_ATTENUATION_DB)


def pitch_angle(v_x: float, cfg: AirframeConfig) -> tuple[float, float]:
    """Forward-flight pitch angles ``(theta_xi, theta_v)`` in degrees.

    Balances fuselage drag against thrust: with
    ``x = m g / (rho C_D A v^2)`` the pitch-from-vertical angle is
    ``theta_xi = arccos(sqrt(x^2 + 1) - x)`` and the antenna tilt is
    ``theta_v = 90 deg - theta_xi``.  Hover (``v_x = 0``) gives no tilt and
    the tilt grows monotonically with speed.
    """
    if v_x < 0:
        raise ValueError("v_x must be >= 0")
    drag = cfg.air_density_kgpm3 * cfg.drag_coefficient * cfg.swept_area_m2 * v_x**2
    if drag == 0.0:  # hover, or a speed whose square underflows: x is infinite
        return 90.0, 0.0
    weight = cfg.mass_kg * cfg.gravity_mps2
    x = weight / drag
    # sqrt(x^2 + 1) - x, written to avoid cancellation for large x
    arg = 1.0 / (math.sqrt(x * x + 1.0) + x)
    theta_xi = math.degrees(math.acos(arg))
    return theta_xi, 90.0 - theta_xi


def propulsion_power(v: float, cfg: AirframeConfig) -> float:
    """Rotary-wing propulsion power in watts at horizontal speed ``v``.

    Blade-profile plus parasite power grows with speed while the induced
    power decays, giving the usual U-shaped curve with ``W0 + Wi`` at hover
    and a ``v^3`` parasite regime at high speed.
    """
    if v < 0:
        raise ValueError("v must be >= 0")
    w0 = cfg.blade_profile_power_w
    wi = cfg.induced_power_w
    profile = w0 * (
        1.0
        + 3.0 * v**2 / cfg.tip_speed_mps**2
        + cfg.fuselage_drag_ratio
        * cfg.air_density_kgpm3
        * cfg.rotor_solidity
        * cfg.rotor_disc_area_m2
        * v**3
        / (2.0 * w0)
    )
    # (sqrt(1 + a^2) - a)^(1/2) with a = v^2 / (2 v0^2), cancellation-free
    a = v**2 / (2.0 * cfg.induced_velocity_mps**2)
    induced = wi * math.sqrt(1.0 / (math.sqrt(1.0 + a * a) + a))
    return profile + induced


def los_point_count(
    height_m: float, dp_m: float, fnb_deg: float, tilt_deg: float, p0: int = 0
) -> int:
    """Index of the last trajectory point inside the first-null beamwidth.

    A point at elevation ``theta`` is in-beam while the aperture angle
    ``180 - theta - tilt`` stays within ``fnb_deg``; walking outward from the
    overhead point ``p0`` in steps of ``dp_m`` this holds up to point

    ``N = floor(h / (dp * tan(180 - fnb - tilt)) + p0)``

    Only defined while ``180 - fnb - tilt`` lies strictly inside (0, 90)
    degrees; outside that window the beam edge never crosses the trajectory.
    """
    if height_m <= 0 or dp_m <= 0:
        raise ValueError("height_m and dp_m must be positive")
    beta_deg = 180.0 - fnb_deg - tilt_deg
    if not 0.0 < beta_deg < 90.0:
        raise ValueError(
            f"beam-edge angle 180 - fnb - tilt = {beta_deg:.3f} deg is outside "
            "(0, 90); the first-null crossing is undefined"
        )
    return math.floor(height_m / (dp_m * math.tan(math.radians(beta_deg))) + p0)
