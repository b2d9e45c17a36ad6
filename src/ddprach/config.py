"""Experiment configuration: YAML schema, validation and canonical form.

The configuration file is a YAML mapping with explicit units in the key
names.  The dataclasses below, and the library dataclasses they nest, are the
schema: one walk over their fields parses and checks a tree, and ``asdict``
gives the canonical form.  Unknown keys anywhere in the tree are rejected with
their dotted path so typos cannot silently fall back to defaults.
:func:`flights` lists the configurations a run flies, the config and each
sweep value's, each a :class:`Flight` with its tilt, its propulsion power
and each scheme's framing; the parse checks the rules that depend on them
once over that list, and the runners fly it.
"""

import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import yaml

from .channel import MAX_CARRIER_HZ, MAX_DB, ChannelRealization, ChannelTap, NlosSpec
from .channel import check_link_budget, check_tap_delay, received_power
from .prach_modem import MODULATIONS, WaveformParams
from .uav_scenario import AirframeConfig, AntennaConfig, pitch_angle, propulsion_power
from .uav_scenario import MAX_ATTENUATION_DB, trajectory_point
from .units import SPEED_OF_LIGHT

__all__ = [
    "ConfigError", "TrajectorySpec", "ScenarioConfig", "ChannelConfig",
    "NoiseConfig", "DetectionConfig", "SweepConfig", "ExperimentConfig",
    "Flight", "flights", "load_config", "parse_config", "serialize_config",
]

# sweep axis -> dotted path of the field it sweeps (whose range the values obey)
SWEEP_AXES = {
    "delta_f_hz": "waveform.delta_f_hz",
    "speed_mps": "scenario.trajectory.speed_mps",
    "tilt_deg": "scenario.tilt_deg",
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass
class TrajectorySpec:
    height_m: float = 30.0
    dp_m: float = 0.5
    count: int = 140
    speed_mps: float = 10.0


@dataclass
class ScenarioConfig:
    carrier_hz: float = 1775e6
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    tilt_deg: float | None = None  # None: derive from speed via pitch_angle
    airframe: AirframeConfig = field(default_factory=AirframeConfig)


@dataclass
class ChannelConfig:
    source: str = "synthetic"      # "synthetic" | "taps_file"
    taps_path: str | None = None
    nlos: NlosSpec | None = field(default_factory=NlosSpec)
    g_t_db: float = 10.0           # ground transmitter boresight gain


@dataclass
class NoiseConfig:
    snr_db: float | None = 5.0
    noise_power_watts: float | None = None


@dataclass
class DetectionConfig:
    target_pfa: float = 1e-3
    interpolate_peak: bool = False


@dataclass
class SweepConfig:
    axis: str = "delta_f_hz"
    values: list[float] = field(default_factory=lambda: [15e3, 30e3, 60e3])


@dataclass
class ExperimentConfig:
    waveform: WaveformParams = field(default_factory=WaveformParams)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    schemes: list[str] = field(default_factory=lambda: ["otfs", "ofdm"])
    trials: int = 1
    seed: int = 0
    sweep: SweepConfig = field(default_factory=SweepConfig)


def _one_of(choices):
    return (lambda v: v in choices, f"one of {list(choices)}")


def _between(low, high):
    return (lambda v: low <= v <= high, f"in [{low}, {high}]")


_ANY = (lambda v: True, "anything")
_POSITIVE = (lambda v: v > 0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_DB = _between(-MAX_DB, MAX_DB)
# the rotor's tip speed, which propulsion_power cubes and squares into a
# divisor: up to light's, so U^3 and (v / U)^2 stay finite for every flight
# speed v up to light's
_ROTOR_SPEED = _between(1.0e-100, SPEED_OF_LIGHT)

# Allowed values by dotted path (list items and pair bounds share their
# field's entry).  Numbers not listed must be positive; strings and booleans
# not listed are free.  The sizes and counts that set a run's work and memory
# have upper bounds, so that a run that cannot finish fails at parse time,
# and physical quantities their physical ranges, past which a run overflows.
_RULES = {
    "waveform.n_dft": _between(1, 65_536),
    "waveform.n": _between(1, 1_024),
    "waveform.cp_len": _NON_NEGATIVE,
    # every dB field at its bound multiplies the received power by 1e60 and an
    # SNR of -300 dB adds 1e30 times that as noise: such runs stay finite to 1e190 W
    "waveform.p_t_watts": (lambda v: 0 < v <= 1e100, "in (0, 1e100]"),
    "scenario.trajectory.count": _between(1, 100_000),
    "scenario.carrier_hz": _between(3.0, MAX_CARRIER_HZ),  # the ITU radio spectrum
    # the Doppler v f_c / c is a law for v below light's speed
    "scenario.trajectory.speed_mps": _between(0.0, SPEED_OF_LIGHT),
    "scenario.antenna.g_rmax_db": _DB,
    # an angle, so the first-null beamwidth derived from it, 2.5 times it, is
    # a positive finite angle too
    "scenario.antenna.theta_3db_deg": (lambda v: 0 < v <= 360, "in (0, 360]"),
    "scenario.airframe.tip_speed_mps": _ROTOR_SPEED,
    # the antenna pattern takes theta - tilt unwrapped, so a tilt stays within
    # the quarter turns either side of the horizon
    "scenario.tilt_deg": _between(-90.0, 90.0),
    "channel.source": _one_of(("synthetic", "taps_file")),
    "channel.nlos.count": _between(0, 64),
    "channel.nlos.excess_delay_range_s": _NON_NEGATIVE,
    "channel.nlos.relative_power_db_range": _DB,
    "channel.g_t_db": _DB,
    "noise.snr_db": _DB,
    # past the noise that an SNR of -300 dB sets on the largest received power,
    # 1e100 W raised 1e60 by the gains, 1e190 W: the receiver's profile sums up
    # to m n n_zc <= 2^38 such powers (frame_len bounds m n), finite to 6e296 W
    "noise.noise_power_watts": (lambda v: 0 <= v <= 1e250, "in [0, 1e250]"),
    "detection.target_pfa": (lambda v: 0 < v < 1, "in (0, 1)"),
    "schemes": _one_of(MODULATIONS),
    "trials": _between(1, 10_000),
    "seed": _NON_NEGATIVE,
    "sweep.axis": _one_of(SWEEP_AXES),
    "sweep.values": _ANY,  # checked against the swept field in parse_config
}

# a field of a nested library dataclass that each run sets itself, so no
# config key: a run takes its modulation from ``schemes``
_RUN_FIELD = ("waveform", "modulation")

# samples per frame, n * (n_dft + cp_len): 64 MiB per complex row
_MAX_FRAME_LEN = 1 << 22

# accepted YAML types and their name in error messages, per field type
_SCALARS = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _rule(path: str, kind):
    default = _POSITIVE if kind in (int, float) else _ANY
    return _RULES.get(path.split("[")[0], default)


def _scalar(kind, node, path: str):
    types, noun = _SCALARS[kind]
    if not isinstance(node, types) or (isinstance(node, bool) and kind is not bool):
        hint = _float_text_hint(node) if kind is float else ""
        raise ConfigError(f"{path}: expected {noun}, got {node!r}{hint}")
    value = node
    if kind is float:
        try:
            value = float(node)
        except OverflowError:
            raise ConfigError(
                f"{path}: expected a finite number, got an integer too large for a float"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value}")
    check, allowed = _rule(path, kind)
    if not check(value):
        raise ConfigError(f"{path}: must be {allowed}, got {value!r}")
    return value


def _float_text_hint(node) -> str:
    """A hint for text that reads as a float: YAML 1.1, which PyYAML follows,
    takes ``15e3``, ``1e-3`` and ``1.0e6`` as text, since its floats need a
    dot and, with an exponent, its sign (``15.0e+3``)."""
    try:
        if not isinstance(node, str) or not math.isfinite(float(node)):
            return ""
    except ValueError:
        return ""
    mantissa, e, exponent = node.strip().lower().partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    if e and exponent[:1] not in "+-":
        exponent = "+" + exponent
    return f", which YAML read as text; write it {mantissa}{e}{exponent}"


def _section(cls, node, path: str):
    """Build dataclass ``cls`` from a mapping; absent keys keep their default."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path or '<root>'}: expected a mapping, got {type(node).__name__}")
    types = {f.name: f.type for f in fields(cls) if f.init and (path, f.name) != _RUN_FIELD}
    unknown = sorted(set(node) - set(types), key=str)
    if unknown:
        raise ConfigError(f"unknown config key: {path + '.' if path else ''}{unknown[0]}")
    kwargs = {
        key: _parse(types[key], value, f"{path}.{key}" if path else key)
        for key, value in node.items()
    }
    try:
        return cls(**kwargs)  # __post_init__ derives cp_len, fnb_deg, ...
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse(annotation, node, path: str):
    """Validate ``node`` against a field type and return the parsed value."""
    if is_dataclass(annotation):
        return _section(annotation, node, path)
    args = typing.get_args(annotation)
    if type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if node is None else _parse(inner, node, path)
    if node is None:
        raise ConfigError(f"{path}: value required")
    origin = typing.get_origin(annotation)
    if origin is list:
        if not isinstance(node, list) or not node:
            raise ConfigError(f"{path}: expected a non-empty list")
        return [_parse(args[0], item, f"{path}[{i}]") for i, item in enumerate(node)]
    if origin is tuple:
        if not isinstance(node, list) or len(node) != len(args):
            raise ConfigError(f"{path}: expected a [low, high] pair")
        return tuple(
            _parse(arg, item, f"{path}[{i}]") for i, (arg, item) in enumerate(zip(args, node))
        )
    return _scalar(annotation, node, path)


def parse_config(tree) -> ExperimentConfig:
    """Validate a parsed YAML tree and build the experiment configuration."""
    cfg = _section(ExperimentConfig, tree, "")
    channel, noise, sweep = cfg.channel, cfg.noise, cfg.sweep
    if channel.source == "taps_file" and channel.taps_path is None:
        raise ConfigError("channel.taps_path: required when source is 'taps_file'")
    if noise.snr_db is not None and noise.noise_power_watts is not None:
        raise ConfigError("noise: snr_db and noise_power_watts are mutually exclusive")
    if cfg.waveform.frame_len > _MAX_FRAME_LEN:
        raise ConfigError(
            f"waveform: frame_len {cfg.waveform.frame_len} must be ≤ {_MAX_FRAME_LEN}"
        )
    if len(set(cfg.schemes)) != len(cfg.schemes):
        raise ConfigError("schemes: duplicate entries")
    check, allowed = _rule(SWEEP_AXES[sweep.axis], float)
    for i, value in enumerate(sweep.values):
        if not check(value):
            raise ConfigError(f"sweep.values[{i}]: {sweep.axis} must be {allowed}, got {value}")
        if value in sweep.values[:i]:
            raise ConfigError(f"sweep.values[{i}]: duplicate value")
    for name in ("excess_delay_range_s", "relative_power_db_range"):
        low, high = getattr(channel.nlos, name) if channel.nlos else (0, 0)
        if low > high:
            raise ConfigError(f"channel.nlos.{name}: low bound exceeds high bound")
    for flight in flights(cfg):
        if channel.source != "synthetic":
            continue
        at, waveform = f"{flight.path}: " if flight.path else "", flight.cfg.waveform
        scenario, nlos = flight.cfg.scenario, flight.cfg.channel.nlos
        spec = scenario.trajectory
        # the link budget (lambda / 4 pi d)^2 is a far-field law: it passes
        # unity at d < lambda / 4 pi and overflows as d, at least the height,
        # goes to zero
        wavelength = SPEED_OF_LIGHT / scenario.carrier_hz
        if spec.height_m < wavelength:
            raise ConfigError(
                f"{at}scenario.trajectory.height_m: must be at least one wavelength, "
                f"c / carrier_hz = {wavelength} m, got {spec.height_m}"
            )
        # the pass's bounding taps: the line of sight from its far end, its
        # last point as uav_scenario places it, on the antenna's floor, which
        # no synthetic draw's strongest tap falls below, and that tap delayed
        # by the largest NLoS excess, which no drawn tap passes
        far_m = trajectory_point(spec.count - 1, **asdict(spec)).distance_m
        floor_db = scenario.antenna.g_rmax_db - MAX_ATTENUATION_DB
        power = received_power(1.0, wavelength, far_m, flight.cfg.channel.g_t_db, floor_db)
        los = ChannelTap(math.sqrt(power), far_m / SPEED_OF_LIGHT, 0.0)
        excess = nlos.excess_delay_range_s[1] if nlos and nlos.count else 0.0
        latest = replace(los, delay_s=los.delay_s + excess)
        bound = ChannelRealization(spec.count - 1, far_m, [los, latest])
        try:
            check_link_budget(bound, waveform.p_t_watts)
        except ValueError as exc:
            raise ConfigError(
                f"{at}the link budget: at the trajectory's far end and the antenna's floor, "
                f"{exc}; raise waveform.p_t_watts, channel.g_t_db or scenario.antenna.g_rmax_db"
            ) from exc
        try:
            check_tap_delay(latest, waveform.sample_rate, waveform.frame_len)
        except ValueError as exc:
            raise ConfigError(
                f"{flight.path or 'waveform.delta_f_hz'}: the frame lasts "
                f"{waveform.frame_len / waveform.sample_rate} s at {waveform.delta_f_hz} Hz, "
                f"but a tap from the trajectory's far end can arrive at {latest.delay_s} s"
            ) from exc
    return cfg


def _with_field(obj, path: str, value):
    """Copy of dataclass ``obj`` with the field at dotted ``path`` set to ``value``."""
    name, _, rest = path.partition(".")
    if rest:
        value = _with_field(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


class Flight(typing.NamedTuple):
    """One configuration a run flies, as :func:`flights` derives it."""

    path: str | None            # the sweep.values item it sets; None: the config
    cfg: ExperimentConfig       # the config, with that value set
    tilt_deg: float             # the antenna tilt
    power_w: float              # the propulsion power at its speed
    params: dict                # scheme -> the WaveformParams that frame it


def flights(cfg: ExperimentConfig) -> list[Flight]:
    """The configurations a run of ``cfg`` flies: ``cfg`` itself (path
    ``None``), then one per ``sweep.values`` item with that value set in the
    swept field (path ``sweep.values[i]``).

    ``tilt_deg`` is the forced ``scenario.tilt_deg``, or else
    :func:`pitch_angle`'s tilt at the flight's speed, and ``power_w`` its
    :func:`propulsion_power`.  Raises :class:`ConfigError` unless the pitch
    and the power are finite, a forced tilt or not: airframe fields that are
    physical one by one can overflow these laws together.
    """
    axis = SWEEP_AXES[cfg.sweep.axis]
    entries = [(None, cfg)] + [
        (f"sweep.values[{i}]", _with_field(cfg, axis, value))
        for i, value in enumerate(cfg.sweep.values)
    ]
    flown = []
    for path, swept in entries:
        speed, airframe = swept.scenario.trajectory.speed_mps, swept.scenario.airframe
        tilt = pitch_angle(speed, airframe)[1]
        power = propulsion_power(speed, airframe)
        if not (math.isfinite(tilt) and math.isfinite(power)):
            raise ConfigError(
                f"scenario.airframe: at {speed} m/s the tilt is {tilt} deg and the "
                f"propulsion power {power} W; both must be finite"
            )
        if swept.scenario.tilt_deg is not None:
            tilt = swept.scenario.tilt_deg
        params = {s: replace(swept.waveform, modulation=s) for s in swept.schemes}
        flown.append(Flight(path, swept, tilt, power, params))
    return flown


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML configuration file."""
    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer literal past Python's digit limit
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config({} if tree is None else tree)


def _plain(node):
    """Turn the tuples of an ``asdict`` tree into lists for ``safe_dump``."""
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_plain(item) for item in node]
    return node


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render the canonical YAML form of a configuration: every config key."""
    tree = asdict(cfg)
    section, name = _RUN_FIELD
    del tree[section][name]
    return yaml.safe_dump(_plain(tree), sort_keys=False)
