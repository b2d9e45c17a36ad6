"""Experiment configuration: YAML schema, validation and canonical form.

The configuration file is a YAML mapping with explicit units in the key
names.  Unknown keys anywhere in the tree are rejected with the offending
path so typos cannot silently fall back to defaults.
"""

import math
from dataclasses import dataclass, field

import yaml

from .channel import NlosSpec
from .prach_modem import MODULATIONS, WaveformParams
from .uav_scenario import AirframeConfig, AntennaConfig

__all__ = [
    "ConfigError",
    "TrajectorySpec",
    "ScenarioConfig",
    "ChannelConfig",
    "NoiseConfig",
    "DetectionConfig",
    "SweepConfig",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "serialize_config",
]

SWEEP_AXES = ("delta_f_hz", "speed_mps", "tilt_deg")


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
    doppler_scale: float = 1.0
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


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"unknown config key: {where}")


def _number(node, path: str, *, positive=False, allow_none=False):
    if node is None:
        if allow_none:
            return None
        raise ConfigError(f"{path}: value required")
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {node!r}")
    value = float(node)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _integer(node, path: str, *, minimum=None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{path}: expected an integer, got {node!r}")
    if minimum is not None and node < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {node}")
    return node


def _boolean(node, path: str) -> bool:
    if not isinstance(node, bool):
        raise ConfigError(f"{path}: expected a boolean, got {node!r}")
    return node


def _pair(node, path: str) -> tuple[float, float]:
    if not isinstance(node, list) or len(node) != 2:
        raise ConfigError(f"{path}: expected a [low, high] pair")
    lo = _number(node[0], f"{path}[0]")
    hi = _number(node[1], f"{path}[1]")
    if hi < lo:
        raise ConfigError(f"{path}: low bound exceeds high bound")
    return (lo, hi)


def _parse_waveform(node, path: str) -> WaveformParams:
    node = _require_mapping(node, path)
    keys = (
        "delta_f_hz", "n_dft", "m", "n", "n_zc", "root", "cp_len",
        "modulation", "p_t_watts",
    )
    _check_keys(node, keys, path)
    kwargs = {}
    if "delta_f_hz" in node:
        kwargs["delta_f_hz"] = _number(node["delta_f_hz"], f"{path}.delta_f_hz", positive=True)
    for name in ("n_dft", "m", "n", "n_zc", "root"):
        if name in node:
            kwargs[name] = _integer(node[name], f"{path}.{name}", minimum=1)
    if "cp_len" in node and node["cp_len"] is not None:
        kwargs["cp_len"] = _integer(node["cp_len"], f"{path}.cp_len", minimum=0)
    if "modulation" in node:
        if node["modulation"] not in MODULATIONS:
            raise ConfigError(
                f"{path}.modulation: expected one of {list(MODULATIONS)}"
            )
        kwargs["modulation"] = node["modulation"]
    if "p_t_watts" in node:
        kwargs["p_t_watts"] = _number(node["p_t_watts"], f"{path}.p_t_watts", positive=True)
    try:
        return WaveformParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_scenario(node, path: str) -> ScenarioConfig:
    node = _require_mapping(node, path)
    _check_keys(node, ("carrier_hz", "trajectory", "antenna", "tilt_deg", "airframe"), path)
    cfg = ScenarioConfig()
    if "carrier_hz" in node:
        cfg.carrier_hz = _number(node["carrier_hz"], f"{path}.carrier_hz", positive=True)
    if "trajectory" in node:
        sub = _require_mapping(node["trajectory"], f"{path}.trajectory")
        _check_keys(sub, ("height_m", "dp_m", "count", "speed_mps"), f"{path}.trajectory")
        if "height_m" in sub:
            cfg.trajectory.height_m = _number(sub["height_m"], f"{path}.trajectory.height_m", positive=True)
        if "dp_m" in sub:
            cfg.trajectory.dp_m = _number(sub["dp_m"], f"{path}.trajectory.dp_m", positive=True)
        if "count" in sub:
            cfg.trajectory.count = _integer(sub["count"], f"{path}.trajectory.count", minimum=1)
        if "speed_mps" in sub:
            cfg.trajectory.speed_mps = _number(sub["speed_mps"], f"{path}.trajectory.speed_mps")
            if cfg.trajectory.speed_mps < 0:
                raise ConfigError(f"{path}.trajectory.speed_mps: must be >= 0")
    if "antenna" in node:
        sub = _require_mapping(node["antenna"], f"{path}.antenna")
        _check_keys(
            sub, ("g_rmax_db", "gamma_3db_deg", "theta_3db_deg", "fnb_deg"),
            f"{path}.antenna",
        )
        if "g_rmax_db" in sub:
            cfg.antenna.g_rmax_db = _number(sub["g_rmax_db"], f"{path}.antenna.g_rmax_db")
        if "gamma_3db_deg" in sub:
            cfg.antenna.gamma_3db_deg = _number(sub["gamma_3db_deg"], f"{path}.antenna.gamma_3db_deg", positive=True)
        if "theta_3db_deg" in sub:
            cfg.antenna.theta_3db_deg = _number(sub["theta_3db_deg"], f"{path}.antenna.theta_3db_deg", positive=True)
            if "fnb_deg" not in sub:
                cfg.antenna.fnb_deg = 2.5 * cfg.antenna.theta_3db_deg
        if "fnb_deg" in sub and sub["fnb_deg"] is not None:
            cfg.antenna.fnb_deg = _number(sub["fnb_deg"], f"{path}.antenna.fnb_deg", positive=True)
    if "tilt_deg" in node:
        cfg.tilt_deg = _number(node["tilt_deg"], f"{path}.tilt_deg", allow_none=True)
    if "airframe" in node:
        sub = _require_mapping(node["airframe"], f"{path}.airframe")
        names = {
            "mass_kg": "mass_kg",
            "gravity_mps2": "gravity_mps2",
            "air_density_kgpm3": "air_density_kgpm3",
            "drag_coefficient": "drag_coefficient",
            "swept_area_m2": "swept_area_m2",
            "blade_profile_power_w": "blade_profile_power_w",
            "induced_power_w": "induced_power_w",
            "tip_speed_mps": "tip_speed_mps",
            "induced_velocity_mps": "induced_velocity_mps",
            "fuselage_drag_ratio": "fuselage_drag_ratio",
            "rotor_solidity": "rotor_solidity",
            "rotor_disc_area_m2": "rotor_disc_area_m2",
        }
        _check_keys(sub, names, f"{path}.airframe")
        for key, attr in names.items():
            if key in sub:
                setattr(cfg.airframe, attr, _number(sub[key], f"{path}.airframe.{key}", positive=True))
    return cfg


def _parse_channel(node, path: str) -> ChannelConfig:
    node = _require_mapping(node, path)
    _check_keys(node, ("source", "taps_path", "nlos", "doppler_scale", "g_t_db"), path)
    cfg = ChannelConfig()
    if "source" in node:
        if node["source"] not in ("synthetic", "taps_file"):
            raise ConfigError(f"{path}.source: expected 'synthetic' or 'taps_file'")
        cfg.source = node["source"]
    if "taps_path" in node and node["taps_path"] is not None:
        if not isinstance(node["taps_path"], str):
            raise ConfigError(f"{path}.taps_path: expected a string path")
        cfg.taps_path = node["taps_path"]
    if cfg.source == "taps_file" and cfg.taps_path is None:
        raise ConfigError(f"{path}.taps_path: required when source is 'taps_file'")
    if "nlos" in node:
        if node["nlos"] is None:
            cfg.nlos = None
        else:
            sub = _require_mapping(node["nlos"], f"{path}.nlos")
            _check_keys(
                sub, ("count", "excess_delay_range_s", "relative_power_db_range"),
                f"{path}.nlos",
            )
            spec = NlosSpec()
            if "count" in sub:
                spec.count = _integer(sub["count"], f"{path}.nlos.count", minimum=0)
            if "excess_delay_range_s" in sub:
                spec.excess_delay_range_s = _pair(sub["excess_delay_range_s"], f"{path}.nlos.excess_delay_range_s")
                if spec.excess_delay_range_s[0] < 0:
                    raise ConfigError(f"{path}.nlos.excess_delay_range_s: delays must be >= 0")
            if "relative_power_db_range" in sub:
                spec.relative_power_db_range = _pair(sub["relative_power_db_range"], f"{path}.nlos.relative_power_db_range")
            cfg.nlos = spec
    if "doppler_scale" in node:
        cfg.doppler_scale = _number(node["doppler_scale"], f"{path}.doppler_scale", positive=True)
    if "g_t_db" in node:
        cfg.g_t_db = _number(node["g_t_db"], f"{path}.g_t_db")
    return cfg


def _parse_noise(node, path: str) -> NoiseConfig:
    node = _require_mapping(node, path)
    _check_keys(node, ("snr_db", "noise_power_watts"), path)
    cfg = NoiseConfig()
    if "snr_db" in node:
        cfg.snr_db = _number(node["snr_db"], f"{path}.snr_db", allow_none=True)
    if "noise_power_watts" in node:
        cfg.noise_power_watts = _number(
            node["noise_power_watts"], f"{path}.noise_power_watts", allow_none=True
        )
        if cfg.noise_power_watts is not None and cfg.noise_power_watts < 0:
            raise ConfigError(f"{path}.noise_power_watts: must be >= 0")
    if cfg.snr_db is not None and cfg.noise_power_watts is not None:
        raise ConfigError(f"{path}: snr_db and noise_power_watts are mutually exclusive")
    return cfg


def _parse_detection(node, path: str) -> DetectionConfig:
    node = _require_mapping(node, path)
    _check_keys(node, ("target_pfa", "interpolate_peak"), path)
    cfg = DetectionConfig()
    if "target_pfa" in node:
        cfg.target_pfa = _number(node["target_pfa"], f"{path}.target_pfa", positive=True)
        if not cfg.target_pfa < 1.0:
            raise ConfigError(f"{path}.target_pfa: must be in (0, 1)")
    if "interpolate_peak" in node:
        cfg.interpolate_peak = _boolean(node["interpolate_peak"], f"{path}.interpolate_peak")
    return cfg


def _parse_sweep(node, path: str) -> SweepConfig:
    node = _require_mapping(node, path)
    _check_keys(node, ("axis", "values"), path)
    cfg = SweepConfig()
    if "axis" in node:
        if node["axis"] not in SWEEP_AXES:
            raise ConfigError(f"{path}.axis: expected one of {list(SWEEP_AXES)}")
        cfg.axis = node["axis"]
    if "values" in node:
        if not isinstance(node["values"], list) or not node["values"]:
            raise ConfigError(f"{path}.values: expected a non-empty list")
        cfg.values = [
            _number(v, f"{path}.values[{i}]") for i, v in enumerate(node["values"])
        ]
    # checked after both keys are read: the valid range depends on the axis
    for i, value in enumerate(cfg.values):
        if cfg.axis == "speed_mps" and value < 0:
            raise ConfigError(f"{path}.values[{i}]: speed must be >= 0, got {value}")
        if cfg.axis == "delta_f_hz" and value <= 0:
            raise ConfigError(f"{path}.values[{i}]: spacing must be positive, got {value}")
    return cfg


def parse_config(tree) -> ExperimentConfig:
    """Validate a parsed YAML tree and build the experiment configuration."""
    tree = _require_mapping(tree, "<root>")
    _check_keys(
        tree,
        (
            "waveform", "scenario", "channel", "noise", "detection",
            "schemes", "trials", "seed", "sweep",
        ),
        "",
    )
    cfg = ExperimentConfig()
    if "waveform" in tree:
        cfg.waveform = _parse_waveform(tree["waveform"], "waveform")
    if "scenario" in tree:
        cfg.scenario = _parse_scenario(tree["scenario"], "scenario")
    if "channel" in tree:
        cfg.channel = _parse_channel(tree["channel"], "channel")
    if "noise" in tree:
        cfg.noise = _parse_noise(tree["noise"], "noise")
    if "detection" in tree:
        cfg.detection = _parse_detection(tree["detection"], "detection")
    if "schemes" in tree:
        schemes = tree["schemes"]
        if not isinstance(schemes, list) or not schemes:
            raise ConfigError("schemes: expected a non-empty list")
        for scheme in schemes:
            if scheme not in MODULATIONS:
                raise ConfigError(f"schemes: expected entries from {list(MODULATIONS)}")
        if len(set(schemes)) != len(schemes):
            raise ConfigError("schemes: duplicate entries")
        cfg.schemes = list(schemes)
    if "trials" in tree:
        cfg.trials = _integer(tree["trials"], "trials", minimum=1)
    if "seed" in tree:
        cfg.seed = _integer(tree["seed"], "seed", minimum=0)
    if "sweep" in tree:
        cfg.sweep = _parse_sweep(tree["sweep"], "sweep")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML configuration file."""
    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if tree is None:
        tree = {}
    return parse_config(tree)


def _canonical_dict(cfg: ExperimentConfig) -> dict:
    nlos = cfg.channel.nlos
    return {
        "waveform": {
            "delta_f_hz": cfg.waveform.delta_f_hz,
            "n_dft": cfg.waveform.n_dft,
            "m": cfg.waveform.m,
            "n": cfg.waveform.n,
            "n_zc": cfg.waveform.n_zc,
            "root": cfg.waveform.root,
            "cp_len": cfg.waveform.cp_len,
            "modulation": cfg.waveform.modulation,
            "p_t_watts": cfg.waveform.p_t_watts,
        },
        "scenario": {
            "carrier_hz": cfg.scenario.carrier_hz,
            "trajectory": {
                "height_m": cfg.scenario.trajectory.height_m,
                "dp_m": cfg.scenario.trajectory.dp_m,
                "count": cfg.scenario.trajectory.count,
                "speed_mps": cfg.scenario.trajectory.speed_mps,
            },
            "antenna": {
                "g_rmax_db": cfg.scenario.antenna.g_rmax_db,
                "gamma_3db_deg": cfg.scenario.antenna.gamma_3db_deg,
                "theta_3db_deg": cfg.scenario.antenna.theta_3db_deg,
                "fnb_deg": cfg.scenario.antenna.fnb_deg,
            },
            "tilt_deg": cfg.scenario.tilt_deg,
            "airframe": {
                "mass_kg": cfg.scenario.airframe.mass_kg,
                "gravity_mps2": cfg.scenario.airframe.gravity_mps2,
                "air_density_kgpm3": cfg.scenario.airframe.air_density_kgpm3,
                "drag_coefficient": cfg.scenario.airframe.drag_coefficient,
                "swept_area_m2": cfg.scenario.airframe.swept_area_m2,
                "blade_profile_power_w": cfg.scenario.airframe.blade_profile_power_w,
                "induced_power_w": cfg.scenario.airframe.induced_power_w,
                "tip_speed_mps": cfg.scenario.airframe.tip_speed_mps,
                "induced_velocity_mps": cfg.scenario.airframe.induced_velocity_mps,
                "fuselage_drag_ratio": cfg.scenario.airframe.fuselage_drag_ratio,
                "rotor_solidity": cfg.scenario.airframe.rotor_solidity,
                "rotor_disc_area_m2": cfg.scenario.airframe.rotor_disc_area_m2,
            },
        },
        "channel": {
            "source": cfg.channel.source,
            "taps_path": cfg.channel.taps_path,
            "nlos": None
            if nlos is None
            else {
                "count": nlos.count,
                "excess_delay_range_s": list(nlos.excess_delay_range_s),
                "relative_power_db_range": list(nlos.relative_power_db_range),
            },
            "doppler_scale": cfg.channel.doppler_scale,
            "g_t_db": cfg.channel.g_t_db,
        },
        "noise": {
            "snr_db": cfg.noise.snr_db,
            "noise_power_watts": cfg.noise.noise_power_watts,
        },
        "detection": {
            "target_pfa": cfg.detection.target_pfa,
            "interpolate_peak": cfg.detection.interpolate_peak,
        },
        "schemes": list(cfg.schemes),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "sweep": {
            "axis": cfg.sweep.axis,
            "values": list(cfg.sweep.values),
        },
    }


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render the canonical YAML form of a configuration."""
    return yaml.safe_dump(_canonical_dict(cfg), sort_keys=False)
