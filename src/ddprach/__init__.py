"""Delay-Doppler PRACH ranging simulator.

OTFS-precoded and plain CP-OFDM PRACH preambles over delay-Doppler
channels, with time-of-arrival extraction, UAV trajectory/antenna/power
models, and Monte Carlo experiment drivers.
"""

from .channel import (
    ChannelRealization,
    ChannelTap,
    FrameBuffers,
    NlosSpec,
    TapFileError,
    add_awgn,
    add_noise_power,
    apply_channel,
    draw_unit_noise,
    load_taps,
    received_power,
    save_taps,
    synthesize_scenario_channel,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from .dd_transform import (
    DelayDopplerGrid,
    TimeFrequencyGrid,
    Waveform,
    heisenberg_modulate,
    isfft,
    sfft,
    wigner_demodulate,
)
from .experiments import (
    run_cdf_sweep,
    run_simulate,
    run_speed_tradeoff,
    run_tilt_sweep,
    summarize,
)
from .metrics import (
    ResultRecord,
    error_cdf,
    read_results_csv,
    rmse,
    rmse_los_bound,
    write_results_csv,
)
from .prach_modem import (
    ToaEstimate,
    WaveformParams,
    build_preamble_grid,
    detection_threshold,
    range_from_toa,
    receive_and_estimate_toa,
    resolve_range,
    transmit,
)
from .uav_scenario import (
    AirframeConfig,
    AntennaConfig,
    TrajectoryPoint,
    antenna_gain,
    build_trajectory,
    los_point_count,
    pitch_angle,
    propulsion_power,
)
from .units import SPEED_OF_LIGHT
from .zc import CorrelationProfile, ZcSequence, circular_correlation, generate_zc

__version__ = "0.1.0"

__all__ = [
    "AirframeConfig",
    "AntennaConfig",
    "ChannelRealization",
    "ChannelTap",
    "ConfigError",
    "CorrelationProfile",
    "DelayDopplerGrid",
    "ExperimentConfig",
    "FrameBuffers",
    "NlosSpec",
    "ResultRecord",
    "SPEED_OF_LIGHT",
    "TapFileError",
    "TimeFrequencyGrid",
    "ToaEstimate",
    "TrajectoryPoint",
    "Waveform",
    "WaveformParams",
    "ZcSequence",
    "add_awgn",
    "add_noise_power",
    "antenna_gain",
    "apply_channel",
    "build_preamble_grid",
    "build_trajectory",
    "circular_correlation",
    "detection_threshold",
    "draw_unit_noise",
    "error_cdf",
    "generate_zc",
    "heisenberg_modulate",
    "isfft",
    "load_config",
    "load_taps",
    "los_point_count",
    "parse_config",
    "pitch_angle",
    "propulsion_power",
    "range_from_toa",
    "read_results_csv",
    "receive_and_estimate_toa",
    "resolve_range",
    "received_power",
    "rmse",
    "rmse_los_bound",
    "run_cdf_sweep",
    "run_simulate",
    "run_speed_tradeoff",
    "run_tilt_sweep",
    "save_taps",
    "serialize_config",
    "sfft",
    "summarize",
    "synthesize_scenario_channel",
    "transmit",
    "wigner_demodulate",
    "write_results_csv",
]
