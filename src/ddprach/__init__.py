"""Delay-Doppler PRACH ranging simulator.

OTFS-precoded and plain CP-OFDM PRACH preambles over delay-Doppler
channels, with time-of-arrival extraction, UAV trajectory/antenna/power
models, and Monte Carlo experiment drivers.

Each module's ``__all__`` lists its public names, and every one of them is
importable from the package; the command line, ``ddprach.cli``, is not.
"""

from .channel import *  # noqa: F403
from .config import *  # noqa: F403
from .dd_transform import *  # noqa: F403
from .experiments import *  # noqa: F403
from .metrics import *  # noqa: F403
from .prach_modem import *  # noqa: F403
from .uav_scenario import *  # noqa: F403
from .units import *  # noqa: F403
from .zc import *  # noqa: F403

__version__ = "0.1.0"

__all__ = (
    channel.__all__
    + config.__all__
    + dd_transform.__all__
    + experiments.__all__
    + metrics.__all__
    + prach_modem.__all__
    + uav_scenario.__all__
    + units.__all__
    + zc.__all__
)
