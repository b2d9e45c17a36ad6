"""Physical constants and unit conversion helpers."""

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** (value_dbm / 10.0) * 1e-3
