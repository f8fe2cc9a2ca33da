"""Exception types raised by the itsbeam library."""

__all__ = [
    "BeamformingError", "DimensionMismatchError", "GeometryError", "ChannelError", "SolverError",
    "ConfigError",
]


class BeamformingError(Exception):
    """Base class for all itsbeam errors."""


class DimensionMismatchError(BeamformingError):
    """An array argument has a shape inconsistent with the system instance."""


class GeometryError(BeamformingError):
    """Invalid array geometry (bad partition, coincident positions, ...)."""


class ChannelError(BeamformingError):
    """Invalid channel parameters or a drop that violates model assumptions."""


class SolverError(BeamformingError):
    """A solver could not produce a valid solution."""


class ConfigError(BeamformingError):
    """Malformed configuration file or unknown configuration key."""
