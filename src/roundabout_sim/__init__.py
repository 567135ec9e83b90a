"""Game-theoretic multi-agent roundabout traffic simulator."""

__version__ = "0.1.0"

from .geometry import (
    Geometry,
    Maneuver,
    NavigationPath,
    PathKind,
    RoundaboutSpec,
    Status,
    build_path,
    build_roundabout,
)
from .dynamics import Configuration, step

__all__ = [
    "Geometry",
    "Maneuver",
    "NavigationPath",
    "PathKind",
    "RoundaboutSpec",
    "Status",
    "build_path",
    "build_roundabout",
    "Configuration",
    "step",
    "__version__",
]
