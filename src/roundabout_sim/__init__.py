"""Game-theoretic multi-agent roundabout traffic simulator."""

__version__ = "0.1.0"
