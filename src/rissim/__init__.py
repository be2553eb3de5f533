"""Deterministic bench-scale simulator and optimizer suite for
reconfigurable-surface-assisted indoor links."""

__version__ = "0.1.0"
