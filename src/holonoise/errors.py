"""Shared exception types and the positive-and-finite check."""

import math


class ConfigurationError(ValueError):
    """A run/synthesis/detector configuration violates its invariants."""


def check_positive_finite(name: str, value) -> None:
    """Raise ConfigurationError naming `name` unless 0 < value < inf (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
