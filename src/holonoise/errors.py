"""Shared exception types, the positive-and-finite check and the size guard."""

import math
import os


class ConfigurationError(ValueError):
    """A run/synthesis/detector configuration violates its invariants."""


def check_positive_finite(name: str, value) -> None:
    """Raise ConfigurationError naming `name` unless 0 < value < inf (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


def check_fits_in_memory(name: str, value, samples: int,
                         bytes_per_sample: float, also=None) -> None:
    """Raise ConfigurationError naming `name` when `samples` samples at
    `bytes_per_sample` bytes each would not fit in physical memory.  Given
    `also`, a (name, value, bytes) of memory that another input decides,
    those bytes are charged too, and the message names both inputs.

    Call it before anything record-sized is allocated; `value` is the value
    of `name` that the message quotes.
    """
    # an int beyond the float range needs more memory than 1e300 samples
    samples = min(samples, 1e300)
    need, have = float(samples) * bytes_per_sample, _physical_memory()
    more = ""
    if also is not None:
        also_name, also_value, also_bytes = also
        need += min(also_bytes, 1e300)
        more = (f" and {also_name} {also_value} "
                f"{also_bytes / 2**30:.4g} GiB more")
    if have and need > have:
        raise ConfigurationError(
            f"{name} {value} means {samples:.4g} samples{more}, about "
            f"{need / 2**30:.4g} GiB, more than the {have / 2**30:.4g} GiB "
            "of physical memory"
        )
