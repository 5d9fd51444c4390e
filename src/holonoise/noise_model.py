"""Closed-form displacement noise model for a Michelson arm-length difference.

The predicted two-sided power spectral density is

    S(f) = (4 c^2 t_P / pi) * (1 - cos(f / f_c)) / (2 pi f)^2,   f_c = c / (4 pi L),

which is exactly the Fourier transform of a triangular autocorrelation of
half-width 2L/c: the displacement behaves as a Planck-rate random walk
integrated over the light round-trip time of the apparatus.  The triangle
closed form is used in production; numeric transforms of either side serve
as test oracles only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import CONSTANTS
from .errors import ConfigurationError, check_positive_finite


@dataclass(frozen=True)
class HolographicSpectrum:
    """Predicted displacement spectrum for one interferometer of arm length L.

    The Planck time and the speed of light are fixed (`CONSTANTS`); L is the
    only parameter, and it is checked when the spectrum is built.
    """

    L: float

    def __post_init__(self):
        check_positive_finite("arm_length", self.L)
        # the plateau grows as L^2, the knee and the zeros as 1/L: all
        # floats, and the plateau a normal one, so that no spectrum the
        # synthesis scales underflows to a record of zeros
        if not (self.L < math.sqrt(sys.float_info.max)
                and CONSTANTS.c / (2.0 * self.L) < math.inf
                and self.plateau >= sys.float_info.min):
            raise ConfigurationError(
                f"arm_length {self.L} m puts the spectrum beyond the float range"
            )

    @property
    def f_c(self) -> float:
        """Knee frequency c / (4 pi L): the spectrum plateaus below it."""
        return CONSTANTS.c / (4.0 * np.pi * self.L)

    @property
    def coherence_time(self) -> float:
        """Light round-trip time 2 L / c; correlations vanish beyond it."""
        return 2.0 * self.L / CONSTANTS.c

    @property
    def plateau(self) -> float:
        """Two-sided PSD limit at f -> 0: 8 t_P L^2 / pi (m^2/Hz)."""
        return 8.0 * CONSTANTS.t_P * self.L**2 / np.pi

    @property
    def total_variance(self) -> float:
        """Lag-zero autocorrelation 4 c t_P L / pi (m^2)."""
        return 4.0 * CONSTANTS.c * CONSTANTS.t_P * self.L / np.pi

    def zeros(self, n: int) -> np.ndarray:
        """First n spectral nulls, at multiples of c / 2L (Hz)."""
        return np.arange(1, n + 1) * CONSTANTS.c / (2.0 * self.L)


def analytic_psd(spec: HolographicSpectrum, f):
    """Two-sided displacement PSD in m^2/Hz at frequency f >= 0 (Hz).

    Accepts scalars or arrays.  The f = 0 singularity of the prefactor is
    removable; the plateau limit is returned there.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("frequency must be nonnegative")
    with np.errstate(over="ignore"):
        x = f / spec.f_c
        square = x**2
    out = np.empty_like(x)
    small = x < 1e-3
    xs = x[small]
    # series for (1 - cos x)/(x^2/2) to avoid cancellation near f = 0
    out[small] = spec.plateau * (1.0 - xs**2 / 12.0 + xs**4 / 360.0)
    # where x^2 overflows, (1 - cos x)/x^2 is 0: take x = 0 there
    xl = np.where(square < np.inf, x, 0.0)[~small]
    out[~small] = spec.plateau * 2.0 * (1.0 - np.cos(xl)) / square[~small]
    return out if out.ndim else float(out)


def one_sided_psd(spec: HolographicSpectrum, f):
    """One-sided convention of `analytic_psd`: doubled for f > 0."""
    f = np.asarray(f, dtype=float)
    two_sided = np.asarray(analytic_psd(spec, f))
    out = np.where(f > 0, 2.0 * two_sided, two_sided)
    return out if out.ndim else float(out)


def analytic_autocorrelation(spec: HolographicSpectrum, lag):
    """Displacement autocorrelation at time lag (s): an exact triangle.

    Peak 4 c t_P L / pi at zero lag, falling linearly to zero at the light
    round-trip time 2 L / c and vanishing beyond.
    """
    lag = np.asarray(lag, dtype=float)
    out = spec.total_variance * np.clip(
        1.0 - np.abs(lag) / spec.coherence_time, 0.0, None
    )
    return out if out.ndim else float(out)


def time_averaged_ms_displacement(spec: HolographicSpectrum, tau: float) -> float:
    """Variance of the position averaged over a window tau >> 2L/c (m^2).

    Equals total_variance * (2L/c) / tau; valid only for tau > 2L/c.
    """
    if tau <= spec.coherence_time:
        raise ValueError(
            f"averaging time {tau} must exceed the coherence time "
            f"{spec.coherence_time}"
        )
    return spec.total_variance * spec.coherence_time / tau


def envelope_high_f(spec: HolographicSpectrum, f):
    """Oscillation envelope 8 c^2 t_P / (pi (2 pi f)^2) above the knee (m^2/Hz).

    Bounds analytic_psd from above for all f; defined only for f > f_c.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= spec.f_c):
        raise ValueError("envelope is defined only above the knee frequency")
    with np.errstate(over="ignore"):
        out = spec.plateau * 4.0 / (f / spec.f_c) ** 2
    return out if out.ndim else float(out)
