"""Sampled realizations of the predicted displacement noise.

Two independent constructions are provided and must agree statistically:

* spectral: Gaussian amplitudes drawn per frequency bin so that the expected
  two-sided periodogram equals `analytic_psd` exactly on the record's grid;
* boxcar: a circular moving sum of white Gaussian noise over one light
  round-trip time, which reproduces the triangular autocorrelation exactly
  at the sample lags.

Both are circular (periodic) constructions; records must be long compared to
the coherence time, which the config invariants enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CONSTANTS
from .errors import ConfigurationError, check_positive_finite
from .noise_model import HolographicSpectrum, analytic_psd

METHODS = ("spectral", "boxcar")

#: Minimum record length in units of the coherence time 2L/c.
MIN_COHERENCE_TIMES = 10.0


@dataclass
class TimeSeries:
    """Uniformly sampled displacement record in meters."""

    sample_rate: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        check_positive_finite("sample_rate", self.sample_rate)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def duration(self) -> float:
        return self.n / self.sample_rate

    def times(self) -> np.ndarray:
        return np.arange(self.n) / self.sample_rate


@dataclass(frozen=True)
class SynthesisConfig:
    """Parameters of one synthesized record, checked when it is built.

    The sample rate must resolve the spectrum (at least 4 x c/2L) and the
    record must span `MIN_COHERENCE_TIMES` coherence times 2L/c; any other
    value raises ConfigurationError, also through `dataclasses.replace`.
    """

    L: float
    sample_rate: float
    n_samples: int
    seed: int
    method: str = "spectral"

    def __post_init__(self):
        spec = self.spectrum()
        _seed_sequence(self.seed, 0)
        check_positive_finite("sample_rate", self.sample_rate)
        if self.method not in METHODS:
            raise ConfigurationError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be at least 1")
        first_zero = float(spec.zeros(1)[0])
        if self.sample_rate < 4.0 * first_zero:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate:g} Hz does not resolve the "
                f"spectrum: need at least 4 x c/2L = {4 * first_zero:g} Hz"
            )
        duration = self.n_samples / self.sample_rate
        if duration < MIN_COHERENCE_TIMES * spec.coherence_time:
            raise ConfigurationError(
                f"record of {duration:g} s is shorter than "
                f"{MIN_COHERENCE_TIMES:g} coherence times "
                f"({MIN_COHERENCE_TIMES * spec.coherence_time:g} s)"
            )

    def spectrum(self) -> HolographicSpectrum:
        return HolographicSpectrum(self.L)


def _seed_sequence(seed: int, channel: int) -> np.random.SeedSequence:
    """The SeedSequence of the (seed, channel) substream; the one seed check."""
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or seed < 0):
        raise ConfigurationError(
            f"seed must be a non-negative integer, got {seed!r}"
        )
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(int(channel),))


def channel_rng(seed: int, channel: int) -> np.random.Generator:
    """Independent, reproducible substream keyed by (seed, channel)."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, channel)))


def channel_seed(seed: int, channel: int) -> int:
    """64-bit integer seed for the (seed, channel) substream."""
    state = _seed_sequence(seed, channel).generate_state(1, dtype=np.uint64)
    return int(state[0])


def white_noise_psd() -> float:
    """Two-sided PSD 2 c^2 t_P / pi of the white driver, in (m/s)^2/Hz.

    This diffusion normalization is fixed by requiring the windowed output to
    hit the spectral plateau 8 t_P L^2 / pi; it is independent of arm length.
    """
    return 2.0 * CONSTANTS.c**2 * CONSTANTS.t_P / np.pi


def synthesize_spectral(cfg: SynthesisConfig) -> TimeSeries:
    """Gaussian record whose expected two-sided periodogram is `analytic_psd`.

    Bin k of the record's DFT is drawn complex-normal with
    E|X_k|^2 = n * fs * S(f_k); DC and Nyquist are real.  The inverse
    transform is then circularly stationary with the target spectrum.
    """
    if cfg.method != "spectral":
        raise ConfigurationError(f"spectral synthesis got method={cfg.method!r}")
    n, fs = cfg.n_samples, cfg.sample_rate
    spec = cfg.spectrum()
    f = np.fft.rfftfreq(n, d=1.0 / fs)
    target = np.asarray(analytic_psd(spec, f))
    rng = channel_rng(cfg.seed, 0)

    amplitude = np.sqrt(n * fs * target)
    x_f = np.empty(f.size, dtype=complex)
    # interior bins carry half the power in each quadrature
    z = rng.normal(size=(2, f.size))
    x_f[:] = (z[0] + 1j * z[1]) * (amplitude / np.sqrt(2.0))
    x_f[0] = z[0, 0] * amplitude[0]
    if n % 2 == 0:
        x_f[-1] = z[0, -1] * amplitude[-1]
    values = np.fft.irfft(x_f, n=n)
    return TimeSeries(sample_rate=fs, values=values)


def boxcar_width(cfg: SynthesisConfig) -> int:
    """Number of samples in one coherence time, rounded to the nearest integer.

    The effective coherence time of the synthesized record is width/fs; pick
    sample rates that make 2L/c * fs integral when exact agreement with the
    analytic model matters.
    """
    width = int(round(cfg.spectrum().coherence_time * cfg.sample_rate))
    return max(width, 1)


def _circular_moving_sum(x: np.ndarray, width: int) -> np.ndarray:
    """y[i] = x[i] + x[i-1] + ... + x[i-width+1], indices taken modulo n.

    The record is extended circularly by its last width - 1 samples; sums of
    2**b consecutive samples are built by binary doubling, and the set bits
    of `width` pick the blocks that tile the window.  That is
    O(n log2 width) shifted-slice additions and no transform.  Requires
    1 <= width <= n.
    """
    n = x.size
    # y[i] = ext[i:i + width].sum() over the extended record ext; the loop
    # keeps blocks[i] = ext[i:i + size].sum()
    blocks = np.concatenate((x[n - width + 1:], x))
    size, offset = 1, 0
    out = None
    while True:
        if width & size:
            part = blocks[offset:offset + n]
            if out is None:
                out = part.copy()
            else:
                out += part
            offset += size
        if 2 * size > width:
            return out
        blocks = blocks[:-size] + blocks[size:]
        size *= 2


def synthesize_boxcar(cfg: SynthesisConfig) -> TimeSeries:
    """White Gaussian noise summed over a sliding light-round-trip window.

    The white driver has two-sided PSD 2 c^2 t_P / pi; its circular moving
    sum over one round trip (width = round(2L/c * fs) samples, scaled by
    1/fs) gives a record whose autocovariance is the exact sampled triangle
    of the noise model.
    """
    if cfg.method != "boxcar":
        raise ConfigurationError(f"boxcar synthesis got method={cfg.method!r}")
    n, fs = cfg.n_samples, cfg.sample_rate
    width = boxcar_width(cfg)
    if width >= n:
        raise ConfigurationError(
            f"record of {n} samples is too short for a {width}-sample window"
        )
    rng = channel_rng(cfg.seed, 0)
    sigma_white = np.sqrt(white_noise_psd() * fs)
    white = rng.normal(scale=sigma_white, size=n)
    values = _circular_moving_sum(white, width)
    values /= fs
    return TimeSeries(sample_rate=fs, values=values)


def synthesize(cfg: SynthesisConfig) -> TimeSeries:
    """Dispatch on cfg.method."""
    if cfg.method == "spectral":
        return synthesize_spectral(cfg)
    return synthesize_boxcar(cfg)
