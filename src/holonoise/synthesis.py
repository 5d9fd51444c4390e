"""Sampled realizations of the predicted displacement noise.

Two independent constructions are provided and must agree statistically:

* spectral: Gaussian amplitudes drawn per frequency bin so that the expected
  two-sided periodogram equals `analytic_psd` exactly on the record's grid;
* boxcar: white Gaussian noise integrated over a sliding window of one light
  round-trip time, which reproduces the triangular autocorrelation exactly at
  the sample lags.

Both are circular (periodic) constructions; records must be long compared to
the coherence time, which the config invariants enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import CONSTANTS, PhysicalConstants
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
    start_time: float = 0.0

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
        return self.start_time + np.arange(self.n) / self.sample_rate


@dataclass(frozen=True)
class SynthesisConfig:
    L: float
    sample_rate: float
    n_samples: int
    seed: int
    method: str = "spectral"
    consts: PhysicalConstants = field(default=CONSTANTS, repr=False)

    def validate(self) -> "SynthesisConfig":
        check_positive_finite("arm_length", self.L)
        check_positive_finite("sample_rate", self.sample_rate)
        if self.method not in METHODS:
            raise ConfigurationError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be at least 1")
        first_zero = self.consts.c / (2.0 * self.L)
        if self.sample_rate < 4.0 * first_zero:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate:g} Hz does not resolve the "
                f"spectrum: need at least 4 x c/2L = {4 * first_zero:g} Hz"
            )
        coherence_time = 2.0 * self.L / self.consts.c
        duration = self.n_samples / self.sample_rate
        if duration < MIN_COHERENCE_TIMES * coherence_time:
            raise ConfigurationError(
                f"record of {duration:g} s is shorter than "
                f"{MIN_COHERENCE_TIMES:g} coherence times "
                f"({MIN_COHERENCE_TIMES * coherence_time:g} s)"
            )
        return self

    def spectrum(self) -> HolographicSpectrum:
        return HolographicSpectrum(self.L, self.consts)


def channel_rng(seed: int, channel: int) -> np.random.Generator:
    """Independent, reproducible substream keyed by (seed, channel)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(channel),))
    return np.random.Generator(np.random.PCG64(ss))


def channel_seed(seed: int, channel: int) -> int:
    """64-bit integer seed for the (seed, channel) substream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(channel),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def white_noise_psd(consts: PhysicalConstants = CONSTANTS) -> float:
    """Two-sided PSD 2 c^2 t_P / pi of the white driver, in (m/s)^2/Hz.

    This diffusion normalization is fixed by requiring the windowed output to
    hit the spectral plateau 8 t_P L^2 / pi; it is independent of arm length.
    """
    return 2.0 * consts.c**2 * consts.t_P / np.pi


def synthesize_spectral(cfg: SynthesisConfig) -> TimeSeries:
    """Gaussian record whose expected two-sided periodogram is `analytic_psd`.

    Bin k of the record's DFT is drawn complex-normal with
    E|X_k|^2 = n * fs * S(f_k); DC and Nyquist are real.  The inverse
    transform is then circularly stationary with the target spectrum.
    """
    cfg.validate()
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
    width = int(round(2.0 * cfg.L / cfg.consts.c * cfg.sample_rate))
    return max(width, 1)


def synthesize_boxcar(cfg: SynthesisConfig) -> TimeSeries:
    """White Gaussian noise summed over a sliding light-round-trip window.

    The white driver has two-sided PSD 2 c^2 t_P / pi; circular convolution
    with a boxcar of duration 2L/c gives a record whose autocovariance is the
    exact sampled triangle of the noise model.
    """
    cfg.validate()
    if cfg.method != "boxcar":
        raise ConfigurationError(f"boxcar synthesis got method={cfg.method!r}")
    n, fs = cfg.n_samples, cfg.sample_rate
    width = boxcar_width(cfg)
    if width >= n:
        raise ConfigurationError(
            f"record of {n} samples is too short for a {width}-sample window"
        )
    rng = channel_rng(cfg.seed, 0)
    sigma_white = np.sqrt(white_noise_psd(cfg.consts) * fs)
    white = rng.normal(scale=sigma_white, size=n)
    taps = np.full(width, 1.0 / fs)
    spectrum_w = np.fft.rfft(white)
    spectrum_h = np.fft.rfft(taps, n=n)
    values = np.fft.irfft(spectrum_w * spectrum_h, n=n)
    return TimeSeries(sample_rate=fs, values=values)


def synthesize(cfg: SynthesisConfig) -> TimeSeries:
    """Dispatch on cfg.method."""
    cfg.validate()
    if cfg.method == "spectral":
        return synthesize_spectral(cfg)
    return synthesize_boxcar(cfg)
