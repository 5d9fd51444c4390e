"""Signal streams of one or two Michelson interferometers.

Each detector output is the sum of a geometric displacement component (the
noise-model process, present only when the optical layout responds to
transverse displacements) and white photon shot noise.  For a co-located
pair the geometric components share a common stream; a single correlation
coefficient rho_geom in [0, 1] interpolates between fully entangled (1) and
decoupled (0) geometric states.  All component streams draw from distinct
substreams of one master seed, so toggling any component leaves the others
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _threads
from .errors import ConfigurationError, check_positive_finite
from .noise_model import HolographicSpectrum
from .synthesis import SynthesisConfig, TimeSeries, channel_rng, channel_seed, synthesize

# substream channel ids for a dual run
CH_GEOM_SHARED = 0
CH_GEOM_INDEP = 1
CH_SHOT_A = 2
CH_SHOT_B = 3


def default_shot_asd(L: float) -> float:
    """One-sided shot-noise ASD (m/rtHz) set 3x above the geometric plateau.

    With this floor the geometric signal is invisible in a single detector's
    spectrum and only emerges from cross-correlation after integration.
    """
    plateau_one_sided = 2.0 * HolographicSpectrum(L).plateau
    return 3.0 * float(np.sqrt(plateau_one_sided))


@dataclass(frozen=True)
class DetectorConfig:
    """One detector; a bad arm length or shot ASD raises when it is built."""

    L: float
    shot_noise_asd: float
    geometric_sensitivity: bool = True

    def __post_init__(self):
        check_positive_finite("arm_length", self.L)
        if not 0.0 <= self.shot_noise_asd < np.inf:
            raise ConfigurationError(
                "shot_noise_asd must be nonnegative and finite, got "
                f"{self.shot_noise_asd}"
            )


@dataclass(frozen=True)
class DualDetectorConfig:
    """A co-located pair; its detectors were checked when they were built."""

    det_a: DetectorConfig
    det_b: DetectorConfig
    rho_geom: float

    def __post_init__(self):
        if not 0.0 <= self.rho_geom <= 1.0:
            raise ConfigurationError(
                f"rho_geom must lie in [0, 1], got {self.rho_geom}"
            )
        if self.rho_geom > 0.0 and self.det_a.L != self.det_b.L:
            raise ConfigurationError(
                "correlated runs require equal arm lengths, got "
                f"{self.det_a.L} and {self.det_b.L}"
            )


def _draw_shot_noise(out: np.ndarray, asd: float, sample_rate: float,
                     rng: np.random.Generator) -> None:
    """Fill `out` with white noise of one-sided PSD asd^2, in place.

    The per-sample variance is asd^2/2 * fs.  Filling a buffer allocates
    nothing, so it can run on a worker thread, and gives the bytes of
    `rng.normal(scale=..., size=n)`, which computes 0.0 + scale * z: the two
    differ only where a draw z is -0.0, about once in 2**53 draws.
    """
    if asd != 0.0:
        rng.standard_normal(out=out)
        out *= asd * np.sqrt(sample_rate / 2.0)


def _n_samples(duration: float, sample_rate: float) -> int:
    check_positive_finite("duration", duration)
    check_positive_finite("sample_rate", sample_rate)
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ConfigurationError(f"duration {duration} s yields an empty record")
    return n


def simulate_detector(cfg: DetectorConfig, duration: float, sample_rate: float,
                      seed: int, method: str = "spectral") -> TimeSeries:
    """Single-detector output: geometric noise (if sensitive) plus shot noise.

    This is detector A of `simulate_dual` beside a silent, insensitive B, so
    it draws the same substreams and gives the same bytes.
    """
    silent = DetectorConfig(L=cfg.L, shot_noise_asd=0.0,
                            geometric_sensitivity=False)
    return simulate_dual(DualDetectorConfig(cfg, silent, rho_geom=0.0),
                         duration, sample_rate, seed, method)[0]


def simulate_dual(cfg: DualDetectorConfig, duration: float, sample_rate: float,
                  seed: int, method: str = "spectral"
                  ) -> tuple[TimeSeries, TimeSeries]:
    """Outputs of a co-located pair with entangled geometric components.

    Detector A carries the shared geometric stream g; detector B carries
    rho * g + sqrt(1 - rho^2) * g', with g' independent, so both see the full
    geometric spectrum while their cross-spectrum is rho times it.  Shot
    noises are independent.  The four underlying streams derive from distinct
    substreams of `seed`.
    """
    n = _n_samples(duration, sample_rate)

    def synth_cfg(channel: int, L: float) -> SynthesisConfig:
        return SynthesisConfig(L=L, sample_rate=sample_rate, n_samples=n,
                               seed=channel_seed(seed, channel), method=method)

    # sampling preconditions are enforced for both arms even when a
    # sensitivity flag later drops the component
    cfg_shared = synth_cfg(CH_GEOM_SHARED, cfg.det_a.L)
    cfg_indep = synth_cfg(CH_GEOM_INDEP, cfg.det_b.L)

    rho = cfg.rho_geom
    need_shared = (cfg.det_a.geometric_sensitivity
                   or cfg.det_b.geometric_sensitivity)
    need_indep = cfg.det_b.geometric_sensitivity and rho < 1.0

    def geometric():
        return (synthesize(cfg_shared).values if need_shared else None,
                synthesize(cfg_indep).values if need_indep else None)

    # a worker draws the shot noises into records allocated here (zeros for
    # a silent detector) while this thread synthesizes; the geometric parts
    # are then added in place, without aliasing `shared`
    values_a, values_b = (np.zeros(n) if det.shot_noise_asd == 0.0
                          else np.empty(n) for det in (cfg.det_a, cfg.det_b))

    def shot_noise():
        _draw_shot_noise(values_a, cfg.det_a.shot_noise_asd, sample_rate,
                         channel_rng(seed, CH_SHOT_A))
        _draw_shot_noise(values_b, cfg.det_b.shot_noise_asd, sample_rate,
                         channel_rng(seed, CH_SHOT_B))

    (shared, independent), _ = _threads.run_all([geometric, shot_noise], n)
    if cfg.det_a.geometric_sensitivity:
        values_a += shared
    if cfg.det_b.geometric_sensitivity:
        if rho >= 1.0:
            values_b += shared
        else:
            values_b += rho * shared + np.sqrt(1.0 - rho**2) * independent
    return (TimeSeries(sample_rate=sample_rate, values=values_a),
            TimeSeries(sample_rate=sample_rate, values=values_b))
