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

from .algebra import CONSTANTS, PhysicalConstants
from .errors import ConfigurationError, check_positive_finite
from .noise_model import HolographicSpectrum
from .synthesis import SynthesisConfig, TimeSeries, channel_rng, channel_seed, synthesize

# substream channel ids for a dual run
CH_GEOM_SHARED = 0
CH_GEOM_INDEP = 1
CH_SHOT_A = 2
CH_SHOT_B = 3


def default_shot_asd(L: float, consts: PhysicalConstants = CONSTANTS) -> float:
    """One-sided shot-noise ASD (m/rtHz) set 3x above the geometric plateau.

    With this floor the geometric signal is invisible in a single detector's
    spectrum and only emerges from cross-correlation after integration.
    """
    plateau_one_sided = 2.0 * HolographicSpectrum(L, consts).plateau
    return 3.0 * float(np.sqrt(plateau_one_sided))


@dataclass(frozen=True)
class DetectorConfig:
    L: float
    shot_noise_asd: float
    geometric_sensitivity: bool = True

    def validate(self) -> "DetectorConfig":
        check_positive_finite("arm_length", self.L)
        if not 0.0 <= self.shot_noise_asd < np.inf:
            raise ConfigurationError(
                "shot_noise_asd must be nonnegative and finite, got "
                f"{self.shot_noise_asd}"
            )
        return self


@dataclass(frozen=True)
class DualDetectorConfig:
    det_a: DetectorConfig
    det_b: DetectorConfig
    rho_geom: float

    def validate(self) -> "DualDetectorConfig":
        self.det_a.validate()
        self.det_b.validate()
        if not 0.0 <= self.rho_geom <= 1.0:
            raise ConfigurationError(
                f"rho_geom must lie in [0, 1], got {self.rho_geom}"
            )
        if self.rho_geom > 0.0 and self.det_a.L != self.det_b.L:
            raise ConfigurationError(
                "correlated runs require equal arm lengths, got "
                f"{self.det_a.L} and {self.det_b.L}"
            )
        return self


def _shot_noise(asd: float, n: int, sample_rate: float,
                rng: np.random.Generator) -> np.ndarray:
    # one-sided PSD asd^2 -> per-sample variance asd^2/2 * fs
    if asd == 0.0:
        return np.zeros(n)
    return rng.normal(scale=asd * np.sqrt(sample_rate / 2.0), size=n)


def _n_samples(duration: float, sample_rate: float) -> int:
    check_positive_finite("duration", duration)
    check_positive_finite("sample_rate", sample_rate)
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ConfigurationError(f"duration {duration} s yields an empty record")
    return n


def simulate_detector(cfg: DetectorConfig, duration: float, sample_rate: float,
                      seed: int, method: str = "spectral",
                      consts: PhysicalConstants = CONSTANTS) -> TimeSeries:
    """Single-detector output: geometric noise (if sensitive) plus shot noise."""
    cfg.validate()
    n = _n_samples(duration, sample_rate)
    # geometric and shot components use fixed substreams of the master seed
    synth_cfg = SynthesisConfig(
        L=cfg.L, sample_rate=sample_rate, n_samples=n,
        seed=channel_seed(seed, CH_GEOM_SHARED), method=method, consts=consts,
    ).validate()
    values = np.zeros(n)
    if cfg.geometric_sensitivity:
        values += synthesize(synth_cfg).values
    values += _shot_noise(cfg.shot_noise_asd, n, sample_rate,
                          channel_rng(seed, CH_SHOT_A))
    return TimeSeries(sample_rate=sample_rate, values=values)


def simulate_dual(cfg: DualDetectorConfig, duration: float, sample_rate: float,
                  seed: int, method: str = "spectral",
                  consts: PhysicalConstants = CONSTANTS
                  ) -> tuple[TimeSeries, TimeSeries]:
    """Outputs of a co-located pair with entangled geometric components.

    Detector A carries the shared geometric stream g; detector B carries
    rho * g + sqrt(1 - rho^2) * g', with g' independent, so both see the full
    geometric spectrum while their cross-spectrum is rho times it.  Shot
    noises are independent.  The four underlying streams derive from distinct
    substreams of `seed`.
    """
    cfg.validate()
    n = _n_samples(duration, sample_rate)

    def synth_cfg(channel: int, L: float) -> SynthesisConfig:
        return SynthesisConfig(
            L=L, sample_rate=sample_rate, n_samples=n,
            seed=channel_seed(seed, channel), method=method, consts=consts,
        ).validate()

    # sampling preconditions are enforced for both arms even when a
    # sensitivity flag later drops the component
    cfg_shared = synth_cfg(CH_GEOM_SHARED, cfg.det_a.L)
    cfg_indep = synth_cfg(CH_GEOM_INDEP, cfg.det_b.L)

    rho = cfg.rho_geom
    values_a = np.zeros(n)
    values_b = np.zeros(n)
    if cfg.det_a.geometric_sensitivity or cfg.det_b.geometric_sensitivity:
        shared = synthesize(cfg_shared).values
    if cfg.det_a.geometric_sensitivity:
        values_a += shared
    if cfg.det_b.geometric_sensitivity:
        if rho >= 1.0:
            values_b += shared
        else:
            independent = synthesize(cfg_indep).values
            values_b += rho * shared + np.sqrt(1.0 - rho**2) * independent
    values_a += _shot_noise(cfg.det_a.shot_noise_asd, n, sample_rate,
                            channel_rng(seed, CH_SHOT_A))
    values_b += _shot_noise(cfg.det_b.shot_noise_asd, n, sample_rate,
                            channel_rng(seed, CH_SHOT_B))
    return (TimeSeries(sample_rate=sample_rate, values=values_a),
            TimeSeries(sample_rate=sample_rate, values=values_b))
