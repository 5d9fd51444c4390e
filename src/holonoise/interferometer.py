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

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from . import _threads, synthesis
from .errors import ConfigurationError, check_positive_finite
from .noise_model import HolographicSpectrum
from .synthesis import SynthesisConfig, TimeSeries, channel_seed, synthesize

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


def _shot(det: DetectorConfig, sample_rate: float, seed: int,
          channel: int):
    """The shot noise of `det` for `_mix_blocks`: white noise of one-sided
    PSD asd^2, so per-sample variance asd^2/2 * fs, from the (seed, channel)
    stream; None for a detector without shot noise."""
    asd = det.shot_noise_asd
    return (asd * np.sqrt(sample_rate / 2.0), seed, channel) if asd else None


def _mix_blocks(out: np.ndarray, terms: list, shot, blocks: np.ndarray,
                scratch) -> None:
    """Blocks `blocks` of one detector's record, in place in `out`.

    The record is the sum of weight * record over the (weight, record)
    pairs of `terms`, then the shot noise: `shot` is (scale, seed, channel),
    the channel's standard normals times `scale`, or None.  The first term's
    record may be `out` itself, which is then scaled in place.  The work
    array is `scratch["term"]` (unused without terms), so nothing is
    allocated and a worker thread can run it.
    """
    block = synthesis._BLOCK
    for b in blocks:
        part = slice(b * block, (b + 1) * block)
        o = out[part]
        for k, (weight, record) in enumerate(terms):
            if k > 0:
                o += np.multiply(record[part], weight,
                                 out=scratch["term"][:o.size])
            elif record is not out or weight != 1.0:
                np.multiply(record[part], weight, out=o)
        if shot is None:
            if not terms:
                o.fill(0.0)
            continue
        scale, seed, channel = shot
        noise = scratch["term"][:o.size] if terms else o
        synthesis._fill_normal(noise, seed, channel, b)
        noise *= scale
        if terms:
            o += noise


def _detector_record(out: np.ndarray, terms: list, shot,
                     sample_rate: float) -> TimeSeries:
    """One detector's record, built in `out` by `_mix_blocks` on the usable
    CPUs; `out` is a new buffer or the record of the first term, which is
    then overwritten."""
    _threads.on_blocks(
        functools.partial(_mix_blocks, out, terms, shot),
        -(-out.size // synthesis._BLOCK), out.size,
        {"term": ((synthesis._BLOCK,), float)})
    return TimeSeries(sample_rate=sample_rate, values=out)


def _detector_a(det: DetectorConfig, shared, n: int, sample_rate: float,
                seed: int) -> TimeSeries:
    """Detector A: the shared geometric record if `det` is sensitive, built
    in that record's buffer, plus the shot noise of `det`."""
    terms = [(1.0, shared)] if det.geometric_sensitivity else []
    return _detector_record(shared if terms else np.empty(n), terms,
                            _shot(det, sample_rate, seed, CH_SHOT_A),
                            sample_rate)


def _n_samples(duration: float, sample_rate: float) -> int:
    check_positive_finite("duration", duration)
    check_positive_finite("sample_rate", sample_rate)
    check_positive_finite("duration x sample_rate", duration * sample_rate)
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ConfigurationError(f"duration {duration} s yields an empty record")
    return n


def _synth_cfg(seed: int, channel: int, L: float, n: int, sample_rate: float,
               method: str) -> SynthesisConfig:
    """The synthesis of geometric stream `channel` of a run of `seed`."""
    return SynthesisConfig(L=L, sample_rate=sample_rate, n_samples=n,
                           seed=channel_seed(seed, channel), method=method)


def simulate_detector(cfg: DetectorConfig, duration: float, sample_rate: float,
                      seed: int, method: str = "spectral") -> TimeSeries:
    """Single-detector output: geometric noise (if sensitive) plus shot noise.

    This is detector A of `simulate_dual`: it draws the same substreams,
    mixes them in the same way and gives the same bytes, with no detector B.
    """
    n = _n_samples(duration, sample_rate)
    # sampling preconditions hold even when the component is dropped
    cfg_shared = _synth_cfg(seed, CH_GEOM_SHARED, cfg.L, n, sample_rate, method)
    shared = (synthesize(cfg_shared).values if cfg.geometric_sensitivity
              else None)
    return _detector_a(cfg, shared, n, sample_rate, seed)


def simulate_dual(cfg: DualDetectorConfig, duration: float, sample_rate: float,
                  seed: int, method: str = "spectral"
                  ) -> tuple[TimeSeries, TimeSeries]:
    """Outputs of a co-located pair with entangled geometric components.

    Detector A carries the shared geometric stream g; detector B carries
    sqrt(1 - rho^2) * g' + rho * g, with g' independent, so both see the
    full geometric spectrum while their cross-spectrum is rho times it.
    Shot noises are independent.  The four underlying streams derive from
    distinct substreams of `seed`.  A is built in the shared record's
    buffer and, at rho < 1, B in the independent one's, so a pair of
    sensitive detectors holds two records.
    """
    n = _n_samples(duration, sample_rate)
    # sampling preconditions are enforced for both arms even when a
    # sensitivity flag later drops the component
    cfg_shared = _synth_cfg(seed, CH_GEOM_SHARED, cfg.det_a.L, n, sample_rate,
                            method)
    cfg_indep = _synth_cfg(seed, CH_GEOM_INDEP, cfg.det_b.L, n, sample_rate,
                           method)

    rho = cfg.rho_geom
    sens_a = cfg.det_a.geometric_sensitivity
    sens_b = cfg.det_b.geometric_sensitivity
    shot_b = _shot(cfg.det_b, sample_rate, seed, CH_SHOT_B)
    # a new record for B takes its shot noise while the geometric records
    # are made, on the CPUs that a spectral inverse FFT leaves idle
    new_b = np.empty(n) if not sens_b or rho == 1.0 else None
    with (contextlib.nullcontext() if new_b is None else _threads.offering(
            functools.partial(_mix_blocks, new_b, [], shot_b),
            -(-n // synthesis._BLOCK), n, {})):
        shared = (synthesize(cfg_shared).values
                  if sens_a or (sens_b and rho > 0.0) else None)
        independent = (synthesize(cfg_indep).values
                       if sens_b and rho < 1.0 else None)

    # B first: A is then built in the buffer of the shared record B reads
    if new_b is not None:
        out_b, terms_b, shot_b = new_b, [(1.0, new_b)], None
        if sens_b:
            terms_b.append((1.0, shared))
    else:
        out_b, terms_b = independent, [(np.sqrt(1.0 - rho**2), independent)]
        if rho > 0.0:
            terms_b.append((rho, shared))
    b = _detector_record(out_b, terms_b, shot_b, sample_rate)
    return _detector_a(cfg.det_a, shared, n, sample_rate, seed), b
