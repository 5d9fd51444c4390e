"""The dual-detector experiment end to end: `RunConfig` in, `RunResult` out.

`run_pipeline` computes what `holonoise run` writes.  It calls the kernels
through their modules (`analysis.welch_csd`), so that a wrapper set on the
module attribute sees every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import analysis, interferometer, synthesis
from .errors import ConfigurationError
from .noise_model import HolographicSpectrum
from .synthesis import METHODS


def _run_field(default, types, description, *flags, **argparse_kwargs):
    """A RunConfig field: default, accepted JSON types, help text, `run` flags."""
    return field(default=default, metadata={
        "types": types, "help": description, "flags": flags,
        "argparse": argparse_kwargs,
    })


_NUMBER = (int, float)
_OPTIONAL = (int, float, type(None))


def _has_types(value, types) -> bool:
    """isinstance, except that a bool is not a number and that an int taken
    for a float must fit in one."""
    return (isinstance(value, types)
            and (bool in types or type(value) is not bool)
            and (float not in types or type(value) is not int
                 or abs(value) <= sys.float_info.max))


@dataclass(frozen=True)
class RunConfig:
    """The `holonoise run` configuration: one field per JSON key.

    Each field declares its default, its accepted JSON types, its description
    (the flag's help text) and its flag or flags.  A None default is filled
    in from the geometry when the run starts.  A band given as a tuple is
    stored as the list that JSON holds.  A value of the wrong type, or
    a band that is not two finite numbers, raises ConfigurationError when
    the config is built, naming every bad field; the values themselves are
    checked by the detector, Welch and synthesis configs built from it.
    """

    arm_length: float = _run_field(40.0, _NUMBER, "arm length in meters",
                                   "--arm-length", type=float, metavar="M")
    duration: float = _run_field(0.1, _NUMBER, "record duration in seconds",
                                 "--duration", type=float, metavar="S")
    sample_rate: float = _run_field(1.6e7, _NUMBER, "sample rate in Hz",
                                    "--sample-rate", type=float, metavar="HZ")
    seed: int = _run_field(1, (int,), "master seed", "--seed", type=int)
    rho_geom: float = _run_field(
        1.0, _NUMBER, "geometric correlation coefficient in [0, 1]",
        "--rho", type=float, metavar="RHO")
    shot_noise_asd: Optional[float] = _run_field(
        None, _OPTIONAL, "one-sided shot noise ASD in m/rtHz, 3x the plateau "
        "if unset", "--shot-asd", type=float, metavar="M_RTHZ")
    geometric_sensitivity_a: bool = _run_field(
        True, (bool,), "detector A responds to geometric noise", "--sens-a")
    geometric_sensitivity_b: bool = _run_field(
        True, (bool,), "detector B responds to geometric noise", "--sens-b")
    method: str = _run_field("boxcar", (str,), "synthesis method",
                             "--method", choices=METHODS)
    segment_length: int = _run_field(4096, (int,), "Welch segment length in "
                                     "samples", "--segment-length", type=int)
    overlap_fraction: float = _run_field(0.5, _NUMBER, "Welch overlap fraction",
                                         "--overlap", type=float)
    window: str = _run_field("hann", (str,), "Welch window", "--window",
                             choices=analysis.WINDOWS)
    band: Optional[list] = _run_field(
        None, (list, type(None)), "detection band [f_lo, f_hi] in Hz, "
        "[f_c/20, 2 f_c] if unset", "--band-lo", "--band-hi", type=float,
        metavar="HZ")
    max_lag: Optional[float] = _run_field(
        None, _OPTIONAL, "correlation lag range in seconds, 4 coherence times "
        "if unset", "--max-lag", type=float, metavar="S")

    def __post_init__(self):
        if isinstance(self.band, tuple):
            object.__setattr__(self, "band", list(self.band))
        bad = []
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_types(value, f.metadata["types"]):
                bad.append(f"field {f.name!r} ({f.metadata['help']}): "
                           f"bad value {value!r}")
        if isinstance(self.band, list) and (
                len(self.band) != 2 or not all(_has_types(v, _NUMBER)
                                               and -math.inf < v < math.inf
                                               for v in self.band)):
            bad.append("field 'band': expected [f_lo, f_hi], two finite numbers")
        if bad:
            raise ConfigurationError("invalid configuration: " + "; ".join(bad))


@dataclass(frozen=True)
class RunResult:
    """What one run measured; `holonoise run` writes it to its six files.

    `config` is the run's config with the geometry defaults filled in.  The
    two PSDs are `csd.psds`, from the same paired pass as the CSD.  The
    records themselves are not kept; their sample variances (1/N) in m^2
    are `correlation.variance_a` and `variance_b`.
    """

    config: RunConfig
    spectrum: HolographicSpectrum
    csd: analysis.SpectrumEstimate
    coherence: analysis.SpectrumEstimate
    correlation: analysis.CorrelationResult
    detection: analysis.DetectionResult


def run_pipeline(cfg: RunConfig) -> RunResult:
    """Simulate the detector pair of `cfg` and run the detection pipeline.

    Unset geometry values become their defaults: shot noise 3x the plateau
    ASD, band [f_c/20, 2 f_c] and a lag range of 4 coherence times.  A value
    the run cannot use raises ConfigurationError or ValueError naming it;
    so does a run too large for physical memory, before it allocates.
    """
    L = float(cfg.arm_length)
    spec = HolographicSpectrum(L)
    cfg = replace(
        cfg,
        shot_noise_asd=interferometer.default_shot_asd(L)
        if cfg.shot_noise_asd is None else float(cfg.shot_noise_asd),
        band=[spec.f_c / 20.0, 2.0 * spec.f_c] if cfg.band is None else cfg.band,
        max_lag=4.0 * spec.coherence_time if cfg.max_lag is None
        else float(cfg.max_lag),
    )
    det = interferometer.DualDetectorConfig(
        det_a=interferometer.DetectorConfig(
            L=L, shot_noise_asd=cfg.shot_noise_asd,
            geometric_sensitivity=cfg.geometric_sensitivity_a),
        det_b=interferometer.DetectorConfig(
            L=L, shot_noise_asd=cfg.shot_noise_asd,
            geometric_sensitivity=cfg.geometric_sensitivity_b),
        rho_geom=float(cfg.rho_geom),
    )
    welch = analysis.WelchParams(
        segment_length=cfg.segment_length,
        overlap_fraction=float(cfg.overlap_fraction),
        window=cfg.window,
    )

    silent = [name for name in ("geometric_sensitivity_a",
                                "geometric_sensitivity_b")
              if not getattr(cfg, name)]
    if silent and cfg.shot_noise_asd == 0.0:
        raise ConfigurationError(
            f"shot_noise_asd 0 with {' and '.join(silent)} false leaves a "
            "detector silent, and its zero-variance spectrum cannot be "
            "weighted")
    # the one memory check, with what the Welch pass holds; an unknown
    # method is refused first, by the synthesis configs
    chunks = interferometer._run(
        det.det_a, det.det_b, det.rho_geom, float(cfg.duration),
        float(cfg.sample_rate), cfg.seed, cfg.method, whole=False,
        also=("segment_length", welch.segment_length,
              analysis._WelchPass(welch).held_bytes))

    # the spectra square the records and their products square them again,
    # so a huge shot noise or arm length can overflow; that refuses the run
    try:
        with np.errstate(over="raise"):
            csd = analysis.welch_csd(chunks, p=welch)
            return RunResult(
                config=cfg,
                spectrum=spec,
                csd=csd,
                coherence=analysis.coherence_from_csd(csd),
                correlation=analysis.cross_correlation(csd, cfg.max_lag),
                detection=analysis.detection_significance(
                    csd, synthesis.record_psd(spec, cfg.sample_rate,
                                              cfg.method, csd.frequencies),
                    cfg.band),
            )
    except FloatingPointError as exc:
        raise ConfigurationError(
            f"the run overflows the float range ({exc}); lower shot_noise_asd "
            "or arm_length") from None
