"""Command-line front end.

Subcommands:

* ``spectrum``  tabulate the predicted displacement spectrum for one arm length
* ``synth``     generate a noise record and write it to disk
* ``run``       simulate a correlated interferometer pair and run the full
                estimation/detection pipeline
* ``verify``    print a pass/fail report of the model's numeric identities

Exit status: 0 on success, 1 when ``verify`` finds a failing check, 2 on
usage, configuration or file errors.  Every command is a deterministic function of
its configuration and seed; reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .algebra import (
    CONSTANTS,
    boost_matrix,
    commutator_tensor,
    covariance_residual,
    dof_counts,
    heisenberg_variance_bound,
    levi_civita4,
    random_boost,
    rest_frame_commutator,
    scale_estimates,
    uncertainty_bound,
    angular_uncertainty_bound,
    SECONDS_PER_YEAR,
)
# welch_psd and coherence stay imported: perfbench's tracing.PATCHES wraps them
from .analysis import (
    WINDOWS,
    WelchParams,
    cross_correlation,
    coherence,
    coherence_from_csd,
    detection_significance,
    welch_csd,
    welch_psd,
)
from .errors import ConfigurationError, check_positive_finite
from .interferometer import (
    DetectorConfig,
    DualDetectorConfig,
    default_shot_asd,
    simulate_dual,
)
from .noise_model import (
    HolographicSpectrum,
    analytic_autocorrelation,
    analytic_psd,
    envelope_high_f,
    one_sided_psd,
    time_averaged_ms_displacement,
)
from .synthesis import METHODS, SynthesisConfig, synthesize
from . import io as hio

OUTDIR_ENV = "HOLONOISE_OUTDIR"


def _default_outdir() -> str:
    return os.environ.get(OUTDIR_ENV, ".")


class _PairItem(argparse.Action):
    """Stores its value at index `const` of a two-item list, such as the band."""

    def __call__(self, parser, namespace, value, option_string=None):
        pair = list(getattr(namespace, self.dest) or (None, None))
        pair[self.const] = value
        setattr(namespace, self.dest, pair)


def _run_field(default, types, description, *flags, **argparse_kwargs):
    """A RunConfig field: default, accepted JSON types, help text, `run` flags."""
    return field(default=default, metadata={
        "types": types, "help": description, "flags": flags,
        "argparse": argparse_kwargs,
    })


_NUMBER = (int, float)
_OPTIONAL = (int, float, type(None))


@dataclass(frozen=True)
class RunConfig:
    """The `holonoise run` configuration: one field per JSON key.

    Each field declares its default, its accepted JSON types, its description
    (the flag's help text) and its flag or flags.  A None default is filled
    in from the geometry when the run starts.
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
        True, (bool,), "detector A responds to geometric noise", "--sens-a",
        action=argparse.BooleanOptionalAction)
    geometric_sensitivity_b: bool = _run_field(
        True, (bool,), "detector B responds to geometric noise", "--sens-b",
        action=argparse.BooleanOptionalAction)
    method: str = _run_field("spectral", (str,), "synthesis method",
                             "--method", choices=METHODS)
    segment_length: int = _run_field(4096, (int,), "Welch segment length in "
                                     "samples", "--segment-length", type=int)
    overlap_fraction: float = _run_field(0.5, _NUMBER, "Welch overlap fraction",
                                         "--overlap", type=float)
    window: str = _run_field("hann", (str,), "Welch window", "--window",
                             choices=WINDOWS)
    band: Optional[list] = _run_field(
        None, (list, type(None)), "detection band [f_lo, f_hi] in Hz, "
        "[f_c/20, 2 f_c] if unset", "--band-lo", "--band-hi", type=float,
        metavar="HZ", action=_PairItem)
    max_lag: Optional[float] = _run_field(
        None, _OPTIONAL, "correlation lag range in seconds, 4 coherence times "
        "if unset", "--max-lag", type=float, metavar="S")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holonoise",
        description="Planckian displacement-noise model, simulation and "
                    "cross-correlation analysis for Michelson interferometers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="tabulate the predicted spectrum")
    p.add_argument("--arm-length", type=float, default=RunConfig.arm_length,
                   metavar="M")
    p.add_argument("--f-max", type=float, required=True, metavar="HZ")
    p.add_argument("--f-min", type=float, default=0.0, metavar="HZ")
    p.add_argument("--n-points", type=int, default=1000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None,
                   help="output file (default: stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("synth", help="synthesize a noise record")
    p.add_argument("--arm-length", type=float, default=RunConfig.arm_length,
                   metavar="M")
    p.add_argument("--sample-rate", type=float, default=RunConfig.sample_rate,
                   metavar="HZ")
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--method", choices=METHODS, default=RunConfig.method)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="dual-detector experiment end to end")
    p.add_argument("--config", default=None, help="JSON run configuration")
    # every flag defaults to None, so that the config file shows through
    for f in fields(RunConfig):
        flags = f.metadata["flags"]
        text = f.metadata["help"]
        if f.default is not None:
            text += f" (default: {f.default})"
        for i, flag in enumerate(flags):
            item = {"const": i} if len(flags) > 1 else {}
            p.add_argument(flag, dest=f.name, default=None, help=text,
                           **item, **f.metadata["argparse"])
    p.add_argument("--outdir", default=None,
                   help=f"output directory (default: ${OUTDIR_ENV} or .)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="numeric identity report")
    p.add_argument("--boosts", type=int, default=100,
                   help="random transforms in the covariance sweep")
    p.set_defaults(func=cmd_verify)
    return parser


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args) -> int:
    check_positive_finite("--f-max", args.f_max)
    if not 0.0 <= args.f_min < args.f_max:
        raise ConfigurationError(
            f"--f-min must lie in [0, f-max), got {args.f_min}"
        )
    if args.n_points < 2:
        raise ConfigurationError("--n-points must be at least 2")
    spec = HolographicSpectrum(args.arm_length)
    f = np.linspace(args.f_min, args.f_max, args.n_points)
    psd2 = np.asarray(analytic_psd(spec, f))
    envelope = np.full_like(f, np.nan)
    above = f > spec.f_c
    if np.any(above):
        envelope[above] = envelope_high_f(spec, f[above])
    # at most one zero per table row, so the metadata never outgrows the table
    n_zeros = min(max(int(args.f_max / spec.zeros(1)[0]), 1), args.n_points)
    zeros = [z for z in spec.zeros(n_zeros) if z <= args.f_max]
    meta = {
        "arm_length_m": args.arm_length,
        "f_min_hz": args.f_min,
        "f_max_hz": args.f_max,
        "n_points": args.n_points,
        "f_c_hz": spec.f_c,
        "coherence_time_s": spec.coherence_time,
        "plateau_two_sided_m2_hz": spec.plateau,
        "plateau_one_sided_m2_hz": 2.0 * spec.plateau,
        "plateau_asd_one_sided_m_rthz": float(np.sqrt(2.0 * spec.plateau)),
        "total_variance_m2": spec.total_variance,
        "zeros_hz": zeros,
        "seed": None,
        "generator": f"holonoise {__version__} spectrum",
    }
    columns = {
        "f_hz": f,
        "psd_two_sided_m2_hz": psd2,
        "psd_one_sided_m2_hz": np.where(f > 0, 2.0 * psd2, psd2),
        "envelope_two_sided_m2_hz": envelope,
    }
    if args.format == "json":
        doc = dict(meta, **{k: v.tolist() for k, v in columns.items()})
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = hio.format_table_csv(columns, meta)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    cfg = SynthesisConfig(
        L=args.arm_length, sample_rate=args.sample_rate,
        n_samples=args.n_samples, seed=args.seed, method=args.method,
    )
    ts = synthesize(cfg)
    meta = {
        "arm_length_m": cfg.L,
        "sample_rate_hz": cfg.sample_rate,
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "method": cfg.method,
        "generator": f"holonoise {__version__} synth",
    }
    if args.format == "csv":
        hio.write_timeseries_csv(args.output, ts, seed=cfg.seed, metadata=meta)
    else:
        hio.write_timeseries_bin(args.output, ts, seed=cfg.seed, metadata=meta)
    print(f"wrote {args.output}: {ts.n} samples at {ts.sample_rate:g} Hz")
    return 0


# --------------------------------------------------------------------- run

def _has_types(value, types) -> bool:
    """isinstance, except that a bool is not a number."""
    return isinstance(value, types) and (bool in types or type(value) is not bool)


def resolve_run_config(args) -> RunConfig:
    """Defaults, then config file, then command-line flags, type-checked once."""
    values = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            values = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(values, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")
    if args.band is not None and None in args.band:
        raise ConfigurationError("--band-lo and --band-hi must both be given")
    names = [f.name for f in fields(RunConfig)]
    values.update((name, getattr(args, name)) for name in names
                  if getattr(args, name) is not None)

    bad = [f"unknown field {key!r}" for key in values if key not in names]
    for f in fields(RunConfig):
        value = values.get(f.name, f.default)
        if not _has_types(value, f.metadata["types"]):
            bad.append(f"field {f.name!r} ({f.metadata['help']}): "
                       f"bad value {value!r}")
    band = values.get("band")
    if isinstance(band, list) and (
            len(band) != 2 or not all(_has_types(v, _NUMBER)
                                      and -math.inf < v < math.inf
                                      for v in band)):
        bad.append("field 'band': expected [f_lo, f_hi], two finite numbers")
    if bad:
        raise ConfigurationError("invalid configuration: " + "; ".join(bad))
    return RunConfig(**values)


def cmd_run(args) -> int:
    cfg = resolve_run_config(args)
    outdir = Path(args.outdir if args.outdir is not None else _default_outdir())

    L = float(cfg.arm_length)
    spec = HolographicSpectrum(L)
    cfg = replace(
        cfg,
        shot_noise_asd=default_shot_asd(L) if cfg.shot_noise_asd is None
        else float(cfg.shot_noise_asd),
        band=[spec.f_c / 20.0, 2.0 * spec.f_c] if cfg.band is None else cfg.band,
        max_lag=4.0 * spec.coherence_time if cfg.max_lag is None
        else float(cfg.max_lag),
    )
    det = DualDetectorConfig(
        det_a=DetectorConfig(L=L, shot_noise_asd=cfg.shot_noise_asd,
                             geometric_sensitivity=cfg.geometric_sensitivity_a),
        det_b=DetectorConfig(L=L, shot_noise_asd=cfg.shot_noise_asd,
                             geometric_sensitivity=cfg.geometric_sensitivity_b),
        rho_geom=float(cfg.rho_geom),
    )
    welch = WelchParams(
        segment_length=cfg.segment_length,
        overlap_fraction=float(cfg.overlap_fraction),
        window=cfg.window,
    )

    a, b = simulate_dual(det, duration=float(cfg.duration),
                         sample_rate=float(cfg.sample_rate),
                         seed=cfg.seed, method=cfg.method)
    csd = welch_csd(a, b, welch)
    psd_a, psd_b = csd.psds
    coh = coherence_from_csd(csd)
    corr = cross_correlation(a, b, cfg.max_lag)
    detect = detection_significance(csd, spec, cfg.band)

    resolved = asdict(cfg)
    meta = {"config": resolved, "generator": f"holonoise {__version__} run",
            "seed": cfg.seed}
    model_one_sided = np.asarray(one_sided_psd(spec, psd_a.frequencies))
    # made only now, so that a run rejected at any stage leaves nothing behind
    outdir.mkdir(parents=True, exist_ok=True)
    hio.write_table_csv(outdir / "psd_a.csv", {
        "f_hz": psd_a.frequencies, "psd_m2_hz": psd_a.values,
        "sigma_m2_hz": psd_a.sigma, "model_geometric_m2_hz": model_one_sided,
    }, dict(meta, kind="psd_a", n_segments=psd_a.n_segments))
    hio.write_table_csv(outdir / "psd_b.csv", {
        "f_hz": psd_b.frequencies, "psd_m2_hz": psd_b.values,
        "sigma_m2_hz": psd_b.sigma, "model_geometric_m2_hz": model_one_sided,
    }, dict(meta, kind="psd_b", n_segments=psd_b.n_segments))
    hio.write_table_csv(outdir / "csd.csv", {
        "f_hz": csd.frequencies, "csd_m2_hz": csd.values,
        "sigma_re_m2_hz": csd.sigma, "model_geometric_m2_hz": model_one_sided,
    }, dict(meta, kind="csd", n_segments=csd.n_segments))
    hio.write_table_csv(outdir / "coherence.csv", {
        "f_hz": coh.frequencies, "coherence": coh.values,
    }, dict(meta, kind="coherence", n_segments=coh.n_segments))
    hio.write_table_csv(outdir / "correlation.csv", {
        "lag_s": corr.lags, "covariance_m2": corr.covariance,
        "normalized": corr.normalized, "sigma_m2": corr.sigma_band,
        "model_m2": float(det.rho_geom)
        * np.asarray(analytic_autocorrelation(spec, corr.lags)),
    }, dict(meta, kind="correlation",
            n_samples_effective=corr.n_samples_effective))

    summary = {
        "config": resolved,
        "package_version": __version__,
        "f_c_hz": spec.f_c,
        "first_zero_hz": float(spec.zeros(1)[0]),
        "coherence_time_s": spec.coherence_time,
        "plateau_two_sided_m2_hz": spec.plateau,
        "band_hz": cfg.band,
        "n_bins": detect.n_bins,
        "n_segments": csd.n_segments,
        "amplitude_fit": detect.amplitude_fit,
        "amplitude_se": detect.amplitude_se,
        "snr": detect.snr,
        "variance_a_m2": float(np.var(a.values)),
        "variance_b_m2": float(np.var(b.values)),
        "model_variance_m2": spec.total_variance,
    }
    hio.write_summary_json(outdir / "summary.json", summary)
    print(f"amplitude_fit = {detect.amplitude_fit:.4f} "
          f"+- {detect.amplitude_se:.4f}  (snr = {detect.snr:.2f}), "
          f"outputs in {outdir}")
    return 0


# ------------------------------------------------------------------ verify


def _verify_checks(n_boosts: int) -> list[tuple[str, float, float, float, bool]]:
    """Each entry: (name, computed, expected, tolerance, passed)."""
    k = CONSTANTS
    spec = HolographicSpectrum(40.0)
    checks: list[tuple[str, float, float, float, bool]] = []

    def rel(name, computed, expected, tol):
        err = abs(computed - expected) / max(abs(expected), 1e-300)
        checks.append((name, computed, expected, tol, err <= tol))

    def absolute(name, computed, expected, tol):
        checks.append((name, computed, expected, tol,
                       abs(computed - expected) <= tol))

    rel("planck_length_time_consistency", k.c * k.t_P, k.l_P, 1e-12)
    rel("planck_units_consistency", k.m_P * k.c**2 * k.t_P, k.hbar, 1e-3)
    absolute("levi_civita_reference", levi_civita4(1, 2, 3, 0), 1.0, 0.0)
    absolute("levi_civita_transposition", levi_civita4(2, 1, 3, 0), -1.0, 0.0)
    absolute("levi_civita_repeat", levi_civita4(1, 1, 3, 0), 0.0, 0.0)

    x_lab = np.array([0.0, 0.0, 0.0, 40.0])
    u_rest = np.array([1.0, 0.0, 0.0, 0.0])
    cmat = commutator_tensor(x_lab, u_rest)
    rel("commutator_lab_12", cmat[1, 2], 40.0 * k.l_P, 1e-12)
    inactive = max(abs(cmat[m, n]) for m in range(4) for n in range(4)
                   if m in (0, 3) or n in (0, 3))
    absolute("commutator_lab_inactive_entries", inactive, 0.0, 0.0)
    absolute("commutator_antisymmetry",
             float(np.max(np.abs(cmat + cmat.T))), 0.0, 0.0)

    rng = np.random.default_rng(20260811)
    reduction = 0.0
    for _ in range(20):
        x3 = rng.normal(0.0, 50.0, 3)
        c4 = commutator_tensor(np.concatenate([[0.0], x3]), u_rest)
        c3 = rest_frame_commutator(x3)
        scale = max(float(np.max(np.abs(c3))), 1e-300)
        reduction = max(reduction, float(np.max(np.abs(c4[1:, 1:] - c3))) / scale)
    absolute("rest_frame_reduction_rel", reduction, 0.0, 1e-15)

    worst = 0.0
    for _ in range(n_boosts):
        lam = random_boost(rng)
        x4 = rng.normal(0.0, 50.0, 4)
        u4 = (lam if rng.random() < 0.5 else boost_matrix(
            rng.uniform(-0.57, 0.57, 3))) @ u_rest
        c0 = commutator_tensor(x4, u4)
        norm = max(float(np.max(np.abs(c0))), 1e-300)
        worst = max(worst, covariance_residual(x4, u4, lam) / norm)
    absolute(f"lorentz_covariance_residual_{n_boosts}_boosts", worst, 0.0, 1e-10)

    rel("uncertainty_bound_40m_12", uncertainty_bound([0, 0, 40.0], 1, 2),
        3.232e-34, 1e-6)
    rel("transverse_rms_40m",
        float(np.sqrt(uncertainty_bound([0, 0, 40.0], 1, 2))), 1.8e-17, 0.01)
    rel("angular_bound_40m", angular_uncertainty_bound(40.0), 2.02e-37, 1e-6)
    rel("heisenberg_planck_mass_1s", heisenberg_variance_bound(k.m_P, 1.0),
        2.0 * k.c**2 * k.t_P, 1e-12)
    tau = spec.coherence_time
    rel("heisenberg_crossover_at_2mP",
        heisenberg_variance_bound(2.0 * k.m_P, tau), k.c * tau * k.l_P, 1e-12)
    counts = dof_counts(40.0)
    rel("dof_holography", counts.n_total,
        counts.n_radial * counts.n_transverse, 0.0)
    rel("dof_radial_40m", counts.n_radial, 2.475e36, 1e-3)
    est = scale_estimates(5.0)
    cm_per_year = est.v_equivalent * SECONDS_PER_YEAR * 100.0
    absolute("equivalent_speed_5m_cm_per_yr_vs_1", cm_per_year, 1.0, 2.0)
    rel("excursion_rms_4m", scale_estimates(4.0).excursion_rms, 1.137e-17, 1e-3)
    rel("planck_energy_tev", est.n_tev, 1.22e16, 0.01)

    rel("critical_frequency_40m_vs_6e5", spec.f_c, 6.0e5, 0.01)
    rel("first_zero_40m_vs_3.75mhz", float(spec.zeros(1)[0]), 3.75e6, 1e-3)
    rel("plateau_40m", spec.plateau, 2.196e-40, 1e-3)
    rel("plateau_approach_1hz", float(analytic_psd(spec, 1.0)), spec.plateau,
        1e-6)
    zero_resid = max(
        float(analytic_psd(spec, float(z))) / spec.plateau
        for z in spec.zeros(3)
    )
    absolute("spectral_zeros_rel_plateau", zero_resid, 0.0, 1e-6)
    ratio = (float(envelope_high_f(spec, 2e6)) / float(envelope_high_f(spec, 1e6)))
    absolute("envelope_inverse_square", ratio, 0.25, 1e-9)
    rel("autocorrelation_peak_40m",
        float(analytic_autocorrelation(spec, 0.0)), 8.23e-34, 1e-3)
    absolute("autocorrelation_cutoff",
             float(analytic_autocorrelation(spec, spec.coherence_time)), 0.0, 0.0)
    rel("autocorrelation_midpoint",
        float(analytic_autocorrelation(spec, spec.coherence_time / 2.0)),
        spec.total_variance / 2.0, 1e-12)

    # numeric cosine transform of the triangle must reproduce the spectrum
    tau_grid = np.linspace(0.0, spec.coherence_time, 4097)
    tri = np.asarray(analytic_autocorrelation(spec, tau_grid))
    f_grid = np.linspace(0.0, 10.0 * spec.f_c, 33)
    worst_ft = 0.0
    for f in f_grid:
        numeric = 2.0 * np.trapezoid(tri * np.cos(2 * np.pi * f * tau_grid),
                                     tau_grid)
        worst_ft = max(worst_ft,
                       abs(numeric - float(analytic_psd(spec, float(f))))
                       / spec.plateau)
    absolute("fourier_pair_consistency", worst_ft, 0.0, 1e-3)

    rel("time_average_10_coherence_times",
        time_averaged_ms_displacement(spec, 10.0 * spec.coherence_time),
        spec.total_variance / 10.0, 1e-12)
    rel("time_average_1s", time_averaged_ms_displacement(spec, 1.0),
        2.196e-40, 1e-3)
    return checks


def cmd_verify(args) -> int:
    if args.boosts < 1:
        raise ConfigurationError(f"--boosts must be at least 1, got {args.boosts}")
    checks = _verify_checks(args.boosts)
    width = max(len(name) for name, *_ in checks)
    failures = 0
    for name, computed, expected, tol, ok in checks:
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{status}  {name:<{width}}  computed={computed:.6e}  "
              f"expected={expected:.6e}  tol={tol:g}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
