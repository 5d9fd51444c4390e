"""Command-line front end.

Subcommands:

* ``spectrum``  tabulate the predicted displacement spectrum for one arm length
* ``synth``     generate a noise record and write it to disk
* ``run``       write the six files of ``pipeline.run_pipeline`` for the
                ``RunConfig`` merged from defaults, a JSON file and flags
* ``verify``    print a pass/fail report of the model's numeric identities

Exit status: 0 on success, 1 when ``verify`` finds a failing check, 2 on
usage, configuration or file errors.  Every command is a deterministic function of
its configuration and seed; reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

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
# Unused here; perfbench/tracing.py wraps these names in this module too:
# simulate_dual, welch_psd, welch_csd, coherence, cross_correlation,
# detection_significance and one_sided_psd.
from .analysis import (  # noqa: F401
    coherence,
    cross_correlation,
    detection_significance,
    welch_csd,
    welch_psd,
)
from .errors import (ConfigurationError, check_fits_in_memory,
                     check_positive_finite)
from .interferometer import simulate_dual  # noqa: F401
from .noise_model import (
    HolographicSpectrum,
    analytic_autocorrelation,
    analytic_psd,
    envelope_high_f,
    time_averaged_ms_displacement,
)
from .noise_model import one_sided_psd  # noqa: F401
from .pipeline import RunConfig, run_pipeline
from .synthesis import METHODS, SynthesisConfig, record_psd, synthesize
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
        kwargs = dict(f.metadata["argparse"])
        if f.metadata["types"] == (bool,):
            kwargs["action"] = argparse.BooleanOptionalAction
        for i, flag in enumerate(flags):
            item = {"const": i, "action": _PairItem} if len(flags) > 1 else {}
            p.add_argument(flag, dest=f.name, default=None, help=text,
                           **kwargs, **item)
    p.add_argument("--outdir", default=None,
                   help=f"output directory (default: ${OUTDIR_ENV} or .)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="numeric identity report")
    p.add_argument("--boosts", type=int, default=100,
                   help="random transforms in the covariance sweep")
    p.set_defaults(func=cmd_verify)
    return parser


# ---------------------------------------------------------------- spectrum

#: Peak resident bytes per table row of `spectrum`, by format, written in
#: blocks of rows: the slope of a fresh process's peak RSS with one spectral
#: zero per row, 73 (CSV, 250,000 to 500,000 rows) and 58-60 (JSON, 125,000
#: to 250,000; 42 from 250,000 to 500,000).
_BYTES_PER_POINT = {"csv": 100, "json": 75}


def cmd_spectrum(args) -> int:
    check_positive_finite("--f-max", args.f_max)
    if not 0.0 <= args.f_min < args.f_max:
        raise ConfigurationError(
            f"--f-min must lie in [0, f-max), got {args.f_min}"
        )
    if args.n_points < 2:
        raise ConfigurationError("--n-points must be at least 2")
    check_fits_in_memory("--n-points", args.n_points, args.n_points,
                         _BYTES_PER_POINT[args.format])
    spec = HolographicSpectrum(args.arm_length)
    # near the float maximum only the last point, set to f_max, overflows
    with np.errstate(over="ignore"):
        f = np.linspace(args.f_min, args.f_max, args.n_points)
    psd2 = np.asarray(analytic_psd(spec, f))
    envelope = np.full_like(f, np.nan)
    above = f > spec.f_c
    if np.any(above):
        envelope[above] = envelope_high_f(spec, f[above])
    # at most one zero per table row, so the metadata never outgrows the table
    n_zeros = int(max(min(args.f_max / float(spec.zeros(1)[0]),
                          args.n_points), 1))
    zeros = spec.zeros(n_zeros)
    zeros = zeros[zeros <= args.f_max]
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
    if args.format == "csv":
        hio._write_rows(args.output or sys.stdout, columns,
                        dict(meta, zeros_hz=zeros.tolist()), "%.12e")
    else:
        # null where the CSV leaves a cell empty: strict JSON has no NaN
        hio._write_json(args.output or sys.stdout, dict(meta, **columns))
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
    write = (hio.write_timeseries_csv if args.format == "csv"
             else hio.write_timeseries_bin)
    write(args.output, ts, seed=cfg.seed, metadata=meta)
    print(f"wrote {args.output}: {ts.n} samples at {ts.sample_rate:g} Hz")
    return 0


# --------------------------------------------------------------------- run

def resolve_run_config(args) -> RunConfig:
    """Defaults, then config file, then command-line flags; RunConfig checks them."""
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
    unknown = [f"unknown field {key!r}" for key in values if key not in names]
    if unknown:
        raise ConfigurationError("invalid configuration: " + "; ".join(unknown))
    return RunConfig(**values)


def cmd_run(args) -> int:
    cfg = resolve_run_config(args)
    outdir = Path(args.outdir if args.outdir is not None else _default_outdir())
    result = run_pipeline(cfg)
    cfg, spec, csd = result.config, result.spectrum, result.csd
    coh, corr, detect = result.coherence, result.correlation, result.detection

    resolved = asdict(cfg)
    meta = {"config": resolved, "generator": f"holonoise {__version__} run",
            "seed": cfg.seed}
    model_one_sided = record_psd(spec, cfg.sample_rate, cfg.method,
                                 csd.frequencies)
    # made only now, so that a run rejected at any stage leaves nothing behind
    outdir.mkdir(parents=True, exist_ok=True)
    for kind, psd in zip(("psd_a", "psd_b"), csd.psds):
        hio.write_table_csv(outdir / f"{kind}.csv", {
            "f_hz": psd.frequencies, "psd_m2_hz": psd.values,
            "sigma_m2_hz": psd.sigma, "model_geometric_m2_hz": model_one_sided,
        }, dict(meta, kind=kind, n_segments=psd.n_segments))
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
        "model_m2": float(cfg.rho_geom)
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
        "variance_a_m2": corr.variance_a,
        "variance_b_m2": corr.variance_b,
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
