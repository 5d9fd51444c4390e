"""Acceptance suite: one test per release criterion, printed as it passes.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Criteria 3 and 5 are statistical and run with fixed seeds; together they take
a couple of minutes.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import holonoise as hn
from holonoise.algebra import CONSTANTS, SECONDS_PER_YEAR, random_boost
from holonoise.cli import main as cli_main

from conftest import band_means, integer_boxcar_rate, octave_edges

L = 40.0
SPEC = hn.HolographicSpectrum(L)
C0 = SPEC.total_variance
T_COH = SPEC.coherence_time


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_characteristic_frequencies():
    f_c = SPEC.f_c
    first_zero = float(SPEC.zeros(1)[0])
    assert_allclose(f_c, 5.964e5, rtol=1e-4)
    assert abs(f_c / 6.0e5 - 1.0) < 0.01          # quoted as 6e5
    assert_allclose(first_zero, CONSTANTS.c / 80.0, rtol=1e-12)
    assert_allclose(first_zero, 3.7474e6, rtol=1e-4)
    assert abs(first_zero / 3.75e6 - 1.0) < 1e-3  # quoted as 3.75 MHz
    report(1, f"f_c = {f_c:.4e} Hz (~6e5), first zero = {first_zero:.4e} Hz "
              "(~3.75 MHz)")


def test_criterion_2_spectrum_shape_suite():
    # plateau within 1% below f_c / 20
    f = np.linspace(0.0, SPEC.f_c / 20.0, 3001)
    psd = np.asarray(hn.analytic_psd(SPEC, f))
    assert np.max(np.abs(psd / SPEC.plateau - 1.0)) < 0.01

    # zeros at multiples of c/2L, to 1e-6 of the plateau
    for n in (1, 2, 3):
        z = n * CONSTANTS.c / (2 * L)
        assert float(hn.analytic_psd(SPEC, z)) <= 1e-6 * SPEC.plateau

    # inverse-square envelope via ratio test
    for f0 in (1e6, 3e6, 1e7, 5e7):
        ratio = float(hn.envelope_high_f(SPEC, 2 * f0)) / float(
            hn.envelope_high_f(SPEC, f0))
        assert abs(ratio - 0.25) <= 1e-9

    # numeric inverse Fourier transform of the spectrum reproduces the
    # triangle, including the cutoff at exactly 2L/c, to 0.1% of the peak
    f_max = 1.0e9
    f_grid = np.linspace(0.0, f_max, 2**21 + 1)
    s = np.asarray(hn.analytic_psd(SPEC, f_grid))
    taus = np.concatenate([
        np.linspace(0.0, T_COH, 17),
        np.linspace(1.02 * T_COH, 2.0 * T_COH, 8),
    ])
    worst = 0.0
    for tau in taus:
        numeric = 2.0 * np.trapezoid(s * np.cos(2 * np.pi * f_grid * tau),
                                     f_grid)
        expected = float(hn.analytic_autocorrelation(SPEC, float(tau)))
        worst = max(worst, abs(numeric - expected) / C0)
    assert worst < 1e-3
    report(2, f"plateau/zeros/envelope verified; inverse transform matches "
              f"the 2L/c triangle to {worst:.2e} of the peak")


def _welch_average(method, realizations, n, fs, seed0, segment):
    params = hn.WelchParams(segment_length=segment)
    acc = None
    for k in range(realizations):
        cfg = hn.SynthesisConfig(L=L, sample_rate=fs, n_samples=n,
                                 seed=seed0 + k, method=method)
        est = hn.welch_psd(hn.synthesize(cfg), params)
        acc = est.values if acc is None else acc + est.values
    return est.frequencies, acc / realizations


def test_criterion_3_synthesis_fidelity():
    fs = integer_boxcar_rate(L, width=32)
    edges = octave_edges(SPEC.f_c / 10.0, 3 * float(SPEC.zeros(1)[0]))

    # averaged Welch spectrum within 5% of the model in every band up to the
    # third zero, for both synthesis routes
    for method, seed0 in (("spectral", 10_000), ("boxcar", 20_000)):
        f, mean_psd = _welch_average(method, realizations=100, n=2**17,
                                     fs=fs, seed0=seed0, segment=8192)
        model = np.asarray(hn.one_sided_psd(SPEC, f))
        got = band_means(f, mean_psd, edges)
        want = band_means(f, model, edges)
        worst = np.max(np.abs(got / want - 1.0))
        assert worst < 0.05, f"{method}: worst band error {worst:.3f}"

    # record variance against the lag-zero autocorrelation
    for method in ("spectral", "boxcar"):
        cfg = hn.SynthesisConfig(L=L, sample_rate=fs, n_samples=2**20,
                                 seed=77, method=method)
        var = float(np.var(hn.synthesize(cfg).values))
        assert abs(var / C0 - 1.0) < 0.10, method

    # time-averaged mean square falls off as 1/tau
    cfg = hn.SynthesisConfig(L=L, sample_rate=fs, n_samples=2**21, seed=88,
                             method="spectral")
    x = hn.synthesize(cfg).values
    width = 32  # samples per coherence time at this rate
    measured, predicted = [], []
    for k in (10, 100):
        w = k * width
        means = x[: (x.size // w) * w].reshape(-1, w).mean(axis=1)
        measured.append(float(np.var(means)))
        predicted.append(hn.time_averaged_ms_displacement(SPEC, k * T_COH))
    for got, want in zip(measured, predicted):
        assert abs(got / want - 1.0) < 0.2
    exponent = (np.log(measured[1]) - np.log(measured[0])) / np.log(10.0)
    assert abs(exponent + 1.0) < 0.1
    report(3, f"both synthesis routes within 5% per band; variance within "
              f"10% of {C0:.3e} m^2; averaging exponent {exponent:.3f}")


def test_criterion_4_algebra_suite():
    rng = np.random.default_rng(2026)
    rest = np.array([1.0, 0.0, 0.0, 0.0])

    # exact antisymmetry
    for _ in range(50):
        c = hn.commutator_tensor(rng.normal(0, 100, 4), random_boost(rng) @ rest)
        assert np.all(c == -c.T)

    # four-dimensional to rest-frame reduction at 1e-15 relative
    for _ in range(50):
        x3 = rng.normal(0, 100, 3)
        c4 = hn.commutator_tensor(np.concatenate([[0.0], x3]), rest)
        c3 = hn.rest_frame_commutator(x3)
        assert_allclose(c4[1:, 1:], c3, rtol=1e-15, atol=0.0)

    # covariance residual over 100 random proper transforms
    worst = 0.0
    for _ in range(100):
        lam = random_boost(rng, beta_max=0.99)
        x = rng.normal(0, 100, 4)
        u = random_boost(rng, beta_max=0.9) @ rest
        norm = float(np.max(np.abs(hn.commutator_tensor(x, u))))
        worst = max(worst, hn.covariance_residual(x, u, lam) / norm)
    assert worst <= 1e-10

    # laboratory-scale numbers
    bound = hn.uncertainty_bound([0.0, 0.0, 40.0], 1, 2)
    assert_allclose(bound, 3.232e-34, rtol=1e-6)
    rms = float(np.sqrt(bound))
    assert abs(rms / 1.8e-17 - 1.0) < 0.01  # the ten-attometer scale

    cm_per_year = hn.scale_estimates(5.0).v_equivalent * SECONDS_PER_YEAR * 100
    assert 1.0 / 3.0 < cm_per_year < 3.0
    report(4, f"antisymmetric, covariant to {worst:.1e}; transverse rms "
              f"{rms:.2e} m; coherent drift {cm_per_year:.2f} cm/yr")


# documented reference configuration for the detection pipeline
REF_FS = 1.6e7
REF_DURATION = 0.1
REF_BAND = (SPEC.f_c / 20.0, 2.0 * SPEC.f_c)
REF_WELCH = hn.WelchParams(segment_length=4096)


def _dual(rho, duration, seed, segment=4096):
    shot = hn.default_shot_asd(L)
    cfg = hn.DualDetectorConfig(
        det_a=hn.DetectorConfig(L=L, shot_noise_asd=shot),
        det_b=hn.DetectorConfig(L=L, shot_noise_asd=shot),
        rho_geom=rho,
    )
    a, b = hn.simulate_dual(cfg, duration=duration, sample_rate=REF_FS,
                            seed=seed)
    csd = hn.welch_csd(a, b, hn.WelchParams(segment_length=segment))
    return a, b, csd


def test_criterion_5_detection_pipeline(tmp_path):
    # amplitude recovery at the documented integration length (0.1 s of
    # 16 MHz data, shot floor 3x the plateau)
    _, _, csd = _dual(rho=1.0, duration=REF_DURATION, seed=101)
    det = hn.detection_significance(csd, SPEC, REF_BAND)
    assert abs(det.amplitude_fit - 1.0) < 0.1

    # the same recovery through the reference CLI configuration (defaults)
    outdir = tmp_path / "reference_run"
    assert cli_main(["run", "--seed", "101", "--outdir", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config"]["duration"] == REF_DURATION
    assert abs(summary["amplitude_fit"] - 1.0) < 0.1

    # null calibration: the fit SNR is standard normal over 500 seeds
    snrs = []
    for seed in range(500):
        _, _, csd0 = _dual(rho=0.0, duration=2**15 / REF_FS, seed=seed,
                           segment=1024)
        snrs.append(hn.detection_significance(csd0, SPEC, REF_BAND).snr)
    snrs = np.asarray(snrs)
    assert abs(np.mean(snrs)) < 0.1
    assert abs(np.var(snrs) - 1.0) < 0.2
    assert np.mean(np.abs(snrs) < 3.0) >= 0.99

    # SNR grows as the square root of the record length
    _, _, csd1 = _dual(rho=1.0, duration=2**19 / REF_FS, seed=42)
    _, _, csd2 = _dual(rho=1.0, duration=2**20 / REF_FS, seed=42)
    r1 = hn.detection_significance(csd1, SPEC, REF_BAND).snr
    r2 = hn.detection_significance(csd2, SPEC, REF_BAND).snr
    assert abs(r2 / r1 - np.sqrt(2.0)) < 0.15 * np.sqrt(2.0)

    # lagged correlation dies beyond the light round trip (266.9 ns)
    a, b, csd3 = _dual(rho=1.0, duration=2**21 / REF_FS, seed=55)
    corr = hn.cross_correlation(a, b, csd3, max_lag=4 * T_COH)
    assert_allclose(T_COH, 266.85e-9, rtol=1e-3)
    outside = np.abs(corr.lags) > T_COH + 1.0 / REF_FS
    assert np.all(np.abs(corr.covariance[outside])
                  < 3.0 * corr.sigma_band[outside])
    mid = corr.lags.size // 2
    assert abs(corr.covariance[mid] - C0) < 3.0 * corr.sigma_band[mid]
    report(5, f"amplitude {det.amplitude_fit:.3f} +- {det.amplitude_se:.3f} "
              f"at {REF_DURATION} s; null snr mean {np.mean(snrs):+.3f}, "
              f"var {np.var(snrs):.3f}; snr ratio per doubling "
              f"{r2 / r1:.3f}; correlation null beyond 266.9 ns")


def test_criterion_6_determinism(tmp_path):
    pairs = []
    for tag in ("x", "y"):
        out = tmp_path / f"ts_{tag}.hnts"
        assert cli_main(["synth", "--n-samples", "32768", "--seed", "9",
                         "-o", str(out)]) == 0
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]

    digests = []
    for tag in ("r1", "r2"):
        outdir = tmp_path / tag
        assert cli_main(["run", "--duration", "0.004", "--seed", "3",
                         "--outdir", str(outdir)]) == 0
        digests.append(b"".join(
            (outdir / name).read_bytes()
            for name in ("psd_a.csv", "psd_b.csv", "csd.csv",
                         "coherence.csv", "correlation.csv", "summary.json")
        ))
    assert digests[0] == digests[1]

    summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
    assert summary["config"]["seed"] == 3
    report(6, "synth and run outputs are byte-identical across reruns")
