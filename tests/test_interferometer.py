import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonoise import (
    DetectorConfig,
    DualDetectorConfig,
    HolographicSpectrum,
    RunConfig,
    SynthesisConfig,
    WelchParams,
    analytic_autocorrelation,
    cross_correlation,
    default_shot_asd,
    one_sided_psd,
    simulate_detector,
    simulate_dual,
    stream_dual,
    welch_csd,
    welch_psd,
)
from holonoise import _threads, interferometer, synthesis
from holonoise.errors import ConfigurationError
from holonoise.synthesis import _BLOCK, channel_seed, synthesize

from conftest import band_means, integer_boxcar_rate, octave_edges

L = 40.0
FS = integer_boxcar_rate(L, width=32)
SPEC = HolographicSpectrum(L)
SHOT = default_shot_asd(L)


def dual_cfg(rho, shot=SHOT, sens_a=True, sens_b=True, L_b=L):
    return DualDetectorConfig(
        det_a=DetectorConfig(L=L, shot_noise_asd=shot,
                             geometric_sensitivity=sens_a),
        det_b=DetectorConfig(L=L_b, shot_noise_asd=shot,
                             geometric_sensitivity=sens_b),
        rho_geom=rho,
    )


class TestConfigs:
    def test_default_shot_floor(self):
        # three times the one-sided plateau amplitude
        assert_allclose(SHOT, 3 * np.sqrt(2 * SPEC.plateau), rtol=1e-12)
        assert_allclose(SHOT, 6.2875e-20, rtol=1e-4)

    def test_detector_validation(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(L=-1.0, shot_noise_asd=0.0)
        with pytest.raises(ConfigurationError):
            DetectorConfig(L=1.0, shot_noise_asd=-1e-20)

    def test_rho_range(self):
        with pytest.raises(ConfigurationError):
            dual_cfg(rho=1.5)
        with pytest.raises(ConfigurationError):
            dual_cfg(rho=-0.1)

    def test_mismatched_arms_rejected_when_correlated(self):
        with pytest.raises(ConfigurationError):
            dual_cfg(rho=0.5, L_b=80.0)
        dual_cfg(rho=0.0, L_b=80.0)

    @pytest.mark.parametrize("valid, field, bad", [
        (WelchParams(), "segment_length", 8),
        (DetectorConfig(L=L, shot_noise_asd=SHOT), "shot_noise_asd", -1.0),
        (dual_cfg(rho=1.0), "rho_geom", 1.5),
        (SynthesisConfig(L=L, sample_rate=FS, n_samples=2**14, seed=0),
         "sample_rate", 3.9 * float(SPEC.zeros(1)[0])),
        (SynthesisConfig(L=L, sample_rate=FS, n_samples=2**14, seed=0),
         "seed", -1),
        (SynthesisConfig(L=L, sample_rate=FS, n_samples=2**14, seed=0),
         "seed", 1.9),
        (RunConfig(), "seed", "x"),
        (RunConfig(), "band", [True, 1e6]),
        (RunConfig(), "band", [math.inf, 1.0]),
    ])
    def test_replace_cannot_build_invalid_config(self, valid, field, bad):
        # every config checks its invariants when built, also by replace()
        assert replace(valid) == valid
        with pytest.raises(ConfigurationError, match=field):
            replace(valid, **{field: bad})

    def test_duration_too_short(self):
        with pytest.raises(ConfigurationError):
            simulate_detector(DetectorConfig(L=L, shot_noise_asd=SHOT),
                              duration=1e-6, sample_rate=FS, seed=1)
        with pytest.raises(ConfigurationError):
            simulate_dual(dual_cfg(rho=1.0, sens_a=False, sens_b=False),
                          duration=1e-6, sample_rate=FS, seed=1)


class TestSingleDetector:
    def test_geometric_only_matches_model(self):
        cfg = DetectorConfig(L=L, shot_noise_asd=0.0)
        edges = octave_edges(SPEC.f_c / 10, 3 * float(SPEC.zeros(1)[0]))
        acc = None
        p = WelchParams(segment_length=4096)
        for seed in range(40):
            ts = simulate_detector(cfg, duration=2**17 / FS, sample_rate=FS,
                                   seed=seed)
            est = welch_psd(ts, p)
            acc = est.values if acc is None else acc + est.values
        mean = acc / 40
        model = np.asarray(one_sided_psd(SPEC, est.frequencies))
        assert_allclose(band_means(est.frequencies, mean, edges),
                        band_means(est.frequencies, model, edges), rtol=0.05)

    def test_shot_only_flat(self):
        cfg = DetectorConfig(L=L, shot_noise_asd=SHOT,
                             geometric_sensitivity=False)
        ts = simulate_detector(cfg, duration=2**20 / FS, sample_rate=FS, seed=4)
        est = welch_psd(ts, WelchParams(segment_length=1024))
        # skip the DC bin, which is not doubled in the one-sided convention
        level = np.mean(est.values[1:])
        assert abs(level / SHOT**2 - 1.0) < 0.05

    def test_variance_additivity(self):
        cfg = DetectorConfig(L=L, shot_noise_asd=SHOT)
        ts = simulate_detector(cfg, duration=2**20 / FS, sample_rate=FS, seed=9)
        expected = SPEC.total_variance + SHOT**2 / 2.0 * FS
        assert abs(np.var(ts.values) / expected - 1.0) < 0.05


    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    @pytest.mark.parametrize("sensitive", [True, False])
    @pytest.mark.parametrize("shot", [SHOT, 0.0])
    def test_is_detector_a_of_dual(self, method, sensitive, shot):
        det_a = DetectorConfig(L=L, shot_noise_asd=shot,
                               geometric_sensitivity=sensitive)
        run = dict(duration=2**14 / FS, sample_rate=FS, seed=6, method=method)
        single = simulate_detector(det_a, **run)
        for det_b, rho in [(DetectorConfig(L=L, shot_noise_asd=SHOT), 1.0),
                           (DetectorConfig(L=L, shot_noise_asd=0.0), 0.3),
                           (DetectorConfig(L=80.0, shot_noise_asd=SHOT,
                                           geometric_sensitivity=False), 0.0)]:
            a, _ = simulate_dual(DualDetectorConfig(det_a, det_b, rho), **run)
            assert np.array_equal(single.values, a.values)
            assert single.sample_rate == a.sample_rate


class TestRecordLayout:
    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("sens_a", [True, False])
    @pytest.mark.parametrize("sens_b", [True, False])
    @pytest.mark.parametrize("shot", [0.0, SHOT], ids=["no_shot", "shot"])
    def test_records_are_the_planned_sums(self, monkeypatch, method, rho,
                                          sens_a, sens_b, shot):
        # A = g + n_A and B = (sqrt(1 - rho^2) g' + rho g) + n_B, in that
        # order of operations, from the component streams of the run's
        # substreams, over records of more than one chunk
        seed, n = 4, 5 * _BLOCK // 2

        def geometric(channel):
            return synthesize(SynthesisConfig(
                L=L, sample_rate=FS, n_samples=n,
                seed=channel_seed(seed, channel), method=method)).values

        def shot_noise(channel):
            normals = np.empty(n)
            synthesis._fill_normal(normals, seed, channel, 0)
            return normals * (shot * np.sqrt(FS / 2.0))

        g = geometric(interferometer.CH_GEOM_SHARED)
        want_a = ((g if sens_a else 0.0)
                  + shot_noise(interferometer.CH_SHOT_A))
        want_b = ((np.sqrt(1.0 - rho**2)
                   * geometric(interferometer.CH_GEOM_INDEP) + rho * g
                   if sens_b else 0.0)
                  + shot_noise(interferometer.CH_SHOT_B))
        cfg = dual_cfg(rho, shot=shot, sens_a=sens_a, sens_b=sens_b)
        run = dict(duration=n / FS, sample_rate=FS, seed=seed, method=method)
        monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", 1)
        pairs = list(stream_dual(cfg, **run))
        assert len(pairs) > 1
        streamed = [np.concatenate([ts.values for ts in part])
                    for part in zip(*pairs)]
        whole = [ts.values for ts in simulate_dual(cfg, **run)]
        for got in (streamed, whole):
            assert np.array_equal(got[0], want_a)
            assert np.array_equal(got[1], want_b)

    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    @pytest.mark.parametrize("rho, sens_a", [(1.0, True), (0.5, True),
                                             (1.0, False)])
    def test_does_not_depend_on_cpu_count(self, monkeypatch, method, rho,
                                          sens_a):
        # three blocks and a remainder
        run = dict(duration=(3 * _BLOCK + 1237) / FS, sample_rate=FS, seed=8,
                   method=method)
        pairs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_threads, "workers",
                                lambda samples, workers=workers: workers)
            pairs.append(simulate_dual(dual_cfg(rho, sens_a=sens_a), **run))
        for a, b in pairs[1:]:
            assert np.array_equal(a.values, pairs[0][0].values)
            assert np.array_equal(b.values, pairs[0][1].values)

    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    def test_rho_one_pair_holds_two_records(self, held_peak, method):
        # detector A is built in the shared geometric record's buffer, and
        # the spectral filter's work arrays are of a block, not a record
        n = 2**20
        peak = held_peak(lambda: simulate_dual(
            dual_cfg(rho=1.0), duration=n / FS, sample_rate=FS, seed=2,
            method=method))
        assert peak < 2.25 * 8 * n

    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    def test_single_detector_holds_no_second_record(self, held_peak,
                                                    method):
        n = 2**18
        synth = SynthesisConfig(L=L, sample_rate=FS, n_samples=n,
                                seed=channel_seed(2, 0), method=method)
        synthesis_peak = held_peak(lambda: synthesize(synth))
        peak = held_peak(lambda: simulate_detector(
            DetectorConfig(L=L, shot_noise_asd=SHOT), duration=n / FS,
            sample_rate=FS, seed=2, method=method))
        assert peak <= synthesis_peak + 0.5 * 8 * n

class TestDualDetector:
    def test_rho_one_no_shot_identical(self):
        a, b = simulate_dual(dual_cfg(rho=1.0, shot=0.0), duration=2**14 / FS,
                             sample_rate=FS, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_determinism_and_stream_independence(self):
        a1, b1 = simulate_dual(dual_cfg(rho=1.0), duration=2**14 / FS,
                               sample_rate=FS, seed=3)
        a2, b2 = simulate_dual(dual_cfg(rho=1.0), duration=2**14 / FS,
                               sample_rate=FS, seed=3)
        assert np.array_equal(a1.values, a2.values)
        assert np.array_equal(b1.values, b2.values)
        # changing detector B's shot noise leaves A's stream untouched
        a3, b3 = simulate_dual(
            DualDetectorConfig(det_a=DetectorConfig(L=L, shot_noise_asd=SHOT),
                               det_b=DetectorConfig(L=L, shot_noise_asd=2 * SHOT),
                               rho_geom=1.0),
            duration=2**14 / FS, sample_rate=FS, seed=3)
        assert np.array_equal(a1.values, a3.values)
        assert not np.array_equal(b1.values, b3.values)

    def test_rho_zero_null_cross_spectrum(self):
        a, b = simulate_dual(dual_cfg(rho=0.0), duration=2**19 / FS,
                             sample_rate=FS, seed=12)
        est = welch_csd(a, b, WelchParams(segment_length=2048))
        pulls = np.real(est.values) / est.sigma
        assert np.mean(np.abs(pulls) < 3.0) > 0.99
        assert abs(np.mean(pulls)) < 0.2

    def test_sensitivity_off_kills_cross_spectrum(self):
        a, b = simulate_dual(dual_cfg(rho=1.0, sens_b=False),
                             duration=2**19 / FS, sample_rate=FS, seed=13)
        est = welch_csd(a, b, WelchParams(segment_length=2048))
        pulls = np.real(est.values) / est.sigma
        assert np.mean(np.abs(pulls) < 3.0) > 0.99

    def test_rho_one_cross_spectrum_recovers_model(self):
        # geometric signal 10x below the shot floor in power, recovered by
        # averaging ~8000 segments of cross-spectrum, streamed: a band mean
        # of ~1000 segments scatters by 8-9 % from record to record, so
        # 10 % was 1.2 standard deviations, and 3.5 with 8 times as many
        duration = 2**24 / FS
        p = WelchParams(segment_length=4096)
        est = welch_csd(stream_dual(dual_cfg(rho=1.0), duration=duration,
                                    sample_rate=FS, seed=14), p=p)
        model = np.asarray(one_sided_psd(SPEC, est.frequencies))
        edges = np.array([SPEC.f_c / 10, SPEC.f_c, 2 * SPEC.f_c])
        got = band_means(est.frequencies, np.real(est.values), edges)
        want = band_means(est.frequencies, model, edges)
        assert_allclose(got, want, rtol=0.10)
        # individual spectra sit on the shot floor instead
        psd_a = est.psds[0]
        got_a = band_means(psd_a.frequencies, psd_a.values, edges)
        want_a = band_means(psd_a.frequencies, model + SHOT**2, edges)
        assert_allclose(got_a, want_a, rtol=0.05)

    def test_imaginary_part_consistent_with_zero(self):
        a, b = simulate_dual(dual_cfg(rho=1.0), duration=2**20 / FS,
                             sample_rate=FS, seed=15)
        est = welch_csd(a, b, WelchParams(segment_length=2048))
        pulls = np.imag(est.values) / est.sigma
        assert np.mean(np.abs(pulls) < 3.0) > 0.99

    def test_intermediate_rho_scales_cross_spectrum(self):
        rho = 0.5
        a, b = simulate_dual(dual_cfg(rho=rho, shot=0.0),
                             duration=2**20 / FS, sample_rate=FS, seed=16)
        est = welch_csd(a, b, WelchParams(segment_length=2048))
        model = np.asarray(one_sided_psd(SPEC, est.frequencies))
        edges = np.array([SPEC.f_c / 10, SPEC.f_c])
        got = band_means(est.frequencies, np.real(est.values), edges)
        want = rho * band_means(est.frequencies, model, edges)
        assert_allclose(got, want, rtol=0.10)

    def test_lag_correlation_vanishes_beyond_round_trip(self):
        a, b = simulate_dual(dual_cfg(rho=1.0), duration=2**21 / FS,
                             sample_rate=FS, seed=19)
        corr = cross_correlation(welch_csd(a, b),
                                 max_lag=4 * SPEC.coherence_time)
        mid = corr.lags.size // 2
        outside = np.abs(corr.lags) > SPEC.coherence_time + 1.0 / FS
        # a family-wise bound: under the null all m lags lie within z sigma
        # with probability (1 - p)^m, p = 2 (1 - Phi(z)), for independent
        # lags and more for positively correlated ones; Sidak's z makes
        # that 1 - alpha
        alpha, m = 0.01, int(np.sum(outside))
        z = NormalDist().inv_cdf(1.0 - (1.0 - (1.0 - alpha) ** (1.0 / m)) / 2)
        assert np.all(np.abs(corr.covariance[outside])
                      < z * corr.sigma_band[outside])
        # the peak remains the geometric covariance despite the shot floor
        assert abs(corr.covariance[mid] - SPEC.total_variance) \
            < 3.0 * corr.sigma_band[mid]

    def test_geometric_triangle_recovered(self):
        a, b = simulate_dual(dual_cfg(rho=1.0, shot=0.0),
                             duration=2**21 / FS, sample_rate=FS, seed=18,
                             method="boxcar")
        corr = cross_correlation(welch_csd(a, b),
                                 max_lag=2 * SPEC.coherence_time)
        model = np.asarray(analytic_autocorrelation(SPEC, corr.lags))
        assert np.all(np.abs(corr.covariance - model) < 3.0 * corr.sigma_band)
