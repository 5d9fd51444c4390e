import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonoise import _threads, analysis
from holonoise.analysis import WINDOWS
from holonoise.errors import ConfigurationError
from holonoise import (
    HolographicSpectrum,
    SpectrumEstimate,
    TimeSeries,
    WelchParams,
    band_averages,
    coherence,
    coherence_from_csd,
    cross_correlation,
    detection_significance,
    one_sided_psd,
    welch_csd,
    welch_psd,
)


def white(n, fs=1000.0, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return TimeSeries(sample_rate=fs, values=rng.normal(scale=scale, size=n))


class TestWelchParams:
    def test_defaults(self):
        p = WelchParams()
        assert p.window == "hann"
        assert p.noverlap == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            WelchParams(segment_length=8)
        with pytest.raises(ValueError):
            WelchParams(overlap_fraction=1.0)
        with pytest.raises(ValueError):
            WelchParams(window="flattop")
        # refused when built, not by the first estimate
        for kwargs in (dict(segment_length=256.0),
                       dict(segment_length=256.5),
                       dict(segment_length="256"),
                       dict(overlap_fraction="0.5")):
            (name,) = kwargs
            with pytest.raises(ConfigurationError, match=name):
                WelchParams(**kwargs)
        assert WelchParams(segment_length=np.int64(256)).noverlap == 128


class TestWelchPsd:
    def test_white_noise_normalization(self):
        # unit-variance white noise has one-sided density 2/fs; with 1e4
        # segments every bin sits within 5% and the mean within 1%
        fs = 1000.0
        p = WelchParams(segment_length=256, overlap_fraction=0.0,
                        window="rectangular")
        ts = white(256 * 10000, fs=fs, seed=1)
        est = welch_psd(ts, p)
        assert est.n_segments == 10000
        level = 2.0 / fs
        assert abs(np.mean(est.values[1:-1]) / level - 1.0) < 0.01
        assert np.all(np.abs(est.values[1:-1] / level - 1.0) < 0.05)

    def test_sine_parseval(self):
        fs = 1024.0
        nper = 512
        amp = 3.0
        t = np.arange(nper * 64) / fs
        f0 = 40.0  # bin center: 40 = 20 * (fs/nper)
        ts = TimeSeries(fs, amp * np.sin(2 * np.pi * f0 * t))
        p = WelchParams(segment_length=nper, overlap_fraction=0.0,
                        window="rectangular")
        est = welch_psd(ts, p)
        k0 = int(f0 / est.df)
        peak_power = np.sum(est.values[k0 - 1:k0 + 2]) * est.df
        assert_allclose(peak_power, amp**2 / 2, rtol=1e-9)

    def test_constant_series(self):
        ts = TimeSeries(100.0, np.full(4096, 2.5))
        est = welch_psd(ts, WelchParams(segment_length=256,
                                        window="rectangular"))
        assert est.values[0] > 0
        assert np.all(est.values[1:] < 1e-20 * est.values[0])

    def test_record_shorter_than_segment(self):
        with pytest.raises(ValueError):
            welch_psd(white(100), WelchParams(segment_length=256))

    def test_parseval(self):
        ts = white(2**18, seed=2)
        est = welch_psd(ts, WelchParams(segment_length=1024))
        integral = np.sum(est.values) * est.df
        assert abs(integral / np.var(ts.values) - 1.0) < 0.02

    def test_grid_runs_to_nyquist(self):
        ts = white(4096, fs=2000.0)
        est = welch_psd(ts, WelchParams(segment_length=512))
        assert est.frequencies[0] == 0.0
        assert est.frequencies[-1] == 1000.0
        assert np.all(est.values >= 0.0)

    def test_error_bars_shrink_as_sqrt_segments(self):
        fs = 1000.0
        nper = 256
        p = WelchParams(segment_length=nper, overlap_fraction=0.0,
                        window="rectangular")
        rms = []
        counts = [25, 50, 100, 200, 400]
        for n_seg in counts:
            est = welch_psd(white(nper * n_seg, fs=fs, seed=n_seg), p)
            rms.append(np.sqrt(np.mean((est.values[1:-1] / (2 / fs) - 1) ** 2)))
        slope = np.polyfit(np.log(counts), np.log(rms), 1)[0]
        assert abs(slope + 0.5) < 0.15


class TestWelchCsd:
    def test_self_csd_is_psd(self):
        ts = white(2**14, seed=3)
        p = WelchParams(segment_length=512)
        est = welch_csd(ts, ts, p)
        psd = welch_psd(ts, p)
        assert_allclose(np.real(est.values), psd.values, rtol=1e-12)
        assert np.max(np.abs(np.imag(est.values))) < 1e-12 * np.max(psd.values)

    def test_hermiticity(self):
        a, b = white(2**14, seed=4), white(2**14, seed=5)
        p = WelchParams(segment_length=512)
        ab = welch_csd(a, b, p)
        ba = welch_csd(b, a, p)
        assert_allclose(ab.values, np.conj(ba.values), rtol=1e-12)

    def test_independent_streams_consistent_with_zero(self):
        a, b = white(2**17, seed=6), white(2**17, seed=7)
        est = welch_csd(a, b, WelchParams(segment_length=512))
        pulls = np.real(est.values) / est.sigma
        assert np.mean(np.abs(pulls) < 3.0) > 0.99

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            welch_csd(white(1024, fs=1000.0), white(1024, fs=2000.0))
        with pytest.raises(ValueError):
            welch_csd(white(1024), white(2048))

    def test_malformed_chunks_refused(self):
        # alone, the argument must be an iterable of (a, b) pairs
        ts = white(1024)
        for chunks in (ts, [ts], [(ts,)], [(ts, ts, ts)]):
            with pytest.raises(ValueError, match=r"\(a, b\) pairs"):
                welch_csd(chunks)
        for record in ("x", [ts]):
            with pytest.raises(ValueError):
                welch_psd(record)
        with pytest.raises(ValueError, match="no records"):
            welch_csd([])
        other = white(1024, fs=2000.0)
        with pytest.raises(ValueError, match="sample rates differ"):
            welch_csd([(ts, ts), (other, other)])


class TestCoherence:
    def test_identical_streams(self):
        ts = white(2**14, seed=8)
        est = coherence(ts, ts, WelchParams(segment_length=512))
        assert_allclose(est.values, 1.0, atol=1e-12)

    def test_independent_streams_bias(self):
        # small-sample bias of magnitude-squared coherence is ~1/n_segments
        n_seg = 16
        p = WelchParams(segment_length=256, overlap_fraction=0.0,
                        window="rectangular")
        means = []
        for trial in range(20):
            a = white(256 * n_seg, seed=100 + trial)
            b = white(256 * n_seg, seed=900 + trial)
            means.append(np.mean(coherence(a, b, p).values[1:-1]))
        mean = np.mean(means)
        assert 0.6 / n_seg < mean < 1.6 / n_seg

    def test_range(self):
        a, b = white(2**14, seed=9), white(2**14, seed=10)
        est = coherence(a, b, WelchParams(segment_length=512))
        assert np.all(est.values >= 0.0)
        assert np.all(est.values <= 1.0)

    def test_silent_channel_is_zero(self):
        # zero power in one channel gives zero coherence, not 0/0
        a = white(2**12, seed=11)
        silent = TimeSeries(sample_rate=a.sample_rate, values=np.zeros(a.n))
        est = coherence(a, silent, WelchParams(segment_length=512))
        assert np.array_equal(est.values, np.zeros_like(est.values))

    def test_takes_cross_spectra_only(self):
        a, b = white(2**12, seed=12), white(2**12, seed=13)
        for misuse in (welch_psd(a), coherence(a, b)):
            with pytest.raises(ValueError, match="welch_csd"):
                coherence_from_csd(misuse)


#: Welch parameters of the correlation tests' short records.
LAG_WELCH = WelchParams(segment_length=256)


def correlate(a, b, max_lag, p=LAG_WELCH):
    return cross_correlation(welch_csd(a, b, p), max_lag)


class TestCrossCorrelation:
    def test_matches_direct_computation(self):
        # a double loop over the windowed segments of the mean-free records
        # and their circular lagged products; every lag to 1e-12 of the
        # summed magnitudes of its terms
        rng = np.random.default_rng(11)
        for window in WINDOWS:
            for overlap in (0.0, 0.5):
                for size in (255, 256):
                    p = WelchParams(segment_length=size,
                                    overlap_fraction=overlap, window=window)
                    x = rng.normal(size=5 * size + 17)
                    y = 0.5 * np.roll(x, 3) + rng.normal(size=x.size) + 7.0
                    a, b = TimeSeries(1.0, x), TimeSeries(1.0, y)
                    j_max = size // 4
                    res = correlate(a, b, float(j_max), p)

                    w = analysis._window(p)
                    step = size - p.noverlap
                    lags = range(-j_max, j_max + 1)
                    sums = np.zeros(len(lags))
                    magnitudes = np.zeros(len(lags))
                    x0, y0 = x - x.mean(), y - y.mean()
                    for start in range(0, x.size - size + 1, step):
                        u = w * x0[start:start + size]
                        v = w * y0[start:start + size]
                        for i, j in enumerate(lags):
                            products = u * np.roll(v, -j)
                            sums[i] += np.sum(products)
                            magnitudes[i] += np.sum(np.abs(products))
                    segments = (x.size - size) // step + 1
                    weight = np.array([w[:size - abs(j)] @ w[abs(j):]
                                       for j in lags]) * segments
                    assert np.all(np.abs(res.covariance - sums / weight)
                                  <= 1e-12 * magnitudes / weight), (
                        window, overlap, size)

    def test_autocorrelation_normalization(self):
        # about 1 at zero lag: the windowed estimate against the sample
        # variance; and even
        ts = white(4096, seed=12)
        res = correlate(ts, ts, max_lag=0.02)
        mid = res.lags.size // 2
        assert abs(res.normalized[mid] - 1.0) < 0.05
        assert_allclose(res.normalized, res.normalized[::-1], rtol=1e-10)

    def test_lagged_copy_peaks_at_lag(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=2**14)
        shift = 7
        a = TimeSeries(100.0, x)
        b = TimeSeries(100.0, np.roll(x, shift))
        res = correlate(a, b, max_lag=0.2)
        assert res.lags[np.argmax(res.covariance)] == pytest.approx(shift / 100.0)

    def test_white_null_band_coverage(self):
        # 3-sigma band holds for at least 99% of lags over many realizations
        inside = total = 0
        for trial in range(200):
            a = white(4096, seed=2000 + trial)
            b = white(4096, seed=7000 + trial)
            res = correlate(a, b, max_lag=0.02)
            inside += int(np.sum(np.abs(res.covariance) < 3 * res.sigma_band))
            total += res.lags.size
        assert inside / total > 0.99

    def test_effective_samples_white(self):
        ts = white(2**14, seed=14)
        res = correlate(ts, ts, max_lag=0.02)
        # white noise: every sample is effectively independent
        assert res.n_samples_effective > 0.8 * ts.n

    def test_max_lag_validation(self):
        ts = white(1024)
        csd = welch_csd(ts, ts, LAG_WELCH)
        for max_lag in (0.6 * ts.duration, 1e-9, 0.0, -1.0, np.inf, np.nan,
                        65 / ts.sample_rate):
            with pytest.raises(ConfigurationError, match="max_lag"):
                cross_correlation(csd, max_lag=max_lag)
        # a quarter segment is the longest lag
        with pytest.raises(ConfigurationError, match="segment_length"):
            cross_correlation(csd, max_lag=65 / ts.sample_rate)
        res = cross_correlation(csd, max_lag=64 / ts.sample_rate)
        assert res.lags.size == 129

    def test_mismatched_inputs(self):
        a, b = white(1024), white(2048)
        with pytest.raises(ValueError):
            correlate(a, b, max_lag=0.01)
        # the estimate must be a CSD: a PSD holds no bins 0 and 1
        with pytest.raises(ValueError, match="welch_csd"):
            cross_correlation(welch_csd(a, a, LAG_WELCH).psds[0],
                              max_lag=0.01)


class TestDetectionSignificance:
    def test_exact_model_amplitude_one(self, spec40):
        f = np.linspace(0.0, 4e6, 2049)
        values = np.asarray(one_sided_psd(spec40, f)).astype(complex)
        est = SpectrumEstimate(frequencies=f, values=values, n_segments=100,
                               sample_rate=8e6, params=WelchParams(),
                               kind="csd", sigma=np.ones_like(f))
        res = detection_significance(est, spec40, (1e4, 3e6))
        assert abs(res.amplitude_fit - 1.0) < 1e-6

    def test_band_errors(self, spec40):
        f = np.linspace(0.0, 4e6, 257)
        est = SpectrumEstimate(frequencies=f, values=np.ones_like(f),
                               n_segments=10, sample_rate=8e6,
                               params=WelchParams(), kind="csd",
                               sigma=np.ones_like(f))
        with pytest.raises(ValueError):
            detection_significance(est, spec40, (3e6, 1e4))
        with pytest.raises(ValueError):
            detection_significance(est, spec40, (5e6, 6e6))

    def test_fits_cross_spectra_with_sigma_only(self, spec40):
        a, b = white(8192, fs=8e6, seed=1), white(8192, fs=8e6, seed=2)
        csd = welch_csd(a, b, WelchParams(segment_length=1024))
        for misuse in (csd.psds[0], coherence(a, b),
                       dataclasses.replace(csd, sigma=None)):
            with pytest.raises(ValueError, match="cross-spectrum"):
                detection_significance(misuse, spec40, (1e4, 3e6))
        detection_significance(csd, spec40, (1e4, 3e6))

    def test_null_snr_roughly_standard_normal(self, spec40):
        from holonoise import DetectorConfig, DualDetectorConfig, simulate_dual
        from holonoise.interferometer import default_shot_asd

        fs = 1.6e7
        shot = default_shot_asd(40.0)
        cfg = DualDetectorConfig(
            det_a=DetectorConfig(L=40.0, shot_noise_asd=shot),
            det_b=DetectorConfig(L=40.0, shot_noise_asd=shot),
            rho_geom=0.0,
        )
        p = WelchParams(segment_length=1024)
        band = (spec40.f_c / 20, 2 * spec40.f_c)
        snrs = []
        for seed in range(60):
            a, b = simulate_dual(cfg, duration=2**15 / fs, sample_rate=fs,
                                 seed=seed)
            snrs.append(detection_significance(welch_csd(a, b, p), spec40,
                                               band).snr)
        snrs = np.asarray(snrs)
        assert abs(np.mean(snrs)) < 0.5
        assert 0.5 < np.var(snrs) < 1.7

    def test_snr_grows_with_record_length(self, spec40):
        from holonoise import DetectorConfig, DualDetectorConfig, simulate_dual
        from holonoise.interferometer import default_shot_asd

        fs = 1.6e7
        shot = default_shot_asd(40.0)
        cfg = DualDetectorConfig(
            det_a=DetectorConfig(L=40.0, shot_noise_asd=shot),
            det_b=DetectorConfig(L=40.0, shot_noise_asd=shot),
            rho_geom=1.0,
        )
        p = WelchParams(segment_length=2048)
        band = (spec40.f_c / 20, 2 * spec40.f_c)
        snr = {}
        for n in (2**19, 2**20):
            a, b = simulate_dual(cfg, duration=n / fs, sample_rate=fs, seed=42)
            snr[n] = detection_significance(welch_csd(a, b, p), spec40, band).snr
        ratio = snr[2**20] / snr[2**19]
        assert abs(ratio - np.sqrt(2.0)) < 0.15 * np.sqrt(2.0)


class TestBandAverages:
    def test_band_means(self):
        f = np.arange(0.0, 100.0)
        est = SpectrumEstimate(frequencies=f, values=f.copy(), n_segments=1,
                               sample_rate=200.0, params=WelchParams(),
                               kind="psd")
        centers, means = band_averages(est, [0.0, 50.0, 100.0])
        assert_allclose(means, [24.5, 74.5])

    def test_empty_band_rejected(self):
        f = np.arange(0.0, 100.0)
        est = SpectrumEstimate(frequencies=f, values=f.copy(), n_segments=1,
                               sample_rate=200.0, params=WelchParams(),
                               kind="psd")
        with pytest.raises(ValueError):
            band_averages(est, [200.0, 300.0])
        with pytest.raises(ValueError):
            band_averages(est, [10.0])


@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("segment_length", [256, 255])
@pytest.mark.parametrize("window", ["hann", "rectangular"])
def test_estimators_match_scipy_oracle(window, segment_length, overlap):
    signal = pytest.importorskip("scipy.signal")
    a = white(2**14, seed=30)
    b = TimeSeries(a.sample_rate, 0.5 * a.values + white(2**14, seed=31).values)
    p = WelchParams(segment_length=segment_length, overlap_fraction=overlap,
                    window=window)
    kwargs = dict(fs=a.sample_rate, nperseg=segment_length,
                  noverlap=p.noverlap, detrend=False,
                  window="boxcar" if window == "rectangular" else window)
    f, paa = signal.welch(a.values, **kwargs)
    _, pab = signal.csd(a.values, b.values, **kwargs)
    _, coh = signal.coherence(a.values, b.values, **kwargs)

    psd = welch_psd(a, p)
    assert_allclose(psd.frequencies, f, rtol=1e-12)
    assert_allclose(psd.values, paa, rtol=1e-12)
    assert_allclose(welch_csd(a, b, p).values, pab, rtol=1e-12)
    assert_allclose(coherence(a, b, p).values, coh, rtol=1e-12)



@pytest.mark.parametrize("overlap", [0.0, 0.5])
@pytest.mark.parametrize("segment_length", [256, 255])
@pytest.mark.parametrize("window", ["hann", "rectangular"])
def test_paired_psds_equal_welch_psd(window, segment_length, overlap):
    # the PSDs kept by one paired pass are those of two single passes, bit
    # for bit (255 takes the odd-length path without a Nyquist bin)
    a = white(2**13, seed=32)
    b = TimeSeries(a.sample_rate, 0.5 * a.values + white(2**13, seed=33).values)
    p = WelchParams(segment_length=segment_length, overlap_fraction=overlap,
                    window=window)
    csd = welch_csd(a, b, p)
    for paired, ts in zip(csd.psds, (a, b)):
        single = welch_psd(ts, p)
        assert paired.kind == "psd"
        assert paired.n_segments == single.n_segments == csd.n_segments
        assert np.array_equal(paired.frequencies, single.frequencies)
        assert np.array_equal(paired.values, single.values)
        assert np.array_equal(paired.sigma, single.sigma)
    assert welch_psd(a, p).psds is None


@pytest.mark.parametrize("window, overlap", [("hann", 0.5),
                                             ("rectangular", 0.0)])
@pytest.mark.parametrize("blocks", [0.25, 1, 3.5])
def test_welch_blocks_match_scipy_oracle(window, overlap, blocks):
    # segment counts below one accumulation block, of exactly one, and of
    # several with a partial last block
    signal = pytest.importorskip("scipy.signal")
    p = WelchParams(segment_length=128, overlap_fraction=overlap,
                    window=window)
    n_seg = int(blocks * analysis._WELCH_BLOCK)
    step = p.segment_length - p.noverlap
    n = p.segment_length + (n_seg - 1) * step + step // 2
    a = white(n, seed=40)
    b = TimeSeries(a.sample_rate, 0.5 * a.values + white(n, seed=41).values)
    kwargs = dict(fs=a.sample_rate, nperseg=p.segment_length,
                  noverlap=p.noverlap, detrend=False,
                  window="boxcar" if window == "rectangular" else window)
    _, paa = signal.welch(a.values, **kwargs)
    _, pab = signal.csd(a.values, b.values, **kwargs)
    _, coh = signal.coherence(a.values, b.values, **kwargs)

    psd = welch_psd(a, p)
    assert psd.n_segments == n_seg
    assert_allclose(psd.values, paa, rtol=1e-12)
    assert_allclose(welch_csd(a, b, p).values, pab, rtol=1e-12)
    assert_allclose(coherence(a, b, p).values, coh, rtol=1e-12)


def test_welch_memory_does_not_grow_with_segments(monkeypatch):
    # the segments are transformed a block at a time, so four times the
    # segments must not take four times the working memory: the traced
    # peak plus the work arrays in anonymous mappings, which tracemalloc
    # does not see and which all live for the whole pass
    mapped_bytes = []

    def counted(shapes, _mapped=_threads.mapped):
        arrays = _mapped(shapes)
        mapped_bytes.append(sum(array.nbytes for array in arrays.values()))
        return arrays

    monkeypatch.setattr(_threads, "mapped", counted)
    p = WelchParams(segment_length=1024)
    step = p.segment_length - p.noverlap
    peaks = []
    for n_seg in (8 * analysis._WELCH_BLOCK, 32 * analysis._WELCH_BLOCK):
        n = p.segment_length + (n_seg - 1) * step
        a, b = white(n, seed=42), white(n, seed=43)
        mapped_bytes.clear()
        tracemalloc.start()
        try:
            welch_csd(a, b, p)
            peaks.append(tracemalloc.get_traced_memory()[1]
                         + sum(mapped_bytes))
        finally:
            tracemalloc.stop()
    assert mapped_bytes
    assert peaks[1] < 1.5 * peaks[0]


def lag_case(n, j_max, offset=0.0):
    return pytest.param(n, j_max, offset, id=f"{n}-{j_max}" + (
        f"-offset{offset:g}" if offset else ""))


# several segments of every length used below and a partial last one
PARTIAL = 34005


@pytest.mark.parametrize("n, j_max, offset", [
    # one segment of 2048 samples (3001-512) up to hundreds of 64 samples
    lag_case(3001, 40),
    lag_case(3001, 512),
    lag_case(17621, 1),
    lag_case(17621, 40),
    lag_case(17621, 511),
    lag_case(17621, 612),
    lag_case(PARTIAL, 17),
    lag_case(PARTIAL, 40),
    # a mean of 1e3 standard deviations, which the Welch pass keeps
    lag_case(PARTIAL, 40, offset=1e3),
    lag_case(PARTIAL, 1023),
    lag_case(PARTIAL, 1024),
])
def test_lagged_covariance_matches_fftconvolve_oracle(n, j_max, offset):
    signal = pytest.importorskip("scipy.signal")
    # coloured, correlated records; the shortest hann segments that hold
    # the lags
    taps = np.ones(9) / 9.0
    a = np.convolve(white(n, seed=44).values, taps, "same")
    b = 0.5 * np.roll(a, 5) + white(n, seed=45).values
    a = TimeSeries(1.0, a + offset * np.std(a))
    b = TimeSeries(1.0, b - offset * np.std(b))
    p = WelchParams(segment_length=max(64, 4 * j_max))
    res = cross_correlation(welch_csd(a, b, p), max_lag=float(j_max))

    # each segment's circular products are its linear ones folded at the
    # segment length
    size, step = p.segment_length, p.segment_length - p.noverlap
    w = analysis._window(p)
    x, y = a.values - a.values.mean(), b.values - b.values.mean()
    circular, power_a, power_b = np.zeros(size), 0.0, 0.0
    starts = range(0, n - size + 1, step)
    for start in starts:
        u, v = w * x[start:start + size], w * y[start:start + size]
        linear = signal.fftconvolve(v, u[::-1])
        circular += linear[size - 1:]
        circular[1:] += linear[:size - 1]
        power_a = power_a + np.abs(np.fft.fft(u)) ** 2
        power_b = power_b + np.abs(np.fft.fft(v)) ** 2
    lags = np.arange(-j_max, j_max + 1)
    weight = np.array([w[:size - j] @ w[j:] for j in np.abs(lags)])
    ref = circular[lags] / (len(starts) * weight)
    assert_allclose(res.covariance, ref, rtol=0,
                    atol=1e-12 * np.max(np.abs(ref)))

    # Bartlett's sum_k c_aa c_bb = fs int S_aa S_bb df over the mean-free
    # two-sided periodograms, times sum g^2 / (sum g)^2 of the summed
    # segment weights of the products (t, t + j) and the wrapped ones
    # (t, t + j - L)
    bartlett = np.sum(power_a * power_b) / len(starts) ** 2 / (
        size * (w @ w) ** 2)
    for j in range(j_max + 1):
        g, wrapped = np.zeros(n), np.zeros(n)
        for start in starts:
            g[start:start + size - j] += w[:size - j] * w[j:]
            wrapped[start + size - j:start + size] += w[size - j:] * w[:j]
        sigma = np.sqrt(bartlett * (g @ g + wrapped @ wrapped)) / np.sum(g)
        assert_allclose(res.sigma_band[j_max + j], sigma, rtol=1e-12)
        assert_allclose(res.sigma_band[j_max - j], sigma, rtol=1e-12)
    assert_allclose(res.n_samples_effective,
                    n * (x @ x / n) * (y @ y / n) / bartlett, rtol=1e-12)
    assert_allclose(res.variance_a, x @ x / n, rtol=1e-12)
    assert_allclose(res.variance_b, y @ y / n, rtol=1e-12)


#: (window, overlap) of the ensemble tests.  With the rectangular window the
#: wrapped products are j / L of those at lag j: a third at L/4.
ENSEMBLE_WELCH = [pytest.param(WelchParams(256, 0.5, "hann"), id="hann"),
                  pytest.param(WelchParams(256, 0.0, "rectangular"),
                               id="rectangular")]


@pytest.mark.parametrize("p", ENSEMBLE_WELCH)
def test_null_lag_z_scores_have_unit_variance(p):
    # independent coloured records: covariance / sigma_band is standard
    # normal, at every lag out to a quarter segment, wrapped lags included
    taps = np.ones(9) / 9.0
    j_max = p.segment_length // 4
    z = []
    for seed in range(200):
        a, b = (TimeSeries(1.0, np.convolve(white(2**14, seed=s).values,
                                            taps, "same"))
                for s in (5000 + seed, 9000 + seed))
        res = cross_correlation(welch_csd(a, b, p), float(j_max))
        z.append(res.covariance / res.sigma_band)
    z = np.asarray(z)
    assert abs(np.var(z) - 1.0) < 0.1
    far = np.abs(np.arange(-j_max, j_max + 1)) > j_max // 2
    assert abs(np.var(z[:, far]) - 1.0) < 0.1


@pytest.mark.parametrize("p", ENSEMBLE_WELCH)
def test_correlated_mean_matches_expected_covariance(p):
    # b = 0.5 a delayed by 5 samples plus white noise, a white noise through
    # 9 taps: the mean over 200 seeds lies within 3 standard errors of the
    # true covariance C (from fftconvolve of the taps) less the bias of the
    # sample means, sum C / N.  The wrapped products pair lags beyond the
    # taps, so they add nothing.
    signal = pytest.importorskip("scipy.signal")
    taps = np.ones(9) / 9.0
    n, delay, j_max = 2**14, 5, p.segment_length // 4
    runs = []
    for seed in range(200):
        z = white(n + delay + taps.size - 1, seed=3000 + seed).values
        filtered = np.convolve(z, taps, "valid")
        a = TimeSeries(1.0, filtered[delay:])
        b = TimeSeries(1.0, 0.5 * filtered[:n]
                       + white(n, seed=8000 + seed).values)
        runs.append(cross_correlation(welch_csd(a, b, p),
                                      float(j_max)).covariance)
    runs = np.asarray(runs)

    # C(tau) = E[a_t b_{t + tau}] = 0.5 R(tau - 5), R the taps' autocorrelation
    true = np.zeros(2 * j_max + 1)
    true[j_max + delay - 8:j_max + delay + 9] = 0.5 * signal.fftconvolve(
        taps, taps[::-1])
    expected = true - np.sum(true) / n
    se = np.std(runs, axis=0) / np.sqrt(len(runs))
    assert np.all(np.abs(np.mean(runs, axis=0) - expected) < 3.0 * se)


def test_lagged_covariance_does_not_depend_on_cpu_count(monkeypatch):
    # contiguous runs of Welch blocks on 1, 2 and 3 threads, a partial
    # last block
    n = 8 * 16384 + 1237
    assert n > _threads.MIN_SAMPLES
    a = white(n, seed=46)
    b = TimeSeries(a.sample_rate, 0.5 * a.values + white(n, seed=47).values)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_threads, "workers",
                            lambda samples, workers=workers: workers)
        results.append(cross_correlation(welch_csd(a, b),
                                         max_lag=40 / a.sample_rate))
    for res in results[1:]:
        for field in dataclasses.fields(res):
            assert np.array_equal(getattr(res, field.name),
                                  getattr(results[0], field.name)), field.name


def test_lagged_covariance_copies_no_record():
    # the means and variances come with the CSD: no record-size copy
    n = 2**20
    a, b = white(n, seed=48), white(n, seed=49)
    csd = welch_csd(a, b)
    tracemalloc.start()
    try:
        cross_correlation(csd, max_lag=40 / a.sample_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.values.nbytes / 4
