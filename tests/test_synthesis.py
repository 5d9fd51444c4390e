import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonoise import (
    HolographicSpectrum,
    SynthesisConfig,
    TimeSeries,
    analytic_autocorrelation,
    analytic_psd,
    one_sided_psd,
    synthesize,
    synthesize_boxcar,
    synthesize_spectral,
    white_noise_psd,
)
from holonoise import _threads, synthesis
from holonoise.algebra import CONSTANTS
from holonoise.errors import ConfigurationError
from holonoise.synthesis import (
    _BLOCK,
    _boxcar,
    boxcar_width,
    channel_seed,
)

from conftest import band_means, integer_boxcar_rate, octave_edges

L = 40.0
FS = integer_boxcar_rate(L, width=32)   # 32 samples per coherence time


def make_cfg(method="spectral", n=2**16, seed=11, fs=FS, L=L):
    return SynthesisConfig(L=L, sample_rate=fs, n_samples=n, seed=seed,
                           method=method)


class TestTimeSeries:
    def test_basic(self):
        ts = TimeSeries(sample_rate=10.0, values=np.arange(5.0))
        assert ts.n == 5
        assert ts.duration == 0.5
        assert_allclose(ts.times(), [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TimeSeries(sample_rate=0.0, values=np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(sample_rate=1.0, values=np.array([]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries(sample_rate=1.0, values=np.array([1.0, np.nan]))

    def test_finiteness_check_allocates_no_record(self):
        # finite values whose sum overflows are accepted, under any numpy
        # error state, and no mask of the record is made
        x = np.full(2**20, 1e308)
        tracemalloc.start()
        try:
            with np.errstate(all="raise"):
                TimeSeries(sample_rate=1.0, values=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 64
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                TimeSeries(sample_rate=1.0, values=y)


class TestConfigValidation:
    def test_undersampled(self):
        with pytest.raises(ConfigurationError):
            make_cfg(fs=1e6)

    def test_record_too_short(self):
        with pytest.raises(ConfigurationError):
            make_cfg(n=64)

    def test_bad_method(self):
        with pytest.raises(ConfigurationError):
            make_cfg(method="wavelet")

    def test_method_mismatch(self):
        with pytest.raises(ConfigurationError):
            synthesize_boxcar(make_cfg("spectral"))
        with pytest.raises(ConfigurationError):
            synthesize_spectral(make_cfg("boxcar"))

    def test_boxcar_width(self):
        assert boxcar_width(make_cfg("boxcar")) == 32

    @pytest.mark.parametrize("n", [1e5, 65536.0, "65536", True])
    def test_non_integer_length(self, n):
        # refused when built, not later by synthesize
        with pytest.raises(ConfigurationError, match="n_samples"):
            make_cfg(n=n)
        assert make_cfg(n=np.int64(65536)).n_samples == 65536

    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    def test_template_refuses_negative_and_nan_frequencies(self, method):
        # with one_sided_psd's message; the boxcar's gave 2.2e-40 at -1e5
        spec = HolographicSpectrum(L)
        for f in (-1e5, np.nan, [0.0, np.nan]):
            with pytest.raises(ValueError, match="nonnegative"):
                synthesis.record_psd(spec, FS, method, f)


class TestDeterminism:
    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    def test_same_seed_identical(self, method):
        a = synthesize(make_cfg(method, n=4096, seed=99))
        b = synthesize(make_cfg(method, n=4096, seed=99))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("method", ["spectral", "boxcar"])
    def test_different_seed_differs(self, method):
        a = synthesize(make_cfg(method, n=4096, seed=1))
        b = synthesize(make_cfg(method, n=4096, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_channel_streams_independent(self):
        assert channel_seed(5, 0) != channel_seed(5, 1)


def mean_periodogram(method, n, realizations, seed0):
    """Average two-sided periodogram over independent realizations."""
    acc = None
    for k in range(realizations):
        ts = synthesize(make_cfg(method, n=n, seed=seed0 + k))
        x_f = np.fft.rfft(ts.values)
        p = np.abs(x_f) ** 2 / (n * FS)
        acc = p if acc is None else acc + p
    f = np.fft.rfftfreq(n, d=1.0 / FS)
    return f, acc / realizations


@pytest.mark.parametrize("method", ["spectral", "boxcar"])
def test_expected_spectrum(method):
    spec = HolographicSpectrum(L)
    f, mean_p = mean_periodogram(method, n=32768, realizations=300, seed0=1000)
    edges = octave_edges(spec.f_c / 10.0, 3 * float(spec.zeros(1)[0]))
    est = band_means(f, mean_p, edges)
    model = band_means(f, np.asarray(analytic_psd(spec, f)), edges)
    assert_allclose(est, model, rtol=0.05)


def test_methods_agree():
    spec = HolographicSpectrum(L)
    f, p_spec = mean_periodogram("spectral", n=32768, realizations=300, seed0=1)
    _, p_box = mean_periodogram("boxcar", n=32768, realizations=300, seed0=5000)
    edges = octave_edges(spec.f_c / 10.0, 3 * float(spec.zeros(1)[0]))
    assert_allclose(band_means(f, p_spec, edges), band_means(f, p_box, edges),
                    rtol=0.05)


@pytest.mark.parametrize("method", ["spectral", "boxcar"])
def test_record_variance(method):
    spec = HolographicSpectrum(L)
    ts = synthesize(make_cfg(method, n=2**20, seed=21))
    assert abs(np.var(ts.values) / spec.total_variance - 1.0) < 0.10


def test_boxcar_triangle_autocovariance():
    # the sliding-window construction makes the sampled autocovariance an
    # exact triangle; check it empirically out to twice the cutoff
    spec = HolographicSpectrum(L)
    ts = synthesize(make_cfg("boxcar", n=2**20, seed=3))
    x = ts.values - ts.values.mean()
    n = x.size
    width = 32
    model = np.asarray(analytic_autocorrelation(spec, np.arange(2 * width) / FS))
    sigma = spec.total_variance * np.sqrt(2 * width / 3.0 / n)
    for j in range(2 * width):
        r_j = float(x[: n - j] @ x[j:]) / n
        assert abs(r_j - model[j]) < 3.5 * sigma


def documented_stream(seed, channel, size):
    """Test-side re-draw of the README's layout: block b of the stream is the
    draws of SeedSequence(seed, spawn_key=(channel, b)), cut at `size`."""
    blocks = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(channel, b)))).standard_normal(
            min(_BLOCK, size - b * _BLOCK))
        for b in range(-(-size // _BLOCK))]
    return np.concatenate(blocks)


def linear_boxcar(driver, width):
    """Oracle: the linear moving sum of `width` samples of `driver`, without
    wrap-around ("valid" mode), through zero-padded FFTs."""
    from scipy.signal import fftconvolve

    return fftconvolve(driver, np.ones(width), mode="valid")


def sici_taps(width):
    """Oracle: the spectral filter's taps from scipy's sine integral."""
    from scipy.special import sici

    k = np.arange(-synthesis._SIDE_TAPS,
                  synthesis._SIDE_TAPS + int(width) + 1, dtype=float)
    return (sici(np.pi * (width - k))[0] + sici(np.pi * k)[0]) / np.pi


@pytest.mark.parametrize("width", [4.27, 32.0, 320.6])
def test_spectral_taps_are_the_band_limited_window(width):
    # the taps are the sine-integral differences, and their PSD is the
    # model's, plateau * sinc^2(f 2L/c), to 1e-5 over the default band
    spec = HolographicSpectrum(L)
    fs = integer_boxcar_rate(L, width)
    taps = synthesis._taps(synthesis._width(spec, fs))
    assert np.max(np.abs(taps - sici_taps(width))) < 1e-13
    f = np.linspace(spec.f_c / 20.0, 2.0 * spec.f_c, 301)
    k = np.arange(taps.size)
    response = np.exp(-2j * np.pi * np.outer(f / fs, k)) @ taps
    got = 2.0 * white_noise_psd() / fs**2 * np.abs(response) ** 2
    assert np.max(np.abs(got / one_sided_psd(spec, f) - 1.0)) < 1e-5


def test_spectral_taps_sum_to_the_window():
    # the lag-zero variance is the band-limited share of the triangle's:
    # 0.9503 of it at 4.27 samples per round trip, 0.9994 at 320.6
    for width, share in ((4.27, 0.9503), (8.0, 0.9747), (320.6, 0.9994)):
        taps = synthesis._taps(width)
        assert abs(taps.sum() - width) < 1e-5 * width
        assert abs(np.sum(taps**2) / width - share) < 1e-4


@pytest.mark.parametrize("first", [0, 2])
def test_spectral_record_is_its_filtered_driver(first):
    # sample i is sum_k h[k] d[i + k] over the taps, the channel-0 stream
    # read ahead: the record is linear, not circular, also from a later
    # block on
    from scipy.signal import fftconvolve

    cfg = make_cfg("spectral", n=2 * _BLOCK + 999, seed=6, fs=1.6e7)
    taps = sici_taps(boxcar_width(cfg))
    n, start = cfg.n_samples, first * _BLOCK
    driver = documented_stream(cfg.seed, 0, start + n + taps.size - 1)
    want = fftconvolve(driver[start:], taps[::-1], mode="valid")
    want *= np.sqrt(white_noise_psd() * cfg.sample_rate) / cfg.sample_rate
    got = synthesize(cfg, first).values
    assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


# 3 * 65,536 + 7 samples: several blocks and a remainder
@pytest.mark.parametrize("n", [4096, 4097, 17 * 977, 3 * 65536 + 7])
def test_moving_sum_matches_fft_convolution(n):
    for width in (1, 2, 3, 4, 7, 8, 32, 1000, n - 1):
        ref = linear_boxcar(documented_stream(n, 0, n + width - 1), width)
        assert_allclose(_boxcar(n, n, width, 1.0), ref, rtol=0,
                        atol=1e-12 * np.max(np.abs(ref)))


def test_boxcar_matches_fft_convolution_of_its_driver():
    # a record length with a large prime factor, as in long runs
    cfg = make_cfg("boxcar", n=17 * 977, seed=4)
    width = int(boxcar_width(cfg))
    assert width == boxcar_width(cfg)
    white = np.sqrt(white_noise_psd() * FS) * documented_stream(
        cfg.seed, 0, cfg.n_samples + width - 1)
    ref = linear_boxcar(white, width) / FS
    assert_allclose(synthesize_boxcar(cfg).values, ref, rtol=0,
                    atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("first", [0, 2])
def test_fractional_boxcar_is_its_sums_of_two_streams(first):
    # at 16 MHz a round trip is 4.27 samples: sample i is the sum of driver
    # samples i to i + 3, 0.27 times sample i + 4, and sqrt(0.27 * 0.73)
    # times sample i of channel 1; also from a later block on
    cfg = make_cfg("boxcar", n=2 * _BLOCK + 999, seed=6, fs=1.6e7)
    width = boxcar_width(cfg)
    m, phi = int(width), width - int(width)
    assert 0.2 < phi < 0.3
    n, start = cfg.n_samples, first * _BLOCK
    driver = documented_stream(cfg.seed, 0, start + n + m)[start:]
    extra = documented_stream(cfg.seed, 1, start + n)[start:]
    want = (sum(driver[j:j + n] for j in range(m)) + phi * driver[m:m + n]
            + np.sqrt(phi * (1.0 - phi)) * extra)
    want *= np.sqrt(white_noise_psd() * cfg.sample_rate) / cfg.sample_rate
    got = synthesize_boxcar(cfg, first).values
    assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("width", [4.27, 5.5, 7.999, 320.6])
def test_fractional_boxcar_autocovariance_is_the_sampled_triangle(width):
    # unit driver: the autocovariance at lag k is (w - |k|)^+, within the
    # sampling error of Bartlett's formula, (1/N) sum_j (c_j^2 +
    # c_{j+k} c_{j-k}), at every lag up to two past the window
    n = 2**20
    x = _boxcar(21, n, width, 1.0)
    lags = np.arange(int(width) + 3)
    power = np.abs(np.fft.rfft(x, 2 * n)) ** 2
    got = np.fft.irfft(power)[:lags.size] / (n - lags)
    model = np.maximum(width - np.abs(np.arange(-lags.size - int(width),
                                                lags.size + int(width) + 1)),
                       0.0)
    mid = model.size // 2
    want = model[mid:mid + lags.size]
    var = np.array([np.sum(model**2) + np.sum(model[k:] * model[:model.size
                                                                 - k])
                    for k in lags]) / n
    assert np.all(np.abs(got - want) < 5.0 * np.sqrt(var))


@pytest.mark.parametrize("L", [3.0, 40.0, 41.0, 600.0])
def test_integer_rates_take_the_integer_path(monkeypatch, L):
    # a rate made for whole samples is whole up to float rounding (at 3 m
    # and 32 samples, 2L/c * fs is 31.999999999999996): its width is that
    # integer, and no channel-1 normal is drawn
    for width in range(4, 513):
        got = boxcar_width(make_cfg("boxcar", n=20 * width, L=L,
                                    fs=integer_boxcar_rate(L, width)))
        assert got == width and isinstance(got, float), (L, width)
    channels = set()

    def recording(out, seed, channel, first_block,
                  _fill=synthesis._fill_normal):
        channels.add(channel)
        _fill(out, seed, channel, first_block)

    monkeypatch.setattr(synthesis, "_fill_normal", recording)
    for width in (4, 8, 32, 320):
        synthesize(make_cfg("boxcar", n=2 * _BLOCK + 5, L=L,
                            fs=integer_boxcar_rate(L, width)))
    assert channels == {0}


@pytest.mark.parametrize("fs", [1.6e7, 29979245.8, 2.4e7,
                                integer_boxcar_rate(L, 32), 1.2e9])
def test_boxcar_template_is_the_transform_of_the_sampled_triangle(fs):
    # the closed form is the cosine sum of the triangle's 2m + 1 sample
    # lags to 1e-12 of the plateau, doubled above 0 Hz
    spec = HolographicSpectrum(L)
    f = np.linspace(0.0, fs / 2, 2049)
    width = synthesis._width(spec, fs)
    k = np.arange(-int(width), int(width) + 1)
    lags = np.asarray(analytic_autocorrelation(spec, k / fs))
    dtft = np.cos(2 * np.pi * np.outer(f, k) / fs) @ lags / fs
    want = np.where(f > 0, 2.0 * dtft, dtft)
    got = synthesis.record_psd(spec, fs, "boxcar", f)
    assert np.max(np.abs(got - want)) < 1e-12 * spec.plateau
    assert np.array_equal(synthesis.record_psd(spec, fs, "spectral", f),
                          one_sided_psd(spec, f))


# three blocks and a remainder
N_BLOCKS = 3 * _BLOCK + 1237


def over_cpu_counts(monkeypatch, make):
    """make() with `_threads.workers` patched to 1, 2 and 3."""
    records = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_threads, "workers",
                            lambda samples, workers=workers: workers)
        records.append(make())
    return records


@pytest.mark.parametrize("width", [1, 4, 32, _BLOCK + 2])
def test_boxcar_does_not_depend_on_cpu_count(monkeypatch, width):
    first, *others = over_cpu_counts(
        monkeypatch, lambda: _boxcar(7, N_BLOCKS, width, 1.0))
    for other in others:
        assert np.array_equal(first, other)


@pytest.mark.parametrize("method", ["spectral", "boxcar"])
def test_synthesize_does_not_depend_on_cpu_count(monkeypatch, method):
    first, *others = over_cpu_counts(
        monkeypatch, lambda: synthesize(make_cfg(method, n=N_BLOCKS)).values)
    for other in others:
        assert np.array_equal(first, other)


def seam_statistics(x, block, lag):
    """Mean of x[i] x[i + lag] over the pairs that straddle a block edge and
    over those inside a block, each with its standard error from the
    per-block means; `lag` is below `block`, which is far longer than the
    window, so that the blocks' means are nearly independent."""
    n_blocks = x.size // block
    rows = x[:n_blocks * block].reshape(n_blocks, block)
    inside = (rows[:, :-lag] * rows[:, lag:]).mean(axis=1)
    # pairs (i, i + lag) with i in the last `lag` samples of a block
    across = (rows[:-1, -lag:] * np.concatenate(
        (rows[:-1, lag:], rows[1:, :lag]), axis=1)[:, -lag:]).mean(axis=1)
    return [(m.mean(), m.std() / np.sqrt(m.size)) for m in (across, inside)]


@pytest.mark.parametrize("width", [8, 32])
def test_boxcar_block_seams_match_interior(monkeypatch, width):
    # blocks of 256 samples, so that a record has thousands of seams; the
    # moving sum of unit normals has autocovariance width - lag up to width
    block = 256
    monkeypatch.setattr(synthesis, "_BLOCK", block)
    x = _boxcar(9, 2**20, width, 1.0)
    for lag in (1, width):
        expected = max(width - lag, 0)
        (across, se_across), (inside, se_inside) = seam_statistics(
            x, block, lag)
        assert abs(across - expected) < 4.0 * se_across, lag
        assert abs(inside - expected) < 4.0 * se_inside, lag
        assert abs(across - inside) < 4.0 * np.hypot(se_across, se_inside)


def test_increment_scaling():
    # mean square increment grows linearly at lags well below the coherence
    # time, with diffusion slope twice the white-driver PSD
    ts = synthesize(make_cfg("boxcar", n=2**20, seed=17))
    x = ts.values
    slope = 2.0 * white_noise_psd()
    for j in (1, 2, 4, 8):
        msd = float(np.mean((x[j:] - x[:-j]) ** 2))
        assert_allclose(msd, slope * j / FS, rtol=0.05)


@pytest.mark.parametrize("method", ["spectral", "boxcar"])
def test_gaussianity(method):
    ts = synthesize(make_cfg(method, n=2**20, seed=8))
    x = ts.values - ts.values.mean()
    kurt = np.mean(x**4) / np.mean(x**2) ** 2 - 3.0
    assert abs(kurt) < 0.1


def test_stationarity_between_halves():
    from holonoise import WelchParams, welch_psd

    spec = HolographicSpectrum(L)
    ts = synthesize(make_cfg("spectral", n=2**20, seed=31))
    half = ts.n // 2
    p = WelchParams(segment_length=8192)
    first = welch_psd(TimeSeries(FS, ts.values[:half]), p)
    second = welch_psd(TimeSeries(FS, ts.values[half:]), p)
    edges = [spec.f_c / 10, spec.f_c] + list(spec.zeros(3))
    b1 = band_means(first.frequencies, first.values, edges)
    b2 = band_means(second.frequencies, second.values, edges)
    assert_allclose(b1, b2, rtol=0.10)


def test_variance_proportional_to_length():
    # same seed stream, doubled arm: the coherence window doubles and so
    # does the variance
    a = synthesize(make_cfg("boxcar", n=2**19, seed=12, L=40.0))
    b = synthesize(make_cfg("boxcar", n=2**19, seed=12, L=80.0))
    assert abs(np.var(b.values) / np.var(a.values) - 2.0) < 0.1


def test_methods_indistinguishable_variance():
    # two-sample comparison of record variances over 100 realizations each
    var_s = [np.var(synthesize(make_cfg("spectral", n=2**14, seed=s)).values)
             for s in range(100)]
    var_b = [np.var(synthesize(make_cfg("boxcar", n=2**14, seed=s + 500)).values)
             for s in range(100)]
    diff = np.mean(var_s) - np.mean(var_b)
    se = np.sqrt(np.var(var_s) / 100 + np.var(var_b) / 100)
    assert abs(diff) < 3.0 * se
