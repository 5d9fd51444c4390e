import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonoise import (
    HolographicSpectrum,
    SynthesisConfig,
    TimeSeries,
    analytic_autocorrelation,
    analytic_psd,
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
    width = boxcar_width(cfg)
    white = np.sqrt(white_noise_psd() * FS) * documented_stream(
        cfg.seed, 0, cfg.n_samples + width - 1)
    ref = linear_boxcar(white, width) / FS
    assert_allclose(synthesize_boxcar(cfg).values, ref, rtol=0,
                    atol=1e-12 * np.max(np.abs(ref)))


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
