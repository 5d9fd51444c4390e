"""Spectral estimation and the cross-correlation detection pipeline.

Welch-averaged PSD/CSD/coherence estimates (one-sided, density scaling),
lagged cross-correlation with analytic confidence bands, and a template-fit
detection statistic: the least-squares amplitude of the predicted spectrum
against the real part of a measured cross-spectrum, normalized so that under
the null hypothesis the reported SNR is standard normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .noise_model import HolographicSpectrum, one_sided_psd
from .synthesis import TimeSeries

WINDOWS = ("rectangular", "hann")


@dataclass(frozen=True)
class WelchParams:
    """Segment-averaging parameters shared by all spectral estimators.

    Hann with 50% overlap is the default; the rectangular window is kept for
    Parseval-exact checks.  Bad values raise ConfigurationError when the
    parameters are built.
    """

    segment_length: int = 4096
    overlap_fraction: float = 0.5
    window: str = "hann"

    def __post_init__(self):
        if self.segment_length < 16:
            raise ConfigurationError(
                f"segment_length must be >= 16, got {self.segment_length}"
            )
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ConfigurationError(
                f"overlap_fraction must lie in [0, 1), got {self.overlap_fraction}"
            )
        if self.window not in WINDOWS:
            raise ConfigurationError(
                f"window must be one of {WINDOWS}, got {self.window!r}"
            )

    @property
    def noverlap(self) -> int:
        return int(self.overlap_fraction * self.segment_length)


@dataclass
class SpectrumEstimate:
    """One-sided averaged spectrum on a uniform grid from 0 to Nyquist.

    `values` is real for PSDs and coherence, complex for CSDs.  `sigma` is the
    per-bin 1-sigma scale of the estimate (of the real part, for CSDs, under
    the independent-channels null); None where not defined.  `psds` is set
    only for CSDs: the PSD estimates of the two records from the same pass,
    each what `welch_psd` returns for that record.
    """

    frequencies: np.ndarray
    values: np.ndarray
    n_segments: int
    sample_rate: float
    params: WelchParams
    kind: str = "psd"
    sigma: Optional[np.ndarray] = None
    psds: Optional[tuple[SpectrumEstimate, SpectrumEstimate]] = None

    @property
    def df(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def band_mask(self, f_lo: float, f_hi: float) -> np.ndarray:
        return (self.frequencies >= f_lo) & (self.frequencies <= f_hi)


def _segment_count(n: int, p: WelchParams) -> int:
    if n < p.segment_length:
        raise ValueError(
            f"record of {n} samples is shorter than one segment "
            f"({p.segment_length})"
        )
    step = p.segment_length - p.noverlap
    return 1 + (n - p.segment_length) // step


def _window(p: WelchParams) -> np.ndarray:
    """Periodic (DFT-even) segment window: hann or all ones."""
    n = p.segment_length
    if p.window == "rectangular":
        return np.ones(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def effective_segments(n_seg: int, p: WelchParams) -> float:
    """Independent-segment equivalent of n_seg overlapped segments.

    Overlapping segments are correlated through the window; the averaged
    periodogram variance is inflated by 1 + 2 sum_d (1 - d/K) r_d^2 with r_d
    the normalized window autocorrelation at d steps.  For hann with 50%
    overlap the factor is about 1.056; it is exactly 1 without overlap.
    """
    window = _window(p)
    step = p.segment_length - p.noverlap
    denom = float(window @ window)
    inflation = 1.0
    d = 1
    while d * step < p.segment_length and d < n_seg:
        shift = d * step
        r = float(window[: p.segment_length - shift] @ window[shift:]) / denom
        inflation += 2.0 * (1.0 - d / n_seg) * r * r
        d += 1
    return n_seg / inflation


#: Welch segments transformed together.  32 segments of 4096 samples and
#: their spectra take about 2 MB.  On a 2-vCPU Xeon VM (2 MB of L2 per core)
#: blocks of 8 to 32 segments ran equally fast and 64 to 128 up to 40 %
#: slower, for one CSD of 5,995,849 samples.
_WELCH_BLOCK = 32


def _segment_spectra(x: np.ndarray, y: Optional[np.ndarray], fs: float,
                     p: WelchParams):
    """Welch densities of x and y and their cross-spectrum in one pass.

    Returns (f, Pxx, Pyy, Pxy, K): one-sided densities averaged over the K
    windowed segments, with Pxy = mean(conj(X) Y).  Pyy and Pxy are None
    when y is None.  The sums of |X|^2, |Y|^2 and conj(X) Y are accumulated
    over blocks of `_WELCH_BLOCK` segments, so the working memory is a few
    blocks, whatever K is.
    """
    n_seg = _segment_count(x.size, p)
    window = _window(p)
    step = p.segment_length - p.noverlap
    # density scaling; every bin but DC (and Nyquist, for even lengths)
    # folds in its negative-frequency twin
    scale = np.full(p.segment_length // 2 + 1, 2.0 / (fs * (window @ window)))
    scale[0] /= 2.0
    if p.segment_length % 2 == 0:
        scale[-1] /= 2.0

    segments_x = sliding_window_view(x, p.segment_length)[::step]
    segments_y = None if y is None else sliding_window_view(
        y, p.segment_length)[::step]
    sum_xx = np.zeros(scale.size)
    sum_yy = np.zeros(scale.size)
    sum_xy = np.zeros(scale.size, dtype=complex)
    for start in range(0, n_seg, _WELCH_BLOCK):
        block = slice(start, start + _WELCH_BLOCK)
        sx = np.fft.rfft(segments_x[block] * window, axis=-1)
        sum_xx += np.sum(sx.real**2 + sx.imag**2, axis=0)
        if segments_y is None:
            continue
        sy = np.fft.rfft(segments_y[block] * window, axis=-1)
        sum_yy += np.sum(sy.real**2 + sy.imag**2, axis=0)
        sum_xy += np.sum(np.conj(sx, out=sx) * sy, axis=0)

    f = np.fft.rfftfreq(p.segment_length, 1.0 / fs)
    pxx = sum_xx / n_seg * scale
    if y is None:
        return f, pxx, None, None, n_seg
    return f, pxx, sum_yy / n_seg * scale, sum_xy / n_seg * scale, n_seg


def _check_pair(a: TimeSeries, b: TimeSeries) -> None:
    if a.sample_rate != b.sample_rate:
        raise ValueError(
            f"sample rates differ: {a.sample_rate} vs {b.sample_rate}"
        )
    if a.n != b.n:
        raise ValueError(f"record lengths differ: {a.n} vs {b.n}")


def _psd_estimate(f: np.ndarray, pxx: np.ndarray, n_seg: int, fs: float,
                  p: WelchParams) -> SpectrumEstimate:
    return SpectrumEstimate(
        frequencies=f, values=pxx, n_segments=n_seg, sample_rate=fs,
        params=p, kind="psd",
        sigma=pxx / np.sqrt(effective_segments(n_seg, p)),
    )


def welch_psd(ts: TimeSeries, p: WelchParams = WelchParams()) -> SpectrumEstimate:
    """Averaged-periodogram one-sided PSD of a record, in m^2/Hz.

    Parameters
    ----------
    ts : TimeSeries
        Input record.
    p : WelchParams
        Segment length, overlap and window.

    Returns
    -------
    SpectrumEstimate
        With `sigma` = values / sqrt(effective segments), the chi-squared
        scale of an averaged periodogram corrected for segment overlap.
    """
    f, pxx, _, _, n_seg = _segment_spectra(ts.values, None, ts.sample_rate, p)
    return _psd_estimate(f, pxx, n_seg, ts.sample_rate, p)


def welch_csd(a: TimeSeries, b: TimeSeries,
              p: WelchParams = WelchParams()) -> SpectrumEstimate:
    """Averaged one-sided cross-spectral density of two synchronous records.

    One pass over both records gives the CSD and the PSDs of `a` and `b`,
    kept in `psds`; each equals `welch_psd` of its record bit for bit.  The
    attached `sigma` is sqrt(psd_a * psd_b / (2 K)) with K the effective
    (overlap-corrected) segment count: the standard deviation of the real
    part of each bin when the channels are independent.  It feeds the
    detection statistic's weights.
    """
    _check_pair(a, b)
    fs = a.sample_rate
    f, paa, pbb, pab, n_seg = _segment_spectra(a.values, b.values, fs, p)
    return SpectrumEstimate(
        frequencies=f, values=pab, n_segments=n_seg, sample_rate=fs,
        params=p, kind="csd",
        sigma=np.sqrt(paa * pbb / (2.0 * effective_segments(n_seg, p))),
        psds=(_psd_estimate(f, paa, n_seg, fs, p),
              _psd_estimate(f, pbb, n_seg, fs, p)),
    )


def coherence_from_csd(csd: SpectrumEstimate) -> SpectrumEstimate:
    """Magnitude-squared coherence of a `welch_csd` estimate and its `psds`.

    |CSD|^2 / (PSD_a PSD_b), clipped to [0, 1]; a silent channel has zero
    power and, by convention, zero coherence.
    """
    psd_a, psd_b = csd.psds
    power = psd_a.values * psd_b.values
    coh = np.clip(np.divide(np.abs(csd.values) ** 2, power,
                            out=np.zeros_like(power), where=power != 0.0),
                  0.0, 1.0)
    return SpectrumEstimate(
        frequencies=csd.frequencies, values=coh, n_segments=csd.n_segments,
        sample_rate=csd.sample_rate, params=csd.params, kind="coherence",
        sigma=None,
    )


def coherence(a: TimeSeries, b: TimeSeries,
              p: WelchParams = WelchParams()) -> SpectrumEstimate:
    """Magnitude-squared coherence |CSD|^2 / (PSD_a PSD_b), clipped to [0, 1].

    `coherence_from_csd` of `welch_csd(a, b, p)`; with the CSD at hand, call
    that instead of estimating the spectra again.  The estimator is biased
    upward by roughly 1/n_segments for independent channels; average many
    segments before reading small values.
    """
    return coherence_from_csd(welch_csd(a, b, p))


@dataclass
class CorrelationResult:
    """Lagged covariance of two records with a null-hypothesis 1-sigma band.

    `covariance` uses the biased 1/N normalization (positive semidefinite for
    autocorrelations); `normalized` divides by the lag-zero scale so an
    autocorrelation reads 1 at zero lag.  `sigma_band` is the per-lag standard
    deviation expected if the two records were independent, from the Bartlett
    sum of their sample autocovariances.
    """

    lags: np.ndarray
    covariance: np.ndarray
    normalized: np.ndarray
    sigma_band: np.ndarray
    n_samples_effective: float


def _smooth_length(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n (a fast FFT length)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


#: Record samples per chunk of the lagged products, and the row length of the
#: chunk matrices (the chunk length is a multiple of it).  A chunk's three
#: matrices take a few hundred kB at the lag ranges of a run.
_LAG_CHUNK = 8192
_LAG_ROW = 32

#: Lag count from which the padded transforms beat the chunked products.
#: The products cost O(N max_bins), the transforms O(N log N).  Measured
#: single-threaded on a 2-vCPU Xeon VM: at N = 1,600,000 (an FFT-friendly
#: length) the two tie at max_bins = 512 (0.27 s each) and the transforms
#: win from 640; at N = 5,995,849 (17 * 19**2 * 977) the products win up to
#: 512 (1.2 s against 1.4 s) and lose from 576 (1.35 s against 1.15 s).
_FFT_MIN_LAGS = 512


def _padded(v: np.ndarray, start: int, stop: int) -> np.ndarray:
    """v[start:stop] as a new array, zero where the range leaves the record."""
    out = np.zeros(stop - start)
    lo, hi = max(start, 0), min(stop, v.size)
    out[lo - start:hi - start] = v[lo:hi]
    return out


def _diagonal_sums(g: np.ndarray, count: int) -> np.ndarray:
    """Sums of the first `count` diagonals of g: s[k] = sum_i g[i, i + k]."""
    rows, cols = g.shape
    index = np.arange(count)[:, None] + np.arange(rows) * (cols + 1)
    return g.ravel()[index].sum(axis=1)


def _lagged_covariances(x: np.ndarray, y: np.ndarray, max_bins: int):
    """Biased lagged covariances of (x, y), (x, x) and (y, y).

    Each is r[j] = (1/N) sum_t u_t v_{t+j}.  Returns r_xy for j in
    [-max_bins, max_bins] and, since auto-covariances are even, r_xx and
    r_yy for j in [0, max_bins] only.

    Below `_FFT_MIN_LAGS` lags the sums are direct, one chunk of
    `_LAG_CHUNK` samples at a time.  A chunk of u is cut into rows u_k of
    R = `_LAG_ROW` samples, and v into overlapping rows
    w_k = v[kR - J : kR + R + J], zero outside the record (J = max_bins;
    for the auto lags w_k starts at kR).  One matrix product accumulates
    G[i, m] = sum_k u_k[i] w_k[m], and lag j is the sum of the diagonal
    m = i + J + j of G.  From `_FFT_MIN_LAGS` lags on, each record is
    transformed once instead, zero-padded to at least N + max_bins so the
    circular products are free of wrap-around at the lags kept.
    """
    n = x.size
    if max_bins >= _FFT_MIN_LAGS:
        m = _smooth_length(n + max_bins)
        fx = np.fft.rfft(x, m)
        fy = np.fft.rfft(y, m)

        def lags(spectrum, negative):
            r = np.fft.irfft(spectrum, m)
            return np.concatenate([r[m - negative:], r[:max_bins + 1]]) / n

        return (lags(np.conj(fx) * fy, max_bins),
                lags(fx.real**2 + fx.imag**2, 0),
                lags(fy.real**2 + fy.imag**2, 0))

    row = _LAG_ROW
    g_xy = np.zeros((row, row + 2 * max_bins))
    g_xx = np.zeros((row, row + max_bins))
    g_yy = np.zeros((row, row + max_bins))
    for start in range(0, n, _LAG_CHUNK):
        size = min(_LAG_CHUNK, -(-(n - start) // row) * row)
        xc = _padded(x, start, start + size + max_bins)
        yc = _padded(y, start - max_bins, start + size + max_bins)
        x_rows = xc[:size].reshape(-1, row)
        y_rows = yc[max_bins:max_bins + size].reshape(-1, row)
        # the rows overlap, so BLAS needs them copied out of the views
        wx = np.ascontiguousarray(
            sliding_window_view(xc, row + max_bins)[::row])
        wy = np.ascontiguousarray(
            sliding_window_view(yc, row + 2 * max_bins)[::row])
        g_xy += x_rows.T @ wy
        g_xx += x_rows.T @ wx
        g_yy += y_rows.T @ wy[:, max_bins:]
    return (_diagonal_sums(g_xy, 2 * max_bins + 1) / n,
            _diagonal_sums(g_xx, max_bins + 1) / n,
            _diagonal_sums(g_yy, max_bins + 1) / n)


def cross_correlation(a: TimeSeries, b: TimeSeries,
                      max_lag: float) -> CorrelationResult:
    """Lagged cross-covariance of two records out to +-max_lag seconds.

    Positive lags mean features in `a` lead those in `b`.  Means are removed.
    The returned band assumes correlations (of each record with itself) die
    out within max_lag, so choose max_lag beyond the physical coherence time.
    """
    _check_pair(a, b)
    if not 0.0 < max_lag < 0.5 * a.duration:
        raise ValueError(
            f"max_lag {max_lag} s must be positive and below half the record "
            f"duration {a.duration} s"
        )
    j_max = int(round(max_lag * a.sample_rate))
    if j_max < 1:
        raise ValueError("max_lag shorter than one sample interval")
    n = a.n
    x = a.values - a.values.mean()
    y = b.values - b.values.mean()
    cov, cxx, cyy = _lagged_covariances(x, y, j_max)
    lags = np.arange(-j_max, j_max + 1) / a.sample_rate

    var_x = float(x @ x) / n
    var_y = float(y @ y) / n
    scale = np.sqrt(var_x * var_y)
    normalized = cov / scale if scale > 0 else np.zeros_like(cov)

    # Bartlett band: var(r[j]) ~ (N - |j|)/N^2 * sum_k c_xx[k] c_yy[k],
    # the sum over k in [-j_max, j_max] of even sequences
    products = cxx * cyy
    bartlett = float(products[0] + 2.0 * np.sum(products[1:]))
    counts = n - np.abs(np.arange(-j_max, j_max + 1))
    sigma_band = np.sqrt(np.clip(bartlett, 0.0, None) * counts) / n
    n_eff = n * var_x * var_y / bartlett if bartlett > 0 else float(n)
    return CorrelationResult(
        lags=lags, covariance=cov, normalized=normalized,
        sigma_band=sigma_band, n_samples_effective=n_eff,
    )


@dataclass(frozen=True)
class DetectionResult:
    amplitude_fit: float
    amplitude_se: float
    snr: float
    n_bins: int
    band: tuple[float, float]


def _bin_correlation_factor(p: WelchParams) -> float:
    """Variance inflation of band sums from window-induced bin correlation.

    Neighboring Welch bins share power through the window's spectral leakage;
    a sum over bins treated as independent understates its variance by
    sum_d |rho_w(d)|^2 = L sum(w^4) / (sum(w^2))^2 (1 for the rectangular
    window, 35/18 for hann).
    """
    window = _window(p)
    return float(p.segment_length * np.sum(window**4) / np.sum(window**2) ** 2)


def detection_significance(csd: SpectrumEstimate, model: HolographicSpectrum,
                           band: tuple[float, float]) -> DetectionResult:
    """Template amplitude of the predicted spectrum in a cross-spectrum.

    Fits a single scale factor A minimizing
    sum_i (Re csd_i - A m_i)^2 / sigma_i^2 over the band, where m is the
    one-sided model spectrum and sigma the per-bin null deviation attached to
    the estimate.  A = 1 means the prediction is present at full amplitude;
    snr = A / SE(A) is standard normal when the channels are independent.
    The standard error accounts for window-induced correlation between
    neighboring bins, so it is calibrated for bands spanning many bins.

    Parameters
    ----------
    csd : SpectrumEstimate
        Cross-spectrum with `sigma` populated (as from `welch_csd`).
    model : HolographicSpectrum
        Zero-parameter spectral prediction to fit.
    band : (f_lo, f_hi)
        Frequency band of the fit, inclusive.
    """
    f_lo, f_hi = band
    if not f_lo < f_hi:
        raise ValueError(f"empty band: ({f_lo}, {f_hi})")
    mask = csd.band_mask(f_lo, f_hi)
    if not np.any(mask):
        raise ValueError(
            f"band ({f_lo}, {f_hi}) Hz contains no bins of the estimate"
        )
    freqs = csd.frequencies[mask]
    x = np.real(np.asarray(csd.values)[mask])
    template = np.asarray(one_sided_psd(model, freqs))
    if csd.sigma is not None:
        sigma = np.asarray(csd.sigma)[mask]
        n_zero = int(np.sum(sigma == 0.0))
        if n_zero:
            raise ValueError(
                f"band ({f_lo}, {f_hi}) Hz contains {n_zero} zero-variance "
                "bins, which cannot be weighted"
            )
        weights = 1.0 / sigma**2
    else:
        weights = np.ones_like(x)
    denom = float(np.sum(weights * template**2))
    if denom == 0.0:
        raise ValueError("template vanishes over the requested band")
    amplitude = float(np.sum(weights * template * x)) / denom
    se = float(np.sqrt(_bin_correlation_factor(csd.params) / denom))
    return DetectionResult(
        amplitude_fit=amplitude, amplitude_se=se, snr=amplitude / se,
        n_bins=int(np.sum(mask)), band=(f_lo, f_hi),
    )


def band_averages(est: SpectrumEstimate, edges) -> tuple[np.ndarray, np.ndarray]:
    """Mean of `values` between consecutive edges; returns (centers, means)."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be an increasing 1-d array of length >= 2")
    centers = np.sqrt(edges[:-1] * edges[1:])
    means = np.empty(edges.size - 1)
    for i in range(edges.size - 1):
        mask = (est.frequencies >= edges[i]) & (est.frequencies < edges[i + 1])
        if not np.any(mask):
            raise ValueError(
                f"band [{edges[i]:g}, {edges[i+1]:g}) Hz contains no bins"
            )
        means[i] = float(np.mean(np.real(est.values[mask])))
    return centers, means
