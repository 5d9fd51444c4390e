"""Spectral estimation and the cross-correlation detection pipeline.

Welch-averaged PSD/CSD/coherence estimates (one-sided, density scaling),
the lagged cross-correlation from the same pass with an analytic confidence
band, and a template-fit detection statistic: the least-squares amplitude
of the predicted spectrum against the real part of a measured
cross-spectrum, normalized so that under the null hypothesis the reported
SNR is standard normal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _threads
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
    the independent-channels null); None where not defined.  `psds` and
    `low_bins` are set only for CSDs: the PSD estimates of the two records
    from the same pass, each what `welch_psd` returns for that record, and
    bins 0 and 1 of every segment's transform of each record (2 x K x 2),
    where a record mean leaks.
    """

    frequencies: np.ndarray
    values: np.ndarray
    n_segments: int
    sample_rate: float
    params: WelchParams
    kind: str = "psd"
    sigma: Optional[np.ndarray] = None
    psds: Optional[tuple[SpectrumEstimate, SpectrumEstimate]] = None
    low_bins: Optional[np.ndarray] = None

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
    denom = float(np.sum(window**2))
    inflation = 1.0
    d = 1
    while d * step < p.segment_length and d < n_seg:
        shift = d * step
        r = np.sum(window[:p.segment_length - shift] * window[shift:]) / denom
        inflation += 2.0 * (1.0 - d / n_seg) * r * r
        d += 1
    return n_seg / inflation


def _density_scale(p: WelchParams, fs: float) -> np.ndarray:
    """Per-bin factor from the segment mean of conj(X) Y to a one-sided
    density: every bin but DC (and Nyquist, for even lengths) folds in its
    negative-frequency twin."""
    window = _window(p)
    scale = np.full(p.segment_length // 2 + 1, 2.0 / (fs * np.sum(window**2)))
    scale[0] /= 2.0
    if p.segment_length % 2 == 0:
        scale[-1] /= 2.0
    return scale


#: Welch segments transformed together.  32 segments of 4096 samples and
#: their spectra take about 2 MB.  On a 2-vCPU Xeon VM (2 MB of L2 per core)
#: blocks of 8 to 32 segments ran equally fast and 64 to 128 up to 40 %
#: slower, for one CSD of 5,995,849 samples.
_WELCH_BLOCK = 32


def _segment_spectra(x: np.ndarray, y: Optional[np.ndarray], fs: float,
                     p: WelchParams):
    """Welch densities of x and y and their cross-spectrum in one pass.

    Returns (f, Pxx, Pyy, Pxy, K, lows): one-sided densities averaged over
    the K windowed segments, with Pxy = mean(conj(X) Y), and bins 0 and 1
    of each segment's X and Y (2 x K x 2).  Pyy, Pxy and lows are None when
    y is None.  `_block_sums` sums blocks of `_WELCH_BLOCK` segments on
    the usable CPUs, so the working memory is a few blocks per CPU and one
    sum per block (about N bytes, an eighth of the record, at half overlap),
    added in block order: the result does not depend on the CPU count.
    """
    n_seg = _segment_count(x.size, p)
    window = _window(p)
    step = p.segment_length - p.noverlap
    scale = _density_scale(p, fs)

    segments = [sliding_window_view(x, p.segment_length)[::step]]
    if y is not None:
        segments.append(sliding_window_view(y, p.segment_length)[::step])
    n_blocks, rows = -(-n_seg // _WELCH_BLOCK), min(n_seg, _WELCH_BLOCK)
    lows = None if y is None else np.empty((2, n_seg, 2), dtype=complex)
    # row i of "sum<c>" holds block i's sum: |X|^2, |Y|^2, then conj(X) Y
    dtypes = [float] if y is None else [float, float, complex]
    sums = _threads.mapped({f"sum{c}": ((n_blocks, scale.size), dtype)
                            for c, dtype in enumerate(dtypes)})
    shape = (rows, scale.size)
    scratch = {"windowed": ((rows, p.segment_length), float),
               "power": (shape, float), "power_imag": (shape, float),
               **{f"spectrum{c}": (shape, complex)
                  for c in range(len(segments))}}
    kernel = functools.partial(_block_sums, segments, window, lows, sums)
    _threads.on_blocks(kernel, n_blocks, x.size, scratch)
    densities = []
    for block_sums in sums.values():
        total = np.zeros(scale.size, block_sums.dtype)
        for block_sum in block_sums:
            total += block_sum
        densities.append(total / n_seg * scale)
    return (np.fft.rfftfreq(p.segment_length, 1.0 / fs),
            *(densities + [None, None])[:3], n_seg, lows)


def _block_sums(segments: list, window: np.ndarray, lows: Optional[np.ndarray],
                sums: dict, blocks: np.ndarray, scratch: dict) -> None:
    """Sums over the segments of each block in `blocks`, in place.

    Row i of sums["sum<c>"] gets block i's sum of |X|^2 for record c and,
    for two records, row i of sums["sum2"] its sum of conj(X) Y; bins 0
    and 1 of each segment's X and Y go to its rows of `lows`.  The work
    arrays are `scratch`'s, so no array data is allocated and a worker
    thread can run it.
    """
    for i in blocks:
        rows = slice(i * _WELCH_BLOCK, (i + 1) * _WELCH_BLOCK)
        m = slice(segments[0][rows].shape[0])
        spectra = []
        for c, seg in enumerate(segments):
            windowed = np.multiply(seg[rows], window,
                                   out=scratch["windowed"][m])
            spectrum = np.fft.rfft(windowed, axis=-1,
                                   out=scratch[f"spectrum{c}"][m])
            power = np.square(spectrum.real, out=scratch["power"][m])
            np.add(power, np.square(spectrum.imag,
                                    out=scratch["power_imag"][m]), out=power)
            np.sum(power, axis=0, out=sums[f"sum{c}"][i])
            spectra.append(spectrum)
        if len(spectra) == 2:
            for c, spectrum in enumerate(spectra):
                lows[c, rows] = spectrum[:, :2]
            sx, sy = spectra
            product = np.multiply(np.conj(sx, out=sx), sy, out=sx)
            np.sum(product, axis=0, out=sums["sum2"][i])


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
    f, pxx, _, _, n_seg, _ = _segment_spectra(ts.values, None,
                                              ts.sample_rate, p)
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
    f, paa, pbb, pab, n_seg, lows = _segment_spectra(a.values, b.values,
                                                     fs, p)
    return SpectrumEstimate(
        frequencies=f, values=pab, n_segments=n_seg, sample_rate=fs,
        params=p, kind="csd",
        sigma=np.sqrt(paa * pbb / (2.0 * effective_segments(n_seg, p))),
        psds=(_psd_estimate(f, paa, n_seg, fs, p),
              _psd_estimate(f, pbb, n_seg, fs, p)),
        low_bins=lows,
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

    `normalized` divides `covariance` by sqrt(variance_a * variance_b), so
    an autocorrelation reads about 1 at zero lag.  `sigma_band` is the
    per-lag standard deviation expected if the records were independent.
    `variance_a` and `variance_b` are their sample variances (1/N).
    """

    lags: np.ndarray
    covariance: np.ndarray
    normalized: np.ndarray
    sigma_band: np.ndarray
    n_samples_effective: float
    variance_a: float
    variance_b: float


#: Samples per chunk of `_mean_variances`: 512 kB of differences.
_VARIANCE_CHUNK = 1 << 16


def _mean_variances(records: list, items: np.ndarray, scratch: dict) -> None:
    """Replace records[i], for each i in `items`, by its mean and sample
    variance (1/N), centred a chunk at a time in `scratch["chunk"]`, so
    that a worker thread allocates nothing.  numpy sums the squares:
    BLAS's sum order depends on its thread count."""
    for i in items:
        x = records[i]
        mean = x.mean()
        total = 0.0
        for start in range(0, x.size, _VARIANCE_CHUNK):
            chunk = x[start:start + _VARIANCE_CHUNK]
            d = np.subtract(chunk, mean, out=scratch["chunk"][:chunk.size])
            total += float(np.sum(np.square(d, out=d)))
        records[i] = mean, total / x.size


def _lagged_sums(v: np.ndarray, size: int) -> np.ndarray:
    """sum_n v_n v_{n+k} for k in [0, size], for v no longer than size."""
    spectrum = np.fft.rfft(v, 2 * size)
    return np.fft.irfft(spectrum.real**2 + spectrum.imag**2,
                        2 * size)[:size + 1]


def cross_correlation(a: TimeSeries, b: TimeSeries, csd: SpectrumEstimate,
                      max_lag: float) -> CorrelationResult:
    """Lagged cross-covariance of two records out to +-max_lag seconds.

    `csd` is `welch_csd(a, b, p)`; the records are read only for their means
    and variances.  At lag j, the inverse FFT of the segments' summed
    conj(X) Y, with bins 0 and 1 (where the means leak) taken mean-free from
    `csd.low_bins`, sums their circular products w_n w_{n+j} a_n b_{n+j};
    divided by K sum_n w_n w_{n+|j|} it is the covariance.  The wrapped
    products pair samples most of a segment apart and add only zero-mean
    noise.  Positive lags mean features in `a` lead those in `b`; max_lag
    is at most a quarter segment.  The band's variance is Bartlett's sum_k
    c_aa(k) c_bb(k), from the mean-free PSDs, times sum_t g_t^2 / (sum_t
    g_t)^2 for the summed segment weights g_t of the products, wrapped ones
    included: about 1.056 / N for hann at half overlap.
    """
    _check_pair(a, b)
    p, fs, k = csd.params, csd.sample_rate, csd.n_segments
    if (csd.low_bins is None or fs != a.sample_rate
            or k != _segment_count(a.n, p)):
        raise ValueError("csd must be the welch_csd of the two records")
    size, step = p.segment_length, p.segment_length - p.noverlap
    j_max = int(round(max_lag * fs)) if 0.0 < max_lag * fs < math.inf else 0
    if not 1 <= j_max <= size / 4:
        raise ConfigurationError(
            f"max_lag {max_lag} s must span 1 to segment_length/4 = "
            f"{size / 4:g} samples; lower max_lag or raise segment_length")
    window, scale = _window(p), _density_scale(p, fs)
    stats = [a.values, b.values]
    _threads.on_blocks(functools.partial(_mean_variances, stats), 2, a.n,
                       {"chunk": ((_VARIANCE_CHUNK,), float)})
    (mean_a, var_a), (mean_b, var_b) = stats

    # segment means of conj(X) Y, |X|^2 and |Y|^2, bins 0 and 1 mean-free
    leak = np.fft.rfft(window)[:2]
    low_a, low_b = (low - mean * leak
                    for low, mean in zip(csd.low_bins, (mean_a, mean_b)))
    cross = csd.values / scale
    cross[:2] = np.mean(np.conj(low_a) * low_b, axis=0)
    power_a, power_b = (psd.values / scale for psd in csd.psds)
    power_a[:2] = np.mean(np.abs(low_a) ** 2, axis=0)
    power_b[:2] = np.mean(np.abs(low_b) ** 2, axis=0)

    lags = np.arange(-j_max, j_max + 1)
    weight = _lagged_sums(window, size)[:j_max + 1]
    cov = np.fft.irfft(cross, size)[lags] / weight[np.abs(lags)]
    scale_ab = np.sqrt(var_a * var_b)
    normalized = cov / scale_ab if scale_ab > 0 else np.zeros_like(cov)
    bartlett = float(fs * np.sum(power_a * power_b * scale)
                     / (size * np.sum(window**2)))
    # sum over segment pairs (s, s + d) of the products of their weights on
    # the pairs (t, t + j) and on the wrapped pairs (t, t + j - L)
    overlap = np.zeros(j_max + 1)
    for d in range(min(k, -(-size // step))):
        sums = _lagged_sums(window[:size - d * step] * window[d * step:], size)
        overlap += (k if d == 0 else 2 * (k - d)) * (
            sums[:j_max + 1] + sums[:size - j_max - 1:-1])
    sigma_band = np.sqrt(bartlett * overlap) / (k * weight)
    n_eff = a.n * var_a * var_b / bartlett if bartlett > 0 else float(a.n)
    return CorrelationResult(
        lags=lags / fs, covariance=cov, normalized=normalized,
        sigma_band=sigma_band[np.abs(lags)], n_samples_effective=n_eff,
        variance_a=var_a, variance_b=var_b,
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
