"""Spectral estimation and the cross-correlation detection pipeline.

Welch-averaged PSD/CSD/coherence estimates (one-sided, density scaling),
lagged cross-correlation with analytic confidence bands, and a template-fit
detection statistic: the least-squares amplitude of the predicted spectrum
against the real part of a measured cross-spectrum, normalized so that under
the null hypothesis the reported SNR is standard normal.
"""

from __future__ import annotations

import functools
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
    when y is None.  The sums of |X|^2, |Y|^2 and conj(X) Y are taken over
    blocks of `_WELCH_BLOCK` segments, so the working memory is a few
    blocks and one sum per block (about N bytes, an eighth of the record,
    at half overlap).  Contiguous runs of blocks go to the usable CPUs, the first to
    the calling thread; the block sums are then added in block order, so
    the result does not depend on the CPU count.
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

    segments = [sliding_window_view(x, p.segment_length)[::step]]
    if y is not None:
        segments.append(sliding_window_view(y, p.segment_length)[::step])
    n_blocks = -(-n_seg // _WELCH_BLOCK)
    runs = _threads.runs(n_blocks, _threads.workers(x.size))
    tasks = [functools.partial(_block_sums, segments, window, runs[0])]
    tasks += [functools.partial(_block_sums, segments, window, run,
                                _scratch(len(segments), len(run),
                                         min(n_seg, _WELCH_BLOCK),
                                         p.segment_length))
              for run in runs[1:]]
    sums = [np.zeros(scale.size) for _ in segments]
    if y is not None:
        sums.append(np.zeros(scale.size, dtype=complex))
    for run_sums in _threads.run_all(tasks, x.size):
        for block in run_sums:
            for total, term in zip(sums, block):
                total += term
    sum_xx = sums[0]
    if y is not None:
        sum_yy, sum_xy = sums[1:]

    f = np.fft.rfftfreq(p.segment_length, 1.0 / fs)
    pxx = sum_xx / n_seg * scale
    if y is None:
        return f, pxx, None, None, n_seg
    return f, pxx, sum_yy / n_seg * scale, sum_xy / n_seg * scale, n_seg


def _scratch(n_records: int, n_blocks: int, rows: int,
             segment_length: int) -> dict:
    """Work arrays and block sums for `_block_sums` on a worker thread.

    Blocks of `rows` segments; row i of "sum<c>" holds block i's sum.
    """
    bins = segment_length // 2 + 1
    shapes = {"windowed": ((rows, segment_length), float),
              "power": ((rows, bins), float),
              "power_imag": ((rows, bins), float)}
    for c in range(n_records):
        shapes[f"spectrum{c}"] = ((rows, bins), complex)
        shapes[f"sum{c}"] = ((n_blocks, bins), float)
    if n_records == 2:
        shapes["sum2"] = ((n_blocks, bins), complex)
    return _threads.mapped(shapes)


def _block_sums(segments: list, window: np.ndarray, blocks: np.ndarray,
                scratch: Optional[dict] = None) -> list:
    """Sums over the segments of each block in `blocks`.

    Returns, per block, the sum of |X|^2 for each record and, for two
    records, the sum of conj(X) Y.  Without `scratch` the work arrays are
    allocated per block.  With arrays from `_scratch` the sums are rows of
    them and no array data is allocated, so that a worker thread can run it.
    """
    def out(name, index):
        return None if scratch is None else scratch[name][index]

    sums = []
    for k, i in enumerate(blocks):
        rows = slice(i * _WELCH_BLOCK, (i + 1) * _WELCH_BLOCK)
        m = slice(segments[0][rows].shape[0])
        terms, spectra = [], []
        for c, seg in enumerate(segments):
            windowed = np.multiply(seg[rows], window, out=out("windowed", m))
            spectrum = np.fft.rfft(windowed, axis=-1,
                                   out=out(f"spectrum{c}", m))
            power = np.square(spectrum.real, out=out("power", m))
            power = np.add(power, np.square(spectrum.imag,
                                            out=out("power_imag", m)),
                           out=power)
            terms.append(np.sum(power, axis=0, out=out(f"sum{c}", k)))
            spectra.append(spectrum)
        if len(spectra) == 2:
            sx, sy = spectra
            product = np.multiply(np.conj(sx, out=sx), sy, out=sx)
            terms.append(np.sum(product, axis=0, out=out("sum2", k)))
        sums.append(terms)
    return sums


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
    sum of their sample autocovariances.  `variance_a` and `variance_b` are
    the records' sample variances (1/N), their lag-zero auto-covariances.
    """

    lags: np.ndarray
    covariance: np.ndarray
    normalized: np.ndarray
    sigma_band: np.ndarray
    n_samples_effective: float
    variance_a: float
    variance_b: float


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
#: chunk matrices (the chunk length is a multiple of it).  A chunk's two
#: centred buffers take 260 kB and stay in the L2 cache.  Measured
#: single-threaded on a 2-vCPU Xeon VM, for N = 5,995,849 at 32 lags and
#: N = 1,600,000 at 17: chunks of 16384 samples took 94-120 and 22-33 ms;
#: chunks of 4096 or 8192 samples took up to 1.5 times as long, chunks of
#: 32768 to 131072 up to 2.4 times; rows of 16 samples took up to 1.15
#: times as long as rows of 32, rows of 64 up to 2.4 times.
_LAG_CHUNK = 16384
_LAG_ROW = 32

#: Lag count from which the padded transforms beat the chunked products.
#: The products cost O(N max_bins), the transforms O(N log N).  Measured
#: single-threaded on a 2-vCPU Xeon VM: at N = 1,600,000 (an FFT-friendly
#: length) the two tie near 900 lags (0.31 s against 0.32 s at 896) and the
#: transforms win at 1024 (0.21 s against 0.23 s); at N = 5,995,849
#: (17 * 19**2 * 977) the products win at 1024 (0.85 s against 1.15 s) and
#: lose from 1408 (1.82 s against 1.65 s).
_FFT_MIN_LAGS = 1024


def _centred(v: np.ndarray, mean: float, start: int, out: np.ndarray) -> None:
    """out[t] = v[start + t] - mean, and zero where start + t leaves v."""
    lo, hi = max(start, 0), min(start + out.size, v.size)
    out[:lo - start] = 0.0
    np.subtract(v[lo:hi], mean, out=out[lo - start:hi - start])
    out[hi - start:] = 0.0


def _lagged_covariances(x: np.ndarray, y: np.ndarray, mean_x: float,
                        mean_y: float, max_bins: int):
    """Biased lagged covariances of the centred records x - mean_x and
    y - mean_y: (u, v), (u, u) and (v, v).

    Each is r[j] = (1/N) sum_t u_t v_{t+j}.  Returns r_uv for j in
    [-max_bins, max_bins] and, since auto-covariances are even, r_uu and
    r_vv for j in [0, max_bins] only.  The records are read, never copied
    whole: each chunk or padded buffer is centred as it is filled.

    Below `_FFT_MIN_LAGS` lags the sums are direct, one chunk of
    `_LAG_CHUNK` samples at a time.  A chunk's samples, and the J =
    max_bins on either side of them, are centred into a buffer that is cut
    into rows of R = `_LAG_ROW` samples.  With u_k the k-th row of the
    chunk and w_k the k-th row of the buffer, which starts J samples
    earlier, the R x R column block q of G[i, m] = sum_k u_k[i] w_{k+q}[m]
    is one matrix product on contiguous rows, and lag j is the sum of the
    diagonal m = i + J + j of G.  Contiguous runs of chunks go to the
    usable CPUs; each chunk's lag sums are kept and added in chunk order,
    so the result does not depend on the CPU count.  From `_FFT_MIN_LAGS`
    lags on, each record is transformed once instead, zero-padded to at
    least N + max_bins so the circular products are free of wrap-around at
    the lags kept.
    """
    n = x.size
    if max_bins >= _FFT_MIN_LAGS:
        m = _smooth_length(n + max_bins)
        padded = np.empty(m)
        _centred(x, mean_x, 0, padded)
        fx = np.fft.rfft(padded)
        _centred(y, mean_y, 0, padded)
        fy = np.fft.rfft(padded)
        del padded

        def lags(spectrum, negative):
            r = np.fft.irfft(spectrum, m)
            return np.concatenate([r[m - negative:], r[:max_bins + 1]]) / n

        return (lags(np.conj(fx) * fy, max_bins),
                lags(fx.real**2 + fx.imag**2, 0),
                lags(fy.real**2 + fy.imag**2, 0))

    row = _LAG_ROW
    # G's R x R blocks, as (u, v, q): u's chunk rows times v's buffer rows
    # from row q on; the cross products, then each record's auto products
    # from the first block with a lag >= 0
    blocks = -(-(row + 2 * max_bins) // row)
    first = max_bins // row
    products = ([(0, 1, q) for q in range(blocks)]
                + [(c, c, q) for c in (0, 1) for q in range(first, blocks)])

    def diagonal(j, block0):
        m = np.arange(row) + max_bins + j[:, None]
        return ((block0 + m // row) * row + np.arange(row)) * row + m % row

    auto = np.arange(max_bins + 1)
    index = np.concatenate([
        diagonal(np.arange(-max_bins, max_bins + 1), 0),
        diagonal(auto, blocks - first),
        diagonal(auto, 2 * (blocks - first))])
    n_chunks = -(-n // _LAG_CHUNK)
    buffer = ((min(_LAG_CHUNK, n + row - 1) // row + blocks - 1) * row,)
    shapes = {"g": ((len(products), row, row), float),
              "gathered": (index.shape, float),
              "buffer0": (buffer, float), "buffer1": (buffer, float)}
    sums = np.empty((n_chunks, index.shape[0]))
    runs = _threads.runs(n_chunks, _threads.workers(n))
    records = ((x, mean_x), (y, mean_y))
    _threads.run_all([functools.partial(_chunk_lags, records, max_bins,
                                        products, index, run, sums,
                                        _threads.mapped(shapes))
                      for run in runs], n)
    total = np.sum(sums, axis=0) / n
    return (total[:2 * max_bins + 1], total[2 * max_bins + 1:3 * max_bins + 2],
            total[3 * max_bins + 2:])


def _chunk_lags(records: tuple, max_bins: int, products: list,
                index: np.ndarray, chunks: np.ndarray, sums: np.ndarray,
                scratch: dict) -> None:
    """Lag sums of each chunk in `chunks`, into row `chunk` of `sums`.

    `records` holds the (values, mean) of both records, and `products` and
    `index` are the blocks of G and the picks of their lags, all as
    `_lagged_covariances` describes.  The work arrays are those of
    `scratch` (from `_threads.mapped`) and the rows of `sums` belong to
    these chunks alone, so no array data is allocated and a worker thread
    can run it.
    """
    row = _LAG_ROW
    g, gathered = scratch["g"], scratch["gathered"]
    n = records[0][0].size
    for chunk in chunks:
        start = chunk * _LAG_CHUNK
        k = min(_LAG_CHUNK, n - start + row - 1) // row
        chunk_rows, buffer_rows = [], []
        for c, (values, mean) in enumerate(records):
            buffer = scratch[f"buffer{c}"]
            _centred(values, mean, start - max_bins, buffer)
            chunk_rows.append(
                buffer[max_bins:max_bins + k * row].reshape(k, row).T)
            buffer_rows.append(buffer.reshape(-1, row))
        for block, (u, v, q) in enumerate(products):
            np.matmul(chunk_rows[u], buffer_rows[v][q:q + k], out=g[block])
        np.take(g.reshape(-1), index, out=gathered, mode="clip")
        np.sum(gathered, axis=1, out=sums[chunk])


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
    cov, cxx, cyy = _lagged_covariances(a.values, b.values, a.values.mean(),
                                        b.values.mean(), j_max)
    lags = np.arange(-j_max, j_max + 1) / a.sample_rate

    var_x = float(cxx[0])
    var_y = float(cyy[0])
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
        variance_a=var_x, variance_b=var_y,
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
