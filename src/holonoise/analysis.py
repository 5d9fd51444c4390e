"""Spectral estimation and the cross-correlation detection pipeline.

Welch-averaged PSD/CSD/coherence estimates (one-sided, density scaling),
of whole records or, with the same bytes, of records fed a chunk at a time;
the lagged cross-correlation from the same pass with an analytic confidence
band, and a template-fit detection statistic: the least-squares amplitude
of the predicted spectrum against the real part of a measured
cross-spectrum, normalized so that under the null hypothesis the reported
SNR is standard normal.
"""

from __future__ import annotations

import functools
import math
import numbers
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
        if not (isinstance(self.segment_length, numbers.Integral)
                and self.segment_length >= 16):
            raise ConfigurationError(
                f"segment_length must be an integer >= 16, got "
                f"{self.segment_length!r}"
            )
        if not (isinstance(self.overlap_fraction, numbers.Real)
                and 0.0 <= self.overlap_fraction < 1.0):
            raise ConfigurationError(
                f"overlap_fraction must be a number in [0, 1), got "
                f"{self.overlap_fraction!r}"
            )
        if self.window not in WINDOWS:
            raise ConfigurationError(
                f"window must be one of {WINDOWS}, got {self.window!r}"
            )

    @property
    def noverlap(self) -> int:
        return int(self.overlap_fraction * self.segment_length)


#: Bytes that a Welch pass keeps to its end per segment: bins 0 and 1 of
#: both records' transforms (`SpectrumEstimate.low_bins`).
LOW_BIN_BYTES = 64


@dataclass
class SpectrumEstimate:
    """One-sided averaged spectrum on a uniform grid from 0 to Nyquist.

    `values` is real for PSDs and coherence, complex for CSDs.  `sigma` is the
    per-bin 1-sigma scale of the estimate (of the real part, for CSDs, under
    the independent-channels null); None where not defined.  `n_samples`
    is the record length of a Welch estimate.  `psds`, `low_bins`, `means`
    and `variances` are set only for CSDs: the PSD estimates of the two
    records from the same pass, each what `welch_psd` returns for that
    record, bins 0 and 1 of every segment's transform of each record
    (2 x K x 2), where a record mean leaks, and the two records' means and
    sample variances (1/N).
    """

    frequencies: np.ndarray
    values: np.ndarray
    n_segments: int
    sample_rate: float
    params: WelchParams
    kind: str = "psd"
    sigma: Optional[np.ndarray] = None
    n_samples: Optional[int] = None
    psds: Optional[tuple[SpectrumEstimate, SpectrumEstimate]] = None
    low_bins: Optional[np.ndarray] = None
    means: Optional[tuple[float, float]] = None
    variances: Optional[tuple[float, float]] = None

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


#: Bytes per segment sample that numpy's `rfft` holds over its output,
#: its plan and work buffer: a fresh process's peak RSS grew 40-44 bytes
#: per sample for one transform of 2**16 to 2**20-sample segments.
_RFFT_BYTES = 44


#: Welch segments transformed together.  32 segments of 4096 samples and
#: their spectra take about 2 MB.  On a 2-vCPU Xeon VM (2 MB of L2 per core)
#: blocks of 8 to 32 segments ran equally fast and 64 to 128 up to 40 %
#: slower, for one CSD of 5,995,849 samples.
_WELCH_BLOCK = 32


class _WelchPass:
    """The Welch pass over two synchronous records, fed a chunk of each at
    a time (`add`) and summed up by `finish`.

    Block j of `_WELCH_BLOCK` segments starts at sample j·hop, hop =
    `_WELCH_BLOCK`·step, and takes the mean and centred sum of squares of
    samples [j·hop, (j + 1)·hop) (a short last block: to the record's end).
    The blocks are summed by `_block_sums` on the usable CPUs as soon as a
    chunk completes their span, and the block sums are added to the
    totals, and the moments merged into each record's mean and variance
    (Chan et al.), in block order, from zero, so the result depends neither
    on the CPU count nor on where the chunks end.  The samples from the
    start of the first block not summed on, fewer than one block's span,
    are carried to the next chunk; a block is read in place from the carry
    or the chunk that holds it whole, or gathered from both (`_gather`).
    Bins 0 and 1 of every segment's transforms are kept.  Every work array
    is in an anonymous mapping (`_threads.mapped`).
    """

    def __init__(self, p: WelchParams):
        if p.segment_length > np.iinfo(np.intp).max:
            raise ValueError(f"every record is shorter than one segment "
                             f"({p.segment_length})")
        # the sample rate is the first chunk's
        self.sample_rate, self.p = None, p
        self.step = p.segment_length - p.noverlap
        self.hop = _WELCH_BLOCK * self.step
        self.span = (_WELCH_BLOCK - 1) * self.step + p.segment_length
        # the window, the density scale and the totals (|X|^2 of each
        # record, then conj(X) Y) are made with the first segments, so that
        # a record shorter than one is refused whatever the segment length
        self.totals = None
        # the work arrays of `_block_sums`; untouched rows are never paged in
        shape = (_WELCH_BLOCK, p.segment_length // 2 + 1)
        self.workspace = _threads.Workspace({
            "samples": ((2, self.span), float),
            "windowed": ((_WELCH_BLOCK, p.segment_length), float),
            "power": (shape, float), "power_imag": (shape, float),
            "spectrum0": (shape, complex), "spectrum1": (shape, complex),
            "centred": ((self.span,), float)})
        self.seen = 0   # samples added
        self.block = 0  # the first block not summed
        # each record's samples from the start of `block` on
        self.carry = np.empty((2, 0))
        self.lows = []
        # (samples, mean, centred sum of squares) of each record
        self.moments = [(0, 0.0, 0.0)] * 2

    def held_bytes(self, n: int, chunk: int) -> tuple[float, int]:
        """Memory this pass holds at most, fed two n-sample records in
        chunks of at most `chunk` samples, as (bytes per sample, bytes):
        `LOW_BIN_BYTES` per segment, which grow with n, and, whatever n,
        the work arrays of each thread that sums the blocks one chunk
        completes (`_RFFT_BYTES` and a block's gathered samples included),
        the old and the new carry, those blocks' sums and moments (`_sum`),
        and the spectra it keeps to its end; nothing for records shorter
        than a segment, which it refuses."""
        if n < self.p.segment_length:
            return 0, 0
        size, bins = self.p.segment_length, self.p.segment_length // 2 + 1
        blocks = -(-chunk // self.hop)
        threads = min(blocks, _threads.workers(blocks * self.hop))
        work = _RFFT_BYTES * size + _threads.nbytes(self.workspace.shapes)
        # a carry is shorter than a block's span, and the new one is made
        # from the old
        carries = 2 * 16 * self.span
        # per bin: a row of the three totals (two real spectra and a
        # complex one) for each block; and the three totals, the three
        # densities, the density scale and the frequencies, with the window
        sums = blocks * (32 * bins + 32)
        spectra = 8 * size + 80 * bins
        # a segment starts every `step` samples
        return (LOW_BIN_BYTES / self.step,
                threads * work + carries + sums + spectra)

    def add(self, chunk: tuple) -> None:
        """Take the next chunk of each record: an (a, b) pair of
        TimeSeries."""
        if not (isinstance(chunk, (tuple, list)) and len(chunk) == 2
                and all(isinstance(ts, TimeSeries) for ts in chunk)):
            got = ("(" + ", ".join(type(x).__name__ for x in chunk) + ")"
                   if isinstance(chunk, (tuple, list))
                   else type(chunk).__name__)
            raise ValueError(f"chunks must be (a, b) pairs of TimeSeries, "
                             f"got {got}")
        if self.sample_rate is None:
            self.sample_rate = chunk[0].sample_rate
        for ts in chunk:
            if ts.sample_rate != self.sample_rate:
                raise ValueError(f"sample rates differ: {self.sample_rate} "
                                 f"vs {ts.sample_rate}")
        if chunk[0].n != chunk[1].n:
            raise ValueError(f"record lengths differ: {chunk[0].n} vs "
                             f"{chunk[1].n}")
        self.seen += chunk[0].n
        # each record's samples from the start of `block` to `seen`
        pieces = [(carry, ts.values) for carry, ts in zip(self.carry, chunk)]
        # the blocks whose span the chunk completes
        done = max((self.seen - self.span) // self.hop + 1 - self.block, 0)
        self._sum(pieces, done * _WELCH_BLOCK)
        carry = _threads.mapped({"carry": (
            (2, self.seen - self.block * self.hop), float)})["carry"]
        start = done * self.hop
        for row, record in zip(carry, pieces):
            row[:] = _gather(record, start, start + row.size, row)
        self.carry = carry

    def _sum(self, pieces: list, count: int) -> None:
        """Sum the `count` segments from the start of `block` on, held in
        each record's `pieces`, into the totals and the moments, in block
        order, keep their bins 0 and 1, and move `block` past them."""
        if not count:
            return
        if self.totals is None:
            self.window = _window(self.p)
            self.scale = _density_scale(self.p, self.sample_rate)
            self.totals = [np.zeros(self.scale.size, dtype)
                           for dtype in (float, float, complex)]
        blocks = -(-count // _WELCH_BLOCK)
        # row i of "sum<c>" holds block i's sum, moments[c, i] the (mean,
        # centred sum of squares) of its samples of record c
        arrays = _threads.mapped({
            **{f"sum{c}": ((blocks, self.scale.size), total.dtype)
               for c, total in enumerate(self.totals)},
            "moments": ((len(self.moments), blocks, 2), float)})
        lows = np.empty((2, count, 2), dtype=complex)
        _threads.on_blocks(
            functools.partial(_block_sums, pieces, self.step, self.window,
                              lows, arrays),
            blocks, count * self.step, self.workspace)
        for c, total in enumerate(self.totals):
            for block_sum in arrays[f"sum{c}"]:
                total += block_sum
        self.lows.append(lows)
        size = sum(x.size for x in pieces[0])
        for c, moments in enumerate(arrays["moments"]):
            for i, (mean, m2) in enumerate(moments):
                # a short last block's samples run to the record's end
                self._merge(c, self.hop if (i + 1) * _WELCH_BLOCK <= count
                            else size - i * self.hop, mean, m2)
        self.block += blocks

    def _merge(self, c: int, size: int, mean: float, m2: float) -> None:
        """Merge `size` samples of mean `mean` and centred sum of squares
        `m2` into the moments of record c (Chan et al.)."""
        n, total_mean, total_m2 = self.moments[c]
        delta = mean - total_mean
        self.moments[c] = (n + size, total_mean + delta * (size / (n + size)),
                           total_m2 + m2 + delta * delta * (n * size
                                                            / (n + size)))

    def finish(self) -> None:
        """Sum the last block up: `densities` are then the one-sided
        densities of the two records and their cross-spectrum mean(conj(X)
        Y), averaged over the `n_segments` segments of the `seen` samples;
        `low_bins` holds bins 0 and 1 of each segment's X and Y (2 x K x 2)
        and `stats` the (mean, sample variance (1/N)) of each record."""
        self.n_segments = _segment_count(self.seen, self.p)
        # the last block, short of `_WELCH_BLOCK` segments, is in the carry
        rest = self.n_segments - self.block * _WELCH_BLOCK
        if rest:
            self._sum([(x,) for x in self.carry], rest)
        elif self.carry.size:
            # samples after the last block's segments
            work = self.workspace.run(0)["centred"]
            for c, x in enumerate(self.carry):
                self._merge(c, x.size, *_moments(x, work))
        self.frequencies = np.fft.rfftfreq(self.p.segment_length,
                                           1.0 / self.sample_rate)
        self.densities = [total / self.n_segments * self.scale
                          for total in self.totals]
        self.low_bins = np.concatenate(self.lows, axis=1)
        self.stats = [(mean, m2 / n) for n, mean, m2 in self.moments]


def _gather(pieces, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Samples [start, stop) of the joined `pieces`: a view of the piece
    that holds them all, else copied into `out`."""
    at = 0  # the sample the piece starts at
    for x in pieces:
        lo, hi = max(start - at, 0), min(stop - at, x.size)
        if lo < hi:
            if hi - lo == stop - start:
                return x[lo:hi]
            out[at + lo - start:at + hi - start] = x[lo:hi]
        at += x.size
    return out[:stop - start]


def _segment_spectra(chunks, p: WelchParams) -> _WelchPass:
    """Welch densities of two records and their cross-spectrum in one pass:
    the finished `_WelchPass` of the chunks, (a, b) pairs of TimeSeries, the
    successive chunks of the records."""
    welch = _WelchPass(p)
    try:
        chunks = iter(chunks)
    except TypeError:
        raise ValueError(f"expected an iterable of (a, b) pairs of "
                         f"TimeSeries, got {type(chunks).__name__}") from None
    for chunk in chunks:
        welch.add(chunk)
        del chunk  # before the next one is made
    if not welch.seen:
        raise ValueError("no records to estimate")
    welch.finish()
    return welch


def _block_sums(pieces: list, step: int, window: np.ndarray,
                lows: np.ndarray, arrays: dict, items: range,
                scratch: dict) -> None:
    """Sums over the segments of each block i in `items`, in place.

    pieces[c] holds record c's samples from block 0's start on.  Block i's
    segments start every `step` samples from i·hop (hop =
    `_WELCH_BLOCK`·step), as many as its span holds, up to
    `_WELCH_BLOCK`.  Row i of arrays["sum<c>"] gets its sum of |X|^2 for
    record c, row i of arrays["sum2"] its sum of conj(X) Y,
    arrays["moments"][c, i] the `_moments` of its samples of record c up to
    the next block's start (a short last block's: all of them), and the
    rows of `lows` of its segments (`_WELCH_BLOCK` a block) their bins 0
    and 1 of X and Y.  Each block is read in place or gathered into
    scratch["samples"] (`_gather`), and the work arrays are `scratch`'s, so
    no array data is allocated and a worker thread can run it.
    """
    hop = _WELCH_BLOCK * step
    span = (_WELCH_BLOCK - 1) * step + window.size
    size = sum(x.size for x in pieces[0])
    for i in items:
        spectra = []
        start = i * hop
        for c, record in enumerate(pieces):
            x = _gather(record, start, min(start + span, size),
                        scratch["samples"][c])
            segments = sliding_window_view(x, window.size)[::step]
            m = slice(segments.shape[0])
            windowed = np.multiply(segments, window,
                                   out=scratch["windowed"][m])
            spectrum = np.fft.rfft(windowed, axis=-1,
                                   out=scratch[f"spectrum{c}"][m])
            power = np.square(spectrum.real, out=scratch["power"][m])
            np.add(power, np.square(spectrum.imag,
                                    out=scratch["power_imag"][m]), out=power)
            np.sum(power, axis=0, out=arrays[f"sum{c}"][i])
            spectra.append(spectrum)
            samples = x[:hop] if m.stop == _WELCH_BLOCK else x
            arrays["moments"][c, i] = _moments(samples, scratch["centred"])
        rows = slice(i * _WELCH_BLOCK, i * _WELCH_BLOCK + m.stop)
        for c, spectrum in enumerate(spectra):
            lows[c, rows] = spectrum[:, :2]
        sx, sy = spectra
        product = np.multiply(np.conj(sx, out=sx), sy, out=sx)
        np.sum(product, axis=0, out=arrays["sum2"][i])


def _moments(x: np.ndarray, work: np.ndarray) -> tuple[float, float]:
    """The mean of x and its centred sum of squares, centred in `work`.
    numpy sums the squares: BLAS's sum order depends on its thread
    count."""
    mean = x.mean()
    d = np.subtract(x, mean, out=work[:x.size])
    return mean, np.sum(np.square(d, out=d))


def _psd_estimate(welch: _WelchPass, pxx: np.ndarray) -> SpectrumEstimate:
    n_seg, p = welch.n_segments, welch.p
    return SpectrumEstimate(
        frequencies=welch.frequencies, values=pxx, n_segments=n_seg,
        sample_rate=welch.sample_rate, params=p, kind="psd",
        sigma=pxx / np.sqrt(effective_segments(n_seg, p)),
        n_samples=welch.seen,
    )


def welch_psd(ts: TimeSeries, p: WelchParams = WelchParams()) -> SpectrumEstimate:
    """Averaged-periodogram one-sided PSD of record `ts`, in m^2/Hz, with
    segments, overlap and window `p`: `welch_csd(ts, ts, p).psds[0]`, so
    the paired pass makes every estimate.  Its `sigma` is values /
    sqrt(effective segments), the chi-squared scale of an averaged
    periodogram corrected for segment overlap.
    """
    if not isinstance(ts, TimeSeries):
        raise ValueError(f"expected a TimeSeries, got {type(ts).__name__}")
    return welch_csd(ts, ts, p).psds[0]


def welch_csd(a, b=None, p: WelchParams = WelchParams()) -> SpectrumEstimate:
    """Averaged one-sided cross-spectral density of two synchronous records.

    `a` and `b` are TimeSeries or, with `b` None, `a` is an iterable of
    (chunk of a, chunk of b) TimeSeries pairs, the successive chunks of the
    records (as `stream_dual` yields them); chunks give the bytes of their
    joined records.  One pass over both records gives the CSD and the PSDs
    of `a` and `b`, kept in `psds`; `welch_psd` of a record is the first of
    them with that record as both.  The attached `sigma` is sqrt(psd_a *
    psd_b / (2 K)) with K the effective (overlap-corrected) segment count:
    the standard deviation of the real part of each bin when the channels
    are independent.  It feeds the detection statistic's weights.
    """
    welch = _segment_spectra(a if b is None else [(a, b)], p)
    paa, pbb, pab = welch.densities
    n_seg = welch.n_segments
    (mean_a, var_a), (mean_b, var_b) = welch.stats
    return SpectrumEstimate(
        frequencies=welch.frequencies, values=pab, n_segments=n_seg,
        sample_rate=welch.sample_rate, params=p, kind="csd",
        sigma=np.sqrt(paa * pbb / (2.0 * effective_segments(n_seg, p))),
        n_samples=welch.seen,
        psds=(_psd_estimate(welch, paa), _psd_estimate(welch, pbb)),
        low_bins=welch.low_bins, means=(mean_a, mean_b),
        variances=(var_a, var_b),
    )


def coherence_from_csd(csd: SpectrumEstimate) -> SpectrumEstimate:
    """Magnitude-squared coherence of a `welch_csd` estimate and its `psds`.

    |CSD|^2 / (PSD_a PSD_b), clipped to [0, 1]; a silent channel has zero
    power and, by convention, zero coherence.  Any other estimate is a
    `ValueError`.
    """
    if csd.psds is None:
        raise ValueError(f"coherence_from_csd takes a cross-spectrum with its "
                         f"psds (a welch_csd estimate), got a {csd.kind} "
                         "estimate")
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


def _lagged_sums(v: np.ndarray, size: int) -> np.ndarray:
    """sum_n v_n v_{n+k} for k in [0, size], for v no longer than size."""
    spectrum = np.fft.rfft(v, 2 * size)
    return np.fft.irfft(spectrum.real**2 + spectrum.imag**2,
                        2 * size)[:size + 1]


def cross_correlation(csd: SpectrumEstimate,
                      max_lag: float) -> CorrelationResult:
    """Lagged cross-covariance of two records out to +-max_lag seconds.

    `csd` is the records' `welch_csd(a, b, p)`, which holds all that is
    needed, their means and variances too.  At lag j, the inverse FFT of the
    segments' summed conj(X) Y, with bins 0 and 1 (where the means leak)
    taken mean-free from `csd.low_bins`, sums their circular products
    w_n w_{n+j} a_n b_{n+j};
    divided by K sum_n w_n w_{n+|j|} it is the covariance.  The wrapped
    products pair samples most of a segment apart and add only zero-mean
    noise.  Positive lags mean features in `a` lead those in `b`; max_lag
    is at most a quarter segment.  The band's variance is Bartlett's sum_k
    c_aa(k) c_bb(k), from the mean-free PSDs, times sum_t g_t^2 / (sum_t
    g_t)^2 for the summed segment weights g_t of the products, wrapped ones
    included: about 1.056 / N for hann at half overlap.
    """
    p, fs, k = csd.params, csd.sample_rate, csd.n_segments
    if csd.low_bins is None:
        raise ValueError("csd must be a welch_csd estimate")
    size, step = p.segment_length, p.segment_length - p.noverlap
    j_max = int(round(max_lag * fs)) if 0.0 < max_lag * fs < math.inf else 0
    if not 1 <= j_max <= size / 4:
        raise ConfigurationError(
            f"max_lag {max_lag} s must span 1 to segment_length/4 = "
            f"{size / 4:g} samples; lower max_lag or raise segment_length")
    window, scale = _window(p), _density_scale(p, fs)
    (mean_a, mean_b), (var_a, var_b) = csd.means, csd.variances

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
    n = csd.n_samples
    n_eff = n * var_a * var_b / bartlett if bartlett > 0 else float(n)
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
        Cross-spectrum with `sigma` populated (as from `welch_csd`); any
        other estimate is a `ValueError`.
    model : HolographicSpectrum or array
        Zero-parameter prediction to fit: a spectrum, whose `one_sided_psd`
        is the template, or the template at the estimate's frequencies.
    band : (f_lo, f_hi)
        Frequency band of the fit, inclusive.
    """
    if csd.kind != "csd" or csd.sigma is None:
        raise ValueError(
            f"detection_significance fits a cross-spectrum with its null "
            f"sigma (a welch_csd estimate), got a {csd.kind} estimate"
            + (" without sigma" if csd.sigma is None else ""))
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
    template = (np.asarray(one_sided_psd(model, freqs))
                if isinstance(model, HolographicSpectrum)
                else np.asarray(model, dtype=float)[mask])
    sigma = np.asarray(csd.sigma)[mask]
    n_zero = int(np.sum(sigma == 0.0))
    if n_zero:
        raise ValueError(
            f"band ({f_lo}, {f_hi}) Hz contains {n_zero} zero-variance "
            "bins, which cannot be weighted"
        )
    weights = 1.0 / sigma**2
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
