"""Sampled realizations of the predicted displacement noise.

Two constructions are provided and must agree statistically.  Both sum
one white Gaussian driver over one light round trip of w = 2L/c * fs
samples, whole or not:

* spectral: the round-trip window band-limited to Nyquist, a linear
  filter whose PSD below Nyquist is `analytic_psd`;
* boxcar: the window itself, a linear moving sum, which reproduces the
  triangular autocorrelation exactly at the sample lags.

Each reads the driver ahead of each sample, so a record is stationary from
its first sample, and is made a block at a time, so any stretch of it can
be made alone.

`synthesize` makes every record: each method declares a block filter
(`_filter`), and records must span ten coherence times (`SynthesisConfig`).

Every random number is drawn in blocks of `_BLOCK` samples: block b of
channel c of a seed comes from a generator of its own,
`SeedSequence(seed, spawn_key=(c, b))`, the b-th child of the channel's
`SeedSequence`.  Any block can therefore be drawn on any thread, and a record
does not depend on how its blocks are shared among the CPUs.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _threads
from .algebra import CONSTANTS
from .errors import (
    ConfigurationError,
    check_fits_in_memory,
    check_positive_finite,
)
from .noise_model import HolographicSpectrum, one_sided_psd
from .noise_model import analytic_psd  # noqa: F401 (a name perfbench wraps)

METHODS = ("spectral", "boxcar")

#: Minimum record length in units of the coherence time 2L/c.
MIN_COHERENCE_TIMES = 10.0


@dataclass
class TimeSeries:
    """Uniformly sampled displacement record in meters."""

    sample_rate: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        check_positive_finite("sample_rate", self.sample_rate)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a nonempty 1-d array")
        # one pass and no record-size mask: a finite sum has finite terms;
        # when the sum is not, the extremes tell an overflow of finite
        # terms from a NaN, which min propagates, or an infinity
        v = self.values
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(v)
        if not (np.isfinite(total)
                or np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError("values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def duration(self) -> float:
        return self.n / self.sample_rate

    def times(self) -> np.ndarray:
        return np.arange(self.n) / self.sample_rate


@dataclass(frozen=True)
class SynthesisConfig:
    """Parameters of one synthesized record, checked when it is built.

    The sample rate must resolve the spectrum (at least 4 x c/2L) and the
    record must span `MIN_COHERENCE_TIMES` coherence times 2L/c; any other
    value raises ConfigurationError, also through `dataclasses.replace`.
    """

    L: float
    sample_rate: float
    n_samples: int
    seed: int
    method: str = "spectral"

    def __post_init__(self):
        spec = self.spectrum()
        _seed_sequence(self.seed, 0)
        check_positive_finite("sample_rate", self.sample_rate)
        if self.method not in METHODS:
            raise ConfigurationError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if (not isinstance(self.n_samples, (int, np.integer))
                or isinstance(self.n_samples, bool) or self.n_samples < 1):
            raise ConfigurationError(
                f"n_samples must be a positive integer, got {self.n_samples!r}")
        first_zero = float(spec.zeros(1)[0])
        if self.sample_rate < 4.0 * first_zero:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate:g} Hz does not resolve the "
                f"spectrum: need at least 4 x c/2L = {4 * first_zero:g} Hz"
            )
        if _too_short(self.n_samples, self.sample_rate, spec):
            duration = (min(self.n_samples, sys.float_info.max)
                        / self.sample_rate)
            raise ConfigurationError(
                f"record of {duration:g} s is shorter than "
                f"{MIN_COHERENCE_TIMES:g} coherence times "
                f"({MIN_COHERENCE_TIMES * spec.coherence_time:g} s)"
            )

    def spectrum(self) -> HolographicSpectrum:
        return HolographicSpectrum(self.L)


def _too_short(n_samples: int, sample_rate: float,
              spec: HolographicSpectrum) -> bool:
    """Whether n_samples at sample_rate span fewer than `MIN_COHERENCE_TIMES`
    coherence times of `spec`, too few for a record."""
    # a count beyond the float range is left to the size guard
    duration = min(n_samples, sys.float_info.max) / sample_rate
    return duration < MIN_COHERENCE_TIMES * spec.coherence_time


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The SeedSequence of seed with spawn key `key`; the one seed check."""
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or seed < 0):
        raise ConfigurationError(
            f"seed must be a non-negative integer, got {seed!r}"
        )
    return np.random.SeedSequence(entropy=int(seed),
                                  spawn_key=tuple(int(k) for k in key))


def channel_seed(seed: int, channel: int) -> int:
    """64-bit integer seed for the (seed, channel) substream."""
    state = _seed_sequence(seed, channel).generate_state(1, dtype=np.uint64)
    return int(state[0])


def white_noise_psd() -> float:
    """Two-sided PSD 2 c^2 t_P / pi of the white driver, in (m/s)^2/Hz.

    This diffusion normalization is fixed by requiring the windowed output to
    hit the spectral plateau 8 t_P L^2 / pi; it is independent of arm length.
    """
    return 2.0 * CONSTANTS.c**2 * CONSTANTS.t_P / np.pi


#: Samples per block of every channel's draws, and per unit of threaded
#: work.  Chosen by measurement; changing it changes every record.
_BLOCK = 1 << 16


def _fill_normal(out: np.ndarray, seed: int, channel: int,
                 first_block: int) -> None:
    """Fill `out` with the (seed, channel) stream's standard normals from
    the start of block `first_block` on, in place.

    Block b holds the draws of a generator keyed (seed, (channel, b)); a
    block that `out` ends inside contributes its first draws.  Filling a
    buffer allocates no array data, so a worker thread can run it.
    """
    for k, start in enumerate(range(0, out.size, _BLOCK)):
        rng = np.random.Generator(np.random.PCG64(
            _seed_sequence(seed, channel, first_block + k)))
        rng.standard_normal(out=out[start:start + _BLOCK])


#: Taps of the spectral filter beyond each end of its window (`_taps`),
#: chosen by measurement: at w = 4.27 the filter's PSD was 7.4e-5, 1.9e-5,
#: 4.7e-6 and 1.2e-6 off in the default band with 256, 1,024, 4,096 and
#: 16,384.  Changing it changes every spectral record.
_SIDE_TAPS = 4096


def _sine_integral(x: np.ndarray) -> np.ndarray:
    """Si(x), the integral of sin(t)/t from 0 to x, to about 2e-15: below
    |x| = 48 by 16 Gauss-Legendre pieces of 16 nodes, above it by twelve
    terms of the asymptotic f and g of Si = pi/2 - f cos|x| - g sin|x|."""
    a = np.abs(x)
    out = np.empty_like(a)
    near = a < 48.0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    at = (np.arange(16)[:, None] + (nodes + 1.0) / 2.0).ravel() / 16.0
    out[near] = (np.sinc(np.outer(a[near], at) / np.pi)
                 @ np.tile(weights, 16)) * (a[near] / 32.0)
    far = a[~near]
    inverse = 1.0 / far**2
    f = g = 0.0
    for k in reversed(range(12)):
        f = f * inverse + (-1) ** k * math.factorial(2 * k)
        g = g * inverse + (-1) ** k * math.factorial(2 * k + 1)
    out[~near] = np.pi / 2.0 - f / far * np.cos(far) - g * inverse * np.sin(far)
    return np.copysign(out, x)


def _taps(width: float) -> np.ndarray:
    """The spectral filter of a window of w = `width` samples: g[k], the
    integral of sinc(u - k) over u in [0, w], (Si(pi (w - k)) + Si(pi k))
    / pi, at k = -`_SIDE_TAPS` to `_SIDE_TAPS` + floor(w), in order."""
    k = np.arange(-_SIDE_TAPS, _SIDE_TAPS + int(width) + 1, dtype=float)
    return (_sine_integral(np.pi * (width - k))
            + _sine_integral(np.pi * k)) / np.pi


@functools.lru_cache(maxsize=4)
def _spectral_filter(width: float, scale: float) -> np.ndarray:
    """The spectral filter of `width` samples: the transform of its taps
    (`_taps`) on the frame of its work arrays, conjugated and scaled by
    `scale`, read only; built once per (width, scale), so per width and
    sample rate, while it is among the last four asked for."""
    (size,), _ = _work_arrays("spectral", width)["frame"]
    response = np.fft.rfft(_taps(width), size).conj()
    response *= scale
    response.flags.writeable = False
    return response


def _spectral_blocks(values: np.ndarray, seed: int, first: int,
                     response: np.ndarray, blocks: range,
                     scratch: dict) -> None:
    """Blocks `blocks` of `values`, the spectral record (`synthesize_spectral`)
    from block `first` on, filtered by `response`.  Block k is record block
    first + k, whose driver, its own and the samples that the taps read
    ahead, redrawn, is filtered by overlap-save in `scratch`.
    """
    frame, spectrum = scratch["frame"], scratch["spectrum"]
    size = frame.size
    ahead = scratch["driver"].size - _BLOCK  # the taps but one
    hop = size - ahead
    for k in blocks:
        out = values[k * _BLOCK:(k + 1) * _BLOCK]
        driver = scratch["driver"][:out.size + ahead]
        _fill_normal(driver, seed, 0, first + k)
        for start in range(0, out.size, hop):
            np.fft.rfft(driver[start:start + size], n=size, out=spectrum)
            spectrum *= response
            np.fft.irfft(spectrum, n=size, out=frame)
            part = out[start:start + hop]
            part[...] = frame[:part.size]


def synthesize_spectral(cfg: SynthesisConfig, first_block: int = 0
                        ) -> TimeSeries:
    """The round-trip window band-limited to Nyquist: a linear filter of
    white Gaussian noise whose PSD below Nyquist is `analytic_psd`.

    The driver is the boxcar's (`synthesize_boxcar`); sample i sums driver
    samples i + K + k, K = `_SIDE_TAPS`, weighted by the taps g[k] of
    `_taps` for the window of w = 2L/c * fs samples, and scaled by 1/fs:
    a PSD of plateau * sinc^2(f 2L/c) below Nyquist, up to the taps'
    truncation; made by `synthesize`, from block `first_block` on.
    """
    if cfg.method != "spectral":
        raise ConfigurationError(f"spectral synthesis got method={cfg.method!r}")
    return synthesize(cfg, first_block)


def boxcar_width(cfg: SynthesisConfig) -> float:
    """Samples in one coherence time, w = 2L/c * fs, the boxcar's width.

    A width within float rounding of an integer is that integer, so that a
    rate chosen to make 2L/c * fs integral sums whole samples.
    """
    return _width(cfg.spectrum(), cfg.sample_rate)


def _width(spec: HolographicSpectrum, sample_rate: float) -> float:
    w = spec.coherence_time * sample_rate
    return (w if abs(w - round(w)) > 8 * sys.float_info.epsilon * w
            else float(round(w)))


def record_psd(spec: HolographicSpectrum, sample_rate: float, method: str,
               f) -> np.ndarray:
    """One-sided PSD (m^2/Hz) at f >= 0 Hz of the records that `method`
    makes of `spec` at `sample_rate`: the template a run fits.

    A spectral record has `one_sided_psd` below Nyquist, to the taps'
    truncation (`synthesize_spectral`).  A boxcar record has the
    sampled triangle's spectrum, the (2m + 1)-term cosine sum over lags
    k/fs of `analytic_autocorrelation`, over fs; with theta = 2 pi f/fs,
    w = m + phi (`boxcar_width`) and D = sin(m theta/2) / sin(theta/2) (m
    at 0): plateau (D^2 + 2 phi D cos((m + 1) theta/2) + phi) / w^2, twice
    that above 0 Hz.  A negative or NaN frequency raises ValueError.
    """
    f = np.asarray(f, dtype=float)
    # one_sided_psd refuses a negative or NaN frequency for both methods
    model = np.asarray(one_sided_psd(spec, f))
    if method == "spectral":
        return model
    width = _width(spec, sample_rate)
    m = int(width)
    phi = width - m
    # theta/2 in [0, pi): the sum has period fs in f
    half = np.pi * np.mod(f / sample_rate, 1.0)
    sine = np.sin(half)
    d = np.divide(np.sin(m * half), sine, out=np.full_like(half, m),
                  where=sine != 0.0)
    two_sided = spec.plateau * (
        d * (d + 2.0 * phi * np.cos((m + 1) * half)) + phi) / width**2
    return np.where(f > 0, 2.0 * two_sided, two_sided)


def _moving_sum(driver: np.ndarray, width: int, out: np.ndarray) -> None:
    """out[i] = driver[i] + driver[i+1] + ... + driver[i+width-1].

    `driver` holds out.size + width - 1 samples and is overwritten.  Sums of
    2**b consecutive samples are built by binary doubling in place, and the
    set bits of `width` pick the sums that tile the window: O(log2 width)
    passes over the block and no transform.
    """
    m = out.size
    # the loop keeps driver[i] = (sum of 2**b original samples from i) for
    # i < length; an ascending in-place add reads only unwritten samples
    length = driver.size
    size, offset = 1, 0
    first = True
    while True:
        if width & size:
            part = driver[offset:offset + m]
            if first:
                np.copyto(out, part)
                first = False
            else:
                out += part
            offset += size
        if 2 * size > width:
            return
        length -= size
        np.add(driver[:length], driver[size:size + length],
               out=driver[:length])
        size *= 2


def _boxcar_blocks(values: np.ndarray, seed: int, first: int,
                   width: float, scale: float, blocks: range,
                   scratch: dict) -> None:
    """Blocks `blocks` of `values`, the boxcar record of `width` samples
    (`synthesize_boxcar`) from block `first` on, scaled by `scale`.  Block
    k is record block first + k, whose driver, its own and the samples
    after it, redrawn, and channel-1 stream are drawn into `scratch`, so
    nothing is allocated."""
    m = int(width)
    phi = width - m
    for k in blocks:
        out = values[k * _BLOCK:(k + 1) * _BLOCK]
        driver = scratch["driver"][:out.size + m - 1 + (phi > 0)]
        _fill_normal(driver, seed, 0, first + k)
        if phi:
            # phi (sqrt((1 - phi)/phi) e + d), before the sum overwrites d
            tail = scratch["tail"][:out.size]
            _fill_normal(tail, seed, 1, first + k)
            tail *= np.sqrt((1.0 - phi) / phi)
            tail += driver[m:]
            tail *= phi
        _moving_sum(driver[:out.size + m - 1], m, out)
        if phi:
            out += tail
        out *= scale


def synthesize_boxcar(cfg: SynthesisConfig, first_block: int = 0
                      ) -> TimeSeries:
    """White Gaussian noise summed over a sliding light-round-trip window.

    The white driver has two-sided PSD 2 c^2 t_P / pi; its linear moving
    sum over one round trip of w = m + phi samples (`boxcar_width`, m
    whole), scaled by 1/fs, gives a record whose autocovariance is the
    model's triangle at the sample lags, sigma^2 (1 - |k|/w)^+, exactly.
    Sample i sums driver samples i to i + m - 1, the channel-0 stream of
    `cfg.seed`, phi times sample i + m and sqrt(phi (1 - phi)) times
    sample i of its channel 1, drawn only when phi > 0; made by
    `synthesize`, from block `first_block` on.
    """
    if cfg.method != "boxcar":
        raise ConfigurationError(f"boxcar synthesis got method={cfg.method!r}")
    return synthesize(cfg, first_block)


def _work_arrays(method: str, width: float) -> dict:
    """The {name: (shape, dtype)} work arrays of one thread that runs the
    blocks of a `method` stream of a window of `width` samples."""
    m = int(width)
    if method == "spectral":
        taps = 2 * _SIDE_TAPS + m + 1
        # frames of 2 to 4 times the taps: on a 2-vCPU Xeon VM a block took
        # 2.2, 1.6, 2.2 and 3.8 ms through 8,197 taps in frames of 2**14-2**17
        size = 1 << (2 * taps - 1).bit_length()
        return {"driver": ((_BLOCK + taps - 1,), float),
                "spectrum": ((size // 2 + 1,), complex),
                "frame": ((size,), float)}
    fractional = int(width > m)
    return {"driver": ((_BLOCK + m - 1 + fractional,), float),
            "tail": ((_BLOCK * fractional,), float)}


def _filter(method: str, width: float, sample_rate: float) -> tuple:
    """The block filter of a `method` stream of a window of `width`
    samples at `sample_rate`: (kernel, args, shapes), where
    kernel(values, seed, first, *args, blocks, scratch) makes blocks
    `blocks` of `values`, the record of `seed` from block `first` on, in
    the work arrays of `shapes` (`_work_arrays`)."""
    shapes = _work_arrays(method, width)
    scale = np.sqrt(white_noise_psd() * sample_rate) / sample_rate
    if method == "spectral":
        return _spectral_blocks, (_spectral_filter(width, scale),), shapes
    return _boxcar_blocks, (width, scale), shapes


def synthesize(cfg: SynthesisConfig, first_block: int = 0) -> TimeSeries:
    """The record of `cfg`, of either method: its blocks filtered
    (`_filter`) on the usable CPUs into a mapped record.  Given
    `first_block`, it is samples first_block * _BLOCK on of the longer
    record of `cfg.seed`: a record can be made a piece at a time.  One too
    large for physical memory (8 bytes per sample) raises
    ConfigurationError before anything is allocated."""
    n = cfg.n_samples
    check_fits_in_memory("n_samples", n, n, 8)
    kernel, args, shapes = _filter(cfg.method, boxcar_width(cfg),
                                   cfg.sample_rate)
    values = _threads.mapped({"values": ((n,), float)})["values"]
    _threads.on_blocks(
        functools.partial(kernel, values, cfg.seed, first_block, *args),
        -(-n // _BLOCK), n, _threads.Workspace(shapes))
    return TimeSeries(sample_rate=cfg.sample_rate, values=values)
