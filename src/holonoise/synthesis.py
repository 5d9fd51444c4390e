"""Sampled realizations of the predicted displacement noise.

Two independent constructions are provided and must agree statistically:

* spectral: Gaussian amplitudes drawn per frequency bin so that the expected
  two-sided periodogram equals `analytic_psd` exactly on the record's grid;
  the record is one inverse FFT, so it is circular (periodic);
* boxcar: a linear moving sum of white Gaussian noise over one light
  round-trip time, which reproduces the triangular autocorrelation exactly
  at the sample lags; the driver starts width - 1 samples before the record
  (a pre-roll), so the record is stationary from its first sample.

Records must be long compared to the coherence time, which the config
invariants enforce.

Every random number is drawn in blocks of `_BLOCK` samples: block b of
channel c of a seed comes from a generator of its own,
`SeedSequence(seed, spawn_key=(c, b))`, the b-th child of the channel's
`SeedSequence`.  Any block can therefore be drawn on any thread, and a record
does not depend on how its blocks are shared among the CPUs.
"""

from __future__ import annotations

import functools
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
from .noise_model import HolographicSpectrum, analytic_psd

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
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be at least 1")
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


def _draw_blocks(out: np.ndarray, seed: int, blocks: np.ndarray,
                 scratch: dict) -> None:
    """Blocks `blocks` of `out` from the channel-0 stream of `seed`; no
    work arrays (`scratch` is empty)."""
    for b in blocks:
        _fill_normal(out[b * _BLOCK:(b + 1) * _BLOCK], seed, 0, b)


def synthesize_spectral(cfg: SynthesisConfig) -> TimeSeries:
    """Gaussian record whose expected two-sided periodogram is `analytic_psd`.

    Bin k of the record's DFT is drawn complex-normal with
    E|X_k|^2 = n * fs * S(f_k); DC and Nyquist are real.  The inverse
    transform is then circularly stationary with the target spectrum.  The
    (real, imaginary) pairs of the bins are the channel-0 stream of
    `cfg.seed` in order; the usable CPUs draw them while this thread
    evaluates the spectrum.
    """
    if cfg.method != "spectral":
        raise ConfigurationError(f"spectral synthesis got method={cfg.method!r}")
    n, fs = cfg.n_samples, cfg.sample_rate
    # the bins' power is the spectrum times n * fs, which must be a float
    check_positive_finite("n_samples x sample_rate", n * fs)
    x_f = np.empty(n // 2 + 1, dtype=complex)
    draws = x_f.view(float)

    def target():
        # a block of bins at a time, so that no record-size temporary exists
        spec, psd = cfg.spectrum(), np.empty(draws.size // 2)
        for start in range(0, psd.size, _BLOCK):
            f = np.arange(start, min(start + _BLOCK, psd.size)) * (fs / n)
            psd[start:start + f.size] = analytic_psd(spec, f)
        return psd

    # this thread evaluates the spectrum while the others draw
    amplitude = _threads.on_blocks(
        functools.partial(_draw_blocks, draws, cfg.seed),
        -(-draws.size // _BLOCK), n, _threads.Workspace({}), step=target)
    pairs = draws.reshape(-1, 2)
    # interior bins carry half the power in each quadrature
    amplitude *= n * fs / 2.0
    np.sqrt(amplitude, out=amplitude)
    pairs *= amplitude[:, None]
    pairs[0] *= np.sqrt(2.0)
    pairs[0, 1] = 0.0
    if n % 2 == 0:
        pairs[-1] *= np.sqrt(2.0)
        pairs[-1, 1] = 0.0
    del amplitude, pairs, draws
    # the transform runs on one CPU; work offered by the caller uses the rest
    values = _threads.beside(functools.partial(np.fft.irfft, x_f, n=n))
    del x_f
    return TimeSeries(sample_rate=fs, values=values)


def boxcar_width(cfg: SynthesisConfig) -> int:
    """Number of samples in one coherence time, rounded to the nearest integer.

    The effective coherence time of the synthesized record is width/fs; pick
    sample rates that make 2L/c * fs integral when exact agreement with the
    analytic model matters.
    """
    width = int(round(cfg.spectrum().coherence_time * cfg.sample_rate))
    return max(width, 1)


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


def _boxcar_blocks(values: np.ndarray, seed: int, width: int, scale: float,
                   first: int, blocks: np.ndarray, scratch: dict) -> None:
    """Blocks `blocks` of `values`, the boxcar record from block `first`
    on, scaled by `scale`.

    Block k of `values` is record block b = first + k: the moving sum of
    driver samples b * _BLOCK on, the channel-0 stream of `seed`, its own
    driver block and the first width - 1 samples after it, redrawn here
    from the blocks that follow.  The driver is drawn into
    `scratch["driver"]`, so nothing is allocated.
    """
    for k in blocks:
        out = values[k * _BLOCK:(k + 1) * _BLOCK]
        driver = scratch["driver"][:out.size + width - 1]
        _fill_normal(driver, seed, 0, first + k)
        _moving_sum(driver, width, out)
        out *= scale


def synthesize_boxcar(cfg: SynthesisConfig, first_block: int = 0
                      ) -> TimeSeries:
    """White Gaussian noise summed over a sliding light-round-trip window.

    The white driver has two-sided PSD 2 c^2 t_P / pi; its linear moving
    sum over one round trip (width = round(2L/c * fs) samples, scaled by
    1/fs) gives a record whose autocovariance is the exact sampled triangle
    of the noise model.  Sample i sums driver samples i to i + width - 1:
    the driver, the channel-0 stream of `cfg.seed`, is width - 1 samples
    longer than the record.  The blocks are summed on the usable CPUs.
    Given `first_block`, the record is samples first_block * _BLOCK on of
    the longer record of `cfg.seed`: a record can be made a piece at a time.
    """
    if cfg.method != "boxcar":
        raise ConfigurationError(f"boxcar synthesis got method={cfg.method!r}")
    fs = cfg.sample_rate
    values = _boxcar(cfg.seed, cfg.n_samples, boxcar_width(cfg),
                     np.sqrt(white_noise_psd() * fs) / fs, first_block)
    return TimeSeries(sample_rate=fs, values=values)


def _boxcar(seed: int, n: int, width: int, scale: float,
            first: int = 0) -> np.ndarray:
    """`scale` times n moving sums of `width` samples of the channel-0
    stream of `seed`, from block `first` on: sample i sums stream samples
    first * _BLOCK + i to first * _BLOCK + i + width - 1.  The record is
    in an anonymous mapping (`_threads.mapped`)."""
    values = _threads.mapped({"values": ((n,), float)})["values"]
    _threads.on_blocks(
        functools.partial(_boxcar_blocks, values, seed, width, scale, first),
        -(-n // _BLOCK), n,
        _threads.Workspace({"driver": ((_BLOCK + width - 1,), float)}))
    return values


#: Peak resident bytes per record sample of `synthesize`, measured as the
#: slope of a fresh process's peak RSS between 0.2 and 0.4 s records at
#: 16 and 30 MHz: the spectral inverse FFT's buffers, or the boxcar record.
_BYTES_PER_SAMPLE = {"spectral": 32, "boxcar": 9}


def synthesize(cfg: SynthesisConfig, first_block: int = 0) -> TimeSeries:
    """Dispatch on cfg.method; a record too large for physical memory raises
    ConfigurationError before anything is allocated.  A boxcar record may
    start at block `first_block` of its streams (`synthesize_boxcar`); a
    spectral one is one transform and starts at block 0."""
    check_fits_in_memory("n_samples", cfg.n_samples, cfg.n_samples,
                         _BYTES_PER_SAMPLE[cfg.method])
    if cfg.method == "spectral":
        if first_block:
            raise ValueError("a spectral record starts at block 0")
        return synthesize_spectral(cfg)
    return synthesize_boxcar(cfg, first_block)
