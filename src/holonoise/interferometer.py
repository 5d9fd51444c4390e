"""Signal streams of one or two Michelson interferometers.

Each detector output is the sum of a geometric displacement component (the
noise-model process, present only when the optical layout responds to
transverse displacements) and white photon shot noise.  For a co-located
pair the geometric components share a common stream; a single correlation
coefficient rho_geom in [0, 1] interpolates between fully entangled (1) and
decoupled (0) geometric states.  All component streams draw from distinct
substreams of one master seed, so toggling any component leaves the others
bit-identical.  A pair is made a chunk at a time (`stream_dual`), so that a
run's memory does not grow with its duration; `simulate_dual` is the
one-chunk case.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, replace

import numpy as np

from . import _threads, synthesis
from .errors import ConfigurationError, check_positive_finite
from .noise_model import HolographicSpectrum
from .synthesis import SynthesisConfig, TimeSeries, channel_seed, synthesize

# substream channel ids for a dual run
CH_GEOM_SHARED = 0
CH_GEOM_INDEP = 1
CH_SHOT_A = 2
CH_SHOT_B = 3


def default_shot_asd(L: float) -> float:
    """One-sided shot-noise ASD (m/rtHz) set 3x above the geometric plateau.

    With this floor the geometric signal is invisible in a single detector's
    spectrum and only emerges from cross-correlation after integration.
    """
    plateau_one_sided = 2.0 * HolographicSpectrum(L).plateau
    return 3.0 * float(np.sqrt(plateau_one_sided))


@dataclass(frozen=True)
class DetectorConfig:
    """One detector; a bad arm length or shot ASD raises when it is built."""

    L: float
    shot_noise_asd: float
    geometric_sensitivity: bool = True

    def __post_init__(self):
        check_positive_finite("arm_length", self.L)
        if not 0.0 <= self.shot_noise_asd < np.inf:
            raise ConfigurationError(
                "shot_noise_asd must be nonnegative and finite, got "
                f"{self.shot_noise_asd}"
            )


@dataclass(frozen=True)
class DualDetectorConfig:
    """A co-located pair; its detectors were checked when they were built."""

    det_a: DetectorConfig
    det_b: DetectorConfig
    rho_geom: float

    def __post_init__(self):
        if not 0.0 <= self.rho_geom <= 1.0:
            raise ConfigurationError(
                f"rho_geom must lie in [0, 1], got {self.rho_geom}"
            )
        if self.rho_geom > 0.0 and self.det_a.L != self.det_b.L:
            raise ConfigurationError(
                "correlated runs require equal arm lengths, got "
                f"{self.det_a.L} and {self.det_b.L}"
            )


#: Synthesis blocks per chunk of a streamed run (`stream_dual`): a chunk
#: of one record is 8 MB.  Chosen by measurement: on a 2-vCPU Xeon VM a
#: boxcar run of 5,995,849 samples took 428, 412 and 414 ms with chunks of
#: 8, 16 and 32 blocks (417 ms whole; medians of 8 processes, each the best
#: of 3 runs), and peaked at 57.5, 66.0 and 82.9 MB in a fresh process.
_CHUNK_BLOCKS = 16


def _shot(det: DetectorConfig, sample_rate: float, seed: int,
          channel: int):
    """The shot noise of `det` for `_mix_blocks`: white noise of one-sided
    PSD asd^2, so per-sample variance asd^2/2 * fs, from the (seed, channel)
    stream; None for a detector without shot noise."""
    asd = det.shot_noise_asd
    return (asd * np.sqrt(sample_rate / 2.0), seed, channel) if asd else None


def _mix_blocks(records: list, first: int, blocks: np.ndarray,
                scratch) -> None:
    """Blocks `blocks` of detector records from block `first` on, in place.

    Each of `records` is (out, terms, shot), built in turn in each block:
    the record in `out` is the sum of weight * record over the (weight,
    record) pairs of `terms`, then the shot noise: `shot` is (scale, seed,
    channel), the channel's standard normals times `scale`, or None.  The
    first term's record may be `out` itself, which is then scaled in place;
    a record may read a term that a later one overwrites.  Block k of `out`
    is record block first + k.  The work array is `scratch["term"]`, so
    nothing is allocated and a worker thread can run it.
    """
    block = synthesis._BLOCK
    for k in blocks:
        part = slice(k * block, (k + 1) * block)
        for out, terms, shot in records:
            o = out[part]
            for i, (weight, record) in enumerate(terms):
                if i > 0:
                    o += np.multiply(record[part], weight,
                                     out=scratch["term"][:o.size])
                elif record is not out or weight != 1.0:
                    np.multiply(record[part], weight, out=o)
            if shot is None:
                if not terms:
                    o.fill(0.0)
                continue
            scale, seed, channel = shot
            noise = scratch["term"][:o.size] if terms else o
            synthesis._fill_normal(noise, seed, channel, first + k)
            noise *= scale
            if terms:
                o += noise


def _with_noise(record: tuple, noise) -> tuple:
    """`record`, an (out, terms, shot) of `_mix_blocks`, with its shot noise
    already drawn into `noise` (or None): the noise is its last term or,
    for a record without a buffer (out None), the buffer it is built in.
    Either way the sums are those of the shot noise drawn in place."""
    out, terms, _ = record
    if noise is None:
        return record
    if out is None:
        return noise, [(1.0, noise)] + terms, None
    return out, terms + [(1.0, noise)], None


def _buffer(size: int) -> np.ndarray:
    """A record buffer in an anonymous mapping of its own."""
    return _threads.mapped({"values": ((size,), float)})["values"]


def _n_samples(duration: float, sample_rate: float) -> int:
    check_positive_finite("duration", duration)
    check_positive_finite("sample_rate", sample_rate)
    check_positive_finite("duration x sample_rate", duration * sample_rate)
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ConfigurationError(f"duration {duration} s yields an empty record")
    return n


def _synth_cfg(seed: int, channel: int, L: float, n: int, sample_rate: float,
               method: str) -> SynthesisConfig:
    """The synthesis of geometric stream `channel` of a run of `seed`."""
    return SynthesisConfig(L=L, sample_rate=sample_rate, n_samples=n,
                           seed=channel_seed(seed, channel), method=method)


def _spans(n: int, chunk: int, too_short) -> list[tuple[int, int]]:
    """(start, stop) of the chunks of an n-sample record: `chunk` samples
    each, but a chunk grows by `chunk` samples while it, or the rest of the
    record after it, is too short to be synthesized (`too_short`)."""
    spans, start = [], 0
    while start < n:
        stop = min(start + chunk, n)
        while stop < n and (too_short(stop - start) or too_short(n - stop)):
            stop = min(stop + chunk, n)
        spans.append((start, stop))
        start = stop
    return spans


def _chunks(det_a: DetectorConfig, det_b, rho: float, n: int,
            sample_rate: float, seed: int, method: str, chunk: int):
    """The records of detector A and, given `det_b`, of B, a chunk of
    `chunk` samples (whole blocks) at a time (`_spans`): yields a
    (TimeSeries, TimeSeries or None) pair per chunk.

    Detector A carries the shared geometric stream g; B carries
    sqrt(1 - rho^2) * g' + rho * g, with g' independent; each adds its shot
    noise.  A boxcar stream is synthesized a chunk at a time; a spectral
    one is one transform, made whole first and read a chunk at a time, and
    some of the first chunk's shot noise is drawn while it runs.  B is
    built first, in the chunk of g' or, without g', in a buffer of its own;
    A then in the chunk of g, which B reads, or, without g, in a buffer of
    its own.  The buffers of a chunk are its own, so a chunk stays valid
    after the next is made.
    """
    # sampling preconditions hold for both arms even when a sensitivity
    # flag later drops the component
    cfg_g = _synth_cfg(seed, CH_GEOM_SHARED, det_a.L, n, sample_rate, method)
    cfg_h = (None if det_b is None else
             _synth_cfg(seed, CH_GEOM_INDEP, det_b.L, n, sample_rate, method))
    sens_a = det_a.geometric_sensitivity
    sens_b = det_b is not None and det_b.geometric_sensitivity
    cfgs = [cfg_g if sens_a or (sens_b and rho > 0.0) else None,
            cfg_h if sens_b and rho < 1.0 else None]
    shot_a = _shot(det_a, sample_rate, seed, CH_SHOT_A)
    shot_b = None if det_b is None else _shot(det_b, sample_rate, seed,
                                              CH_SHOT_B)
    workspace = _threads.Workspace({"term": ((synthesis._BLOCK,), float)})
    spans = _spans(n, chunk, functools.partial(
        synthesis._too_short, sample_rate=sample_rate, spec=cfg_g.spectrum()))
    # the first chunk's shot noise reads no geometric record: with the
    # spectral method it is drawn on the CPUs that the one-CPU inverse
    # transform leaves idle (`_with_noise`), into the buffer of a record
    # not built in a geometric chunk or, when that chunk is shorter than
    # the record, into a buffer of its own; never into a second record
    shots = ([] if det_b is None else [shot_b]) + [shot_a]
    own = ([] if det_b is None else [cfgs[1] is None]) + [not sens_a]
    size, drawn, offer = spans[0][1], None, contextlib.nullcontext()
    if method == "spectral":
        drawn = [_buffer(size) if shot is not None and (mine or size < n)
                 else None for shot, mine in zip(shots, own)]
        early = [(noise, [], shot) for noise, shot in zip(drawn, shots)
                 if noise is not None]
        if early:
            offer = _threads.offering(
                functools.partial(_mix_blocks, early, 0),
                -(-size // synthesis._BLOCK), size, workspace)
    with offer:
        whole = [None if cfg is None or method != "spectral"
                 else synthesize(cfg).values for cfg in cfgs]
    for start, stop in spans:
        first = start // synthesis._BLOCK
        if method == "spectral":
            g, h = (None if x is None else x[start:stop] for x in whole)
        else:
            g, h = (None if cfg is None else synthesize(
                replace(cfg, n_samples=stop - start), first).values
                    for cfg in cfgs)
        # B first: A is then built in the chunk of g, which B reads; a
        # record without a chunk of its own (out None) gets a new buffer
        records = []
        if det_b is not None:
            records.append(
                (None, [(1.0, g)] if sens_b else [], shot_b) if h is None
                else (h, [(np.sqrt(1.0 - rho**2), h)]
                      + ([(rho, g)] if rho > 0.0 else []), shot_b))
        records.append((g, [(1.0, g)], shot_a) if sens_a
                       else (None, [], shot_a))
        if drawn:
            records = [_with_noise(record, noise)
                       for record, noise in zip(records, drawn)]
            drawn = None
        records = [(_buffer(stop - start) if out is None else out, terms, shot)
                   for out, terms, shot in records]
        _threads.on_blocks(functools.partial(_mix_blocks, records, first),
                           -(-(stop - start) // synthesis._BLOCK),
                           stop - start, workspace)
        a = TimeSeries(sample_rate=sample_rate, values=records[-1][0])
        b = (None if det_b is None
             else TimeSeries(sample_rate=sample_rate, values=records[0][0]))
        yield a, b
        # the chunk is the reader's now: drop it before making the next
        del a, b, g, h, records


def simulate_detector(cfg: DetectorConfig, duration: float, sample_rate: float,
                      seed: int, method: str = "spectral") -> TimeSeries:
    """Single-detector output: geometric noise (if sensitive) plus shot noise.

    This is detector A of `simulate_dual`: it draws the same substreams,
    mixes them in the same way and gives the same bytes, with no detector B.
    """
    n = _n_samples(duration, sample_rate)
    [(a, _)] = _chunks(cfg, None, 0.0, n, sample_rate, seed, method, n)
    return a


def stream_dual(cfg: DualDetectorConfig, duration: float, sample_rate: float,
                seed: int, method: str = "spectral"):
    """The outputs of `simulate_dual`, a chunk at a time: an iterator of
    (chunk of A, chunk of B) TimeSeries pairs, in record order.

    A chunk is `_CHUNK_BLOCKS` blocks of samples, so a run holds a chunk of
    each detector and, for the spectral method, the geometric records;
    joined, the chunks are the records of `simulate_dual` byte for byte.
    A pair stays valid after the next is made.
    """
    n = _n_samples(duration, sample_rate)
    return _chunks(cfg.det_a, cfg.det_b, cfg.rho_geom, n, sample_rate, seed,
                   method, _CHUNK_BLOCKS * synthesis._BLOCK)


def simulate_dual(cfg: DualDetectorConfig, duration: float, sample_rate: float,
                  seed: int, method: str = "spectral"
                  ) -> tuple[TimeSeries, TimeSeries]:
    """Outputs of a co-located pair with entangled geometric components.

    Detector A carries the shared geometric stream g; detector B carries
    sqrt(1 - rho^2) * g' + rho * g, with g' independent, so both see the
    full geometric spectrum while their cross-spectrum is rho times it.
    Shot noises are independent.  The four underlying streams derive from
    distinct substreams of `seed`.  The records are the one chunk of
    `stream_dual`'s loop: A is built in the shared record's buffer and, at
    rho < 1, B in the independent one's.
    """
    n = _n_samples(duration, sample_rate)
    [(a, b)] = _chunks(cfg.det_a, cfg.det_b, cfg.rho_geom, n, sample_rate,
                       seed, method, n)
    return a, b
