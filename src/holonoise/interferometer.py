"""Signal streams of one or two Michelson interferometers.

Each detector output is the sum of a geometric displacement component (the
noise-model process, present only when the optical layout responds to
transverse displacements) and white photon shot noise.  For a co-located
pair the geometric components share a common stream; a single correlation
coefficient rho_geom in [0, 1] interpolates between fully entangled (1) and
decoupled (0) geometric states.  Every call goes through `_run`, which
sizes the records, checks the run's memory once and plans it: one plan
(`_plan`) decides what each record is made of and where it is built.  All
component streams draw from distinct substreams of one master seed, so
toggling any component leaves the others bit-identical.  A pair is made a
chunk at a time (`stream_dual`), so that a run's memory does not grow with
its duration; `simulate_dual` is the one-chunk case.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _threads, synthesis
from .errors import (
    ConfigurationError,
    check_fits_in_memory,
    check_positive_finite,
)
from .noise_model import HolographicSpectrum
from .synthesis import (SynthesisConfig, TimeSeries, boxcar_width,
                        channel_seed, synthesize)

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


def _mix_blocks(records: list, first: int, blocks: range,
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


def _n_samples(duration: float, sample_rate: float) -> int:
    """Samples in `duration` at `sample_rate`."""
    check_positive_finite("duration", duration)
    check_positive_finite("sample_rate", sample_rate)
    check_positive_finite("duration x sample_rate", duration * sample_rate)
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ConfigurationError(f"duration {duration} s yields an empty record")
    return n


def _starts(det_a: DetectorConfig, n: int, sample_rate: float) -> range:
    """Where the chunks of a streamed n-sample run start; each ends where
    the next starts, the last at n.  A chunk is `_CHUNK_BLOCKS` blocks, or
    the fewest multiple of them that spans `MIN_COHERENCE_TIMES` coherence
    times, and a rest too short to be synthesized joins the last chunk.
    Computed in closed form, so no chunk is listed."""
    spec = HolographicSpectrum(det_a.L)
    too_short = functools.partial(synthesis._too_short,
                                  sample_rate=sample_rate, spec=spec)
    base = _CHUNK_BLOCKS * synthesis._BLOCK
    need = synthesis.MIN_COHERENCE_TIMES * spec.coherence_time * sample_rate
    chunk = n if need >= n else math.ceil(need / base) * base
    if too_short(chunk):  # `need` rounded down
        chunk += base
    chunk = min(chunk, n)
    rest = n % chunk
    return range(0, n - rest if rest and too_short(rest) else n, chunk)


def _plan(det_a: DetectorConfig, det_b, rho: float, sample_rate: float,
          seed: int) -> list:
    """The layout of a run's records, decided once for all its chunks: an
    (own, terms, shot) per record, B's first (given `det_b`), then A's.

    Detector A is the shared geometric stream g plus its shot noise; B is
    sqrt(1 - rho^2) * g' + rho * g, with g' independent, plus its own, so
    both see the full geometric spectrum while their cross-spectrum is rho
    times it.  `terms` are the (weight, channel) pairs of these sums with a
    nonzero weight, none for a detector without geometric sensitivity, and
    `shot` its shot noise as `_mix_blocks` takes it, white noise of
    one-sided PSD asd^2 (per-sample variance asd^2/2 * fs) from its shot
    channel, or None.  A record is built in the chunk of its detector's
    stream, g for A and g' for B, when it reads it (`own` is then that
    channel), else in a buffer of its own (`own` None).  B comes first, so
    that A may then overwrite the chunk of g, which B reads.
    """
    detectors = [(det_a, CH_GEOM_SHARED, CH_SHOT_A, [(1.0, CH_GEOM_SHARED)])]
    if det_b is not None:
        detectors.insert(0, (det_b, CH_GEOM_INDEP, CH_SHOT_B, [
            (np.sqrt(1.0 - rho**2), CH_GEOM_INDEP), (rho, CH_GEOM_SHARED)]))
    plan = []
    for det, stream, channel, terms in detectors:
        terms = [(weight, ch) for weight, ch in terms
                 if weight > 0.0 and det.geometric_sensitivity]
        asd = det.shot_noise_asd
        plan.append((stream if terms and terms[0][1] == stream else None,
                     terms, (asd * np.sqrt(sample_rate / 2.0), seed, channel)
                     if asd else None))
    return plan


def _chunks(plan: list, streams: dict, n: int, starts: range,
            sample_rate: float, workspace):
    """The n-sample records of `plan`, a chunk at a time: yields a
    (TimeSeries of A, TimeSeries of B or None) pair per chunk, which runs
    from its start in `starts`, whole blocks, to the next start or to n.

    Each geometric stream that a record reads, {channel: its whole
    SynthesisConfig} in `streams`, is synthesized a chunk at a time; the
    records are mixed in the work arrays of `workspace`.  The buffers of a
    chunk are its own, so a chunk stays valid after the next is made.
    """
    for start, stop in zip(starts, itertools.chain(starts[1:], [n])):
        first = start // synthesis._BLOCK
        chunk = {ch: synthesize(replace(cfg, n_samples=stop - start),
                                first).values
                 for ch, cfg in streams.items()}
        # as `_mix_blocks` takes them; a record not in a chunk has a buffer
        records = [(chunk[own] if own is not None else _threads.mapped(
                        {"values": ((stop - start,), float)})["values"],
                    [(weight, chunk[ch]) for weight, ch in terms], shot)
                   for own, terms, shot in plan]
        _threads.on_blocks(functools.partial(_mix_blocks, records, first),
                           -(-(stop - start) // synthesis._BLOCK),
                           stop - start, workspace)
        pair = [TimeSeries(sample_rate, values) for values, _, _ in records]
        yield pair[-1], pair[0] if len(pair) > 1 else None
        # the chunk is the reader's now: drop it before making the next
        del pair, chunk, records


def _run(det_a: DetectorConfig, det_b, rho: float, duration: float,
         sample_rate: float, seed: int, method: str, whole: bool,
         also=None):
    """The `_chunks` of a run of detector A, and B given `det_b`: one
    chunk of the whole records given `whole`, else the chunks of
    `_starts`.

    Builds both arms' stream configs, which check them, then makes the
    call's one memory check, before anything is allocated: a run too
    large for physical memory raises ConfigurationError naming `duration`.
    The charge is 8 bytes per sample of a chunk (of the record, in a whole
    call) for each stream a record reads and each record built in a
    buffer of its own; for each thread that runs a chunk's blocks, the
    mix's work arrays and one stream's filter's (`synthesis._work_arrays`)
    at a time; and what their reader holds, which `also`, a (name, value,
    held), gives: held(n, chunk) is the (bytes per sample, bytes) held for
    n samples read in chunks of at most `chunk`, of which only the bytes
    per sample are named `duration`.
    """
    n = _n_samples(duration, sample_rate)
    plan = _plan(det_a, det_b, rho, sample_rate, seed)
    cfgs = {ch: SynthesisConfig(L=det.L, sample_rate=sample_rate, n_samples=n,
                                seed=channel_seed(seed, ch), method=method)
            for ch, det in [(CH_GEOM_SHARED, det_a), (CH_GEOM_INDEP, det_b)]
            if det is not None}
    streams = {ch: cfgs[ch] for ch in sorted(
        {ch for _, terms, _ in plan for _, ch in terms})}
    starts = range(0, n, n) if whole else _starts(det_a, n, sample_rate)
    chunk = max(n - starts[-1], starts.step)
    mix = _threads.Workspace({"term": ((synthesis._BLOCK,), float)})
    work = _threads.nbytes(mix.shapes) + max(
        (_threads.nbytes(synthesis._work_arrays(cfg.method, boxcar_width(cfg)))
         for cfg in streams.values()), default=0)
    threads = min(_threads.workers(chunk), -(-chunk // synthesis._BLOCK))
    buffers = threads * work + 8 * chunk * (
        len(streams) + sum(own is None for own, _, _ in plan))
    if also is None:
        check_fits_in_memory("duration", duration, n, buffers / n)
    else:
        per_sample, fixed = also[2](n, chunk)
        check_fits_in_memory("duration", duration, n, per_sample,
                             also=(*also[:2], fixed + buffers))
    return _chunks(plan, streams, n, starts, sample_rate, mix)


def simulate_detector(cfg: DetectorConfig, duration: float, sample_rate: float,
                      seed: int, method: str = "spectral") -> TimeSeries:
    """Single-detector output: geometric noise (if sensitive) plus shot noise.

    This is detector A of `simulate_dual` (`_plan`) and gives its bytes,
    with no detector B.  A record too large for physical memory (`_run`)
    raises ConfigurationError naming `duration`.
    """
    [(a, _)] = _run(cfg, None, 0.0, duration, sample_rate, seed, method,
                    whole=True)
    return a


def stream_dual(cfg: DualDetectorConfig, duration: float, sample_rate: float,
                seed: int, method: str = "spectral"):
    """The outputs of `simulate_dual`, a chunk at a time: an iterator of
    (chunk of A, chunk of B) TimeSeries pairs, in record order.

    A chunk is `_CHUNK_BLOCKS` blocks of samples (`_starts`), so a run
    holds a chunk of each detector and of each geometric stream that
    `_plan` reads, whatever its duration; joined, the chunks are the
    records of `simulate_dual` byte for byte.  A pair stays valid after the
    next is made.  A run too large for physical memory (`_run`) raises
    ConfigurationError naming `duration` when this is called, in constant
    time; each chunk is made when it is read.
    """
    return _run(cfg.det_a, cfg.det_b, cfg.rho_geom, duration, sample_rate,
                seed, method, whole=False)


def simulate_dual(cfg: DualDetectorConfig, duration: float, sample_rate: float,
                  seed: int, method: str = "spectral"
                  ) -> tuple[TimeSeries, TimeSeries]:
    """Outputs of a co-located pair with entangled geometric components,
    whose cross-spectrum is rho_geom times the geometric spectrum.

    The records are those `_plan` describes, from four streams on distinct
    substreams of `seed`: the one chunk of `stream_dual`'s loop.  A pair
    too large for physical memory (`_run`) raises ConfigurationError
    naming `duration` before anything is allocated.
    """
    [(a, b)] = _run(cfg.det_a, cfg.det_b, cfg.rho_geom, duration,
                    sample_rate, seed, method, whole=True)
    return a, b
