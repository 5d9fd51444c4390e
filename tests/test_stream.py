"""A run made, mixed and Welch-summed a chunk at a time (`stream_dual`)."""

import collections
import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from holonoise import _threads, analysis, errors, interferometer, synthesis
from holonoise import (
    DetectorConfig,
    DualDetectorConfig,
    RunConfig,
    TimeSeries,
    WelchParams,
    coherence_from_csd,
    default_shot_asd,
    run_pipeline,
    simulate_detector,
    simulate_dual,
    stream_dual,
    welch_csd,
)
from holonoise.analysis import WINDOWS
from holonoise.cli import main
from holonoise.synthesis import METHODS

FS = 1.6e7
BLOCK = synthesis._BLOCK


def dual(rho):
    det = DetectorConfig(L=40.0, shot_noise_asd=default_shot_asd(40.0))
    return DualDetectorConfig(det_a=det, det_b=det, rho_geom=rho)


def chunks_of(ts, size, offset=0.0):
    """`ts` cut into chunks of `size` samples, plus `offset`."""
    return [TimeSeries(ts.sample_rate, ts.values[i:i + size] + offset)
            for i in range(0, ts.n, size)]


def assert_same_spectra(got, want):
    for field in ("frequencies", "values", "sigma", "low_bins"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    for psd_got, psd_want in zip(got.psds, want.psds):
        assert np.array_equal(psd_got.values, psd_want.values)
    assert np.array_equal(coherence_from_csd(got).values,
                          coherence_from_csd(want).values)
    assert (got.n_segments, got.n_samples) == (want.n_segments,
                                               want.n_samples)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=st.integers(1, 5),
       last=st.integers(1, BLOCK),
       chunk_blocks=st.integers(1, 2),
       segment_length=st.integers(16, 4096),
       overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
       window=st.sampled_from(WINDOWS),
       method=st.sampled_from(METHODS),
       rho=st.sampled_from([0.0, 0.5, 1.0]),
       cuts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=8))
# a last chunk of 100 samples, shorter than a segment
@example(chunks=3, last=100, chunk_blocks=1, segment_length=4096,
         overlap=0.5, window="hann", method="boxcar", rho=1.0,
         cuts=[(0.1, 0.5), (0.11, 1.0), (0.5, 0.0)])
@example(chunks=2, last=100, chunk_blocks=1, segment_length=1023,
         overlap=0.0, window="rectangular", method="spectral", rho=0.5,
         cuts=[(0.3, 0.2), (0.3, 0.9), (0.999, 0.5)])
def test_chunks_give_the_bytes_of_whole_records(
        chunks, last, chunk_blocks, segment_length, overlap, window, method,
        rho, cuts):
    chunk = chunk_blocks * BLOCK
    n = (chunks - 1) * chunk + last
    # a record of at least one segment and 10 coherence times (43 samples)
    assume(n >= max(segment_length, 64))
    p = WelchParams(segment_length=segment_length, overlap_fraction=overlap,
                    window=window)
    a, b = simulate_dual(dual(rho), n / FS, FS, seed=3, method=method)
    whole = welch_csd(a, b, p)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", chunk_blocks)
        pairs = list(stream_dual(dual(rho), n / FS, FS, seed=3,
                                 method=method))
    # joined, the chunks are the records
    for part, record in zip(zip(*pairs), (a, b)):
        assert np.array_equal(np.concatenate([x.values for x in part]),
                              record.values)
    assert_same_spectra(welch_csd(pairs, p=p), whole)
    # and the chunks of any other size give the same spectra
    other = chunk + BLOCK
    assert_same_spectra(welch_csd(zip(chunks_of(a, other),
                                      chunks_of(b, other)), p=p), whole)
    # and so do chunks cut at drawn points, each a sample alone and then
    # fewer samples than a segment, so that samples are carried across
    # several chunks
    bounds = {0, n}
    for at, short in cuts:
        start = int(at * n)
        bounds |= {start, start + 1,
                   start + 1 + int(short * (segment_length - 2))}
    bounds = sorted(x for x in bounds if x <= n)
    cut = welch_csd([(TimeSeries(FS, a.values[i:j]),
                      TimeSeries(FS, b.values[i:j]))
                     for i, j in zip(bounds, bounds[1:])], p=p)
    assert_same_spectra(cut, whole)
    assert (cut.means, cut.variances) == (whole.means, whole.variances)

    # the merged moments of the chunks are the two-pass ones, also far from
    # zero mean
    for offset in (0.0, 1e3 * np.std(a.values)):
        csd = welch_csd(zip(chunks_of(a, chunk, offset),
                            chunks_of(b, chunk, -offset)), p=p)
        for k, x in enumerate((a.values + offset, b.values - offset)):
            assert csd.means[k] == pytest.approx(x.mean(), rel=1e-12,
                                                 abs=1e-12 * np.std(x))
            assert csd.variances[k] == pytest.approx(
                np.mean((x - x.mean()) ** 2), rel=1e-12)


def test_chunks_of_unequal_records_are_refused():
    a, b = simulate_dual(dual(1.0), 4 * BLOCK / FS, FS, seed=1)
    with pytest.raises(ValueError):
        welch_csd(zip(chunks_of(a, BLOCK), chunks_of(b, 2 * BLOCK)))


@pytest.mark.parametrize("method", METHODS)
def test_run_memory_does_not_grow_with_duration(monkeypatch, held_peak,
                                                method):
    # between durations d and 4 d only the 64 bytes per Welch segment of
    # the low bins may add, and 10 %
    monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", 2)
    cfg = RunConfig(method=method, sample_rate=29979245.8, seed=2)
    peaks, segments = [], []
    for duration in (0.02, 0.08):
        results = []
        peaks.append(held_peak(lambda: results.append(run_pipeline(
            dataclasses.replace(cfg, duration=duration)))))
        segments.append(results[0].csd.n_segments)
    # 600,000 samples are 4.6 chunks of 131,072
    assert peaks[0] > 4 * 2 * BLOCK * 8
    assert peaks[1] <= 1.1 * peaks[0] + 64 * (segments[1] - segments[0])


@pytest.mark.parametrize("method", METHODS)
def test_run_needs_no_memory_per_sample(monkeypatch, tmp_path, method):
    # 3.2 million samples in 64 MiB: a chunk of each stream and record
    monkeypatch.setattr(errors, "_physical_memory", lambda: 64 * 2**20)
    assert main(["run", "--duration", "0.2", "--method", method,
                 "--outdir", str(tmp_path)]) == 0


def layout(rho, insensitive):
    """A pair at `rho` whose detector `insensitive` ("a", "b" or None)
    does not respond to geometric noise."""
    det_a, det_b = (
        DetectorConfig(L=40.0, shot_noise_asd=default_shot_asd(40.0),
                       geometric_sensitivity=insensitive != name)
        for name in "ab")
    return DualDetectorConfig(det_a=det_a, det_b=det_b, rho_geom=rho)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("call, rho, insensitive", [
    *((call, rho, insensitive) for call in ("simulate_dual", "stream_dual")
      for rho in (0.0, 0.5, 1.0) for insensitive in (None, "a", "b")),
    ("simulate_detector", None, None), ("simulate_detector", None, "a")])
def test_memory_rule_covers_what_a_call_holds(monkeypatch, held_peak, call,
                                              method, rho, insensitive):
    # the held bytes' slope between n and 2 n samples, where the work
    # arrays and the chunks cancel, is at most the slope of the charge the
    # call refuses by; the objects made per block of draws add about 0.02
    monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", 1)
    cfg = layout(rho or 0.0, insensitive)

    def make(n):
        run = dict(duration=n / FS, sample_rate=FS, seed=5, method=method)
        if call == "simulate_detector":
            return simulate_detector(cfg.det_a, **run)
        # a stream's chunks are dropped as they come, as the Welch pass does
        return collections.deque(getattr(interferometer, call)(cfg, **run),
                                 maxlen=0)

    n = 2**17
    # the first spectral record of a process imports numpy.polynomial and
    # fills the filter cache: paid here, outside both measurements
    make(n)
    rule = (charged(monkeypatch, lambda: make(2 * n))
            - charged(monkeypatch, lambda: make(n))) / n
    slope = (held_peak(lambda: make(2 * n)) - held_peak(lambda: make(n))) / n
    assert slope <= rule + 0.1


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("rho, insensitive", [
    (rho, insensitive) for rho in (0.0, 0.5, 1.0)
    for insensitive in (None, "a", "b")])
def test_memory_rule_covers_the_chunk_buffers(monkeypatch, held_peak, method,
                                              rho, insensitive):
    # a stream's buffers of a chunk each: what it holds grows with the
    # chunk, from one block to two, by at most what its charge grows by;
    # the work arrays, a block for each of one thread, cancel
    monkeypatch.setattr(_threads, "workers", lambda samples: 1)
    cfg = layout(rho, insensitive)
    n = 4 * BLOCK

    def make():
        return collections.deque(stream_dual(cfg, n / FS, FS, 5, method),
                                 maxlen=0)

    held, charge = [], []
    for blocks in (1, 2):
        monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", blocks)
        held.append(held_peak(make))
        charge.append(charged(monkeypatch, make))
    assert (held[1] - held[0]) / BLOCK <= (charge[1] - charge[0]) / BLOCK + 0.1


class _Charged(Exception):
    pass


def charged(monkeypatch, make) -> float:
    """The bytes that the memory check of make() charges; nothing runs."""
    def check(name, value, samples, bytes_per_sample, also=None):
        raise _Charged(samples * bytes_per_sample + (also[2] if also else 0))

    with monkeypatch.context() as patch:
        patch.setattr(interferometer, "check_fits_in_memory", check)
        with pytest.raises(_Charged) as charge:
            make()
    return charge.value.args[0]


def sized_call(call, cfg, n, method="spectral"):
    """`call` of the pair `cfg` for n samples at FS."""
    if call == "run_pipeline":
        return lambda: run_pipeline(RunConfig(
            duration=n / FS, sample_rate=FS, rho_geom=cfg.rho_geom,
            geometric_sensitivity_a=cfg.det_a.geometric_sensitivity,
            geometric_sensitivity_b=cfg.det_b.geometric_sensitivity,
            method=method, seed=1))
    return lambda: getattr(interferometer, call)(cfg, n / FS, FS, seed=1,
                                                 method=method)


def welch_charge(n, segment_length=4096):
    """What a run of n samples at FS is charged for its Welch pass: its
    chunks are shorter than one of `_CHUNK_BLOCKS` blocks."""
    per_sample, fixed = analysis._WelchPass(
        WelchParams(segment_length)).held_bytes(n, n)
    return per_sample * n + fixed


def work_charge(method, threads=2):
    """The work arrays that a run at FS is charged for `threads` threads:
    each holds the mix's term, a block, and one stream's filter at a time,
    the boxcar's driver of a block and 4 samples and its channel-1 tail of
    a block (4.27 samples a window), or the spectral driver of a block and
    8,196 samples, a frame of 32,768 and its 16,385-bin spectrum."""
    filter_bytes = {"boxcar": 8 * (2 * BLOCK + 4),
                    "spectral": 8 * (BLOCK + 8196 + 32768) + 16 * 16385}
    return threads * (8 * BLOCK + filter_bytes[method])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("call", ["stream_dual", "run_pipeline"])
def test_rho_one_run_that_fits_is_admitted(monkeypatch, call, method):
    # 16 bytes per sample hold the shared geometric stream's chunk and the
    # buffer B is built in (the run is one chunk), and two threads their
    # work arrays; a run adds its Welch pass
    monkeypatch.setattr(_threads, "workers", lambda samples: 2)
    n = 2**18
    need = 16 * n + work_charge(method) + (
        welch_charge(n) if call == "run_pipeline" else 0)
    monkeypatch.setattr(errors, "_physical_memory", lambda: need)
    sized_call(call, dual(1.0), n, method)()
    monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
    with pytest.raises(errors.ConfigurationError, match="duration"):
        sized_call(call, dual(1.0), n, method)()


def test_run_too_large_for_its_segments_is_refused(monkeypatch):
    # the Welch pass grows with the segment, not with the duration: a run
    # that fits with segments of 4096 samples is refused with 65536,
    # naming segment_length
    monkeypatch.setattr(_threads, "workers", lambda samples: 2)
    n = 2**18
    assert welch_charge(n, 2**16) > 8 * welch_charge(n)
    monkeypatch.setattr(errors, "_physical_memory", lambda: (
        16 * n + work_charge("spectral") + welch_charge(n)))
    run = dict(duration=n / FS, sample_rate=FS, max_lag=1e-6, seed=1,
               method="spectral")
    run_pipeline(RunConfig(**run))
    with pytest.raises(errors.ConfigurationError, match="segment_length"):
        run_pipeline(RunConfig(segment_length=2**16, **run))


@pytest.mark.parametrize("call, rho, insensitive, method, per_sample", [
    # the chunks of two geometric streams: 16 bytes per sample
    ("stream_dual", 0.5, None, "spectral", 12),
    ("run_pipeline", 0.5, None, "spectral", 12),
    # the shared geometric record and both detectors' records: 24
    ("simulate_dual", 1.0, "a", "boxcar", 20),
])
def test_pair_too_large_for_memory_is_refused(monkeypatch, call, rho,
                                              insensitive, method,
                                              per_sample):
    # refused when called, naming duration
    n = 2**18
    monkeypatch.setattr(errors, "_physical_memory", lambda: per_sample * n)
    with pytest.raises(errors.ConfigurationError, match="duration"):
        sized_call(call, layout(rho, insensitive), n, method)()


@pytest.mark.parametrize("method", METHODS)
def test_run_maps_no_record(monkeypatch, method):
    # its largest mapping is one chunk of one record
    sizes = []

    def counted(shapes, _mapped=_threads.mapped):
        arrays = _mapped(shapes)
        sizes.append(sum(array.nbytes for array in arrays.values()))
        return arrays

    monkeypatch.setattr(_threads, "mapped", counted)
    run_pipeline(RunConfig(method=method, sample_rate=29979245.8,
                           duration=0.05, seed=4))
    assert max(sizes) <= interferometer._CHUNK_BLOCKS * BLOCK * 8


def old_starts(det_a, n, sample_rate):
    """The chunk starts of a streamed run found one chunk at a time: a
    chunk grows by `_CHUNK_BLOCKS` blocks while it, or the rest of the
    record after it, is too short to be synthesized."""
    chunk = interferometer._CHUNK_BLOCKS * BLOCK
    spec = interferometer.HolographicSpectrum(det_a.L)
    starts, start = [], 0
    while start < n:
        stop = min(start + chunk, n)
        while stop < n and (synthesis._too_short(stop - start, sample_rate,
                                                 spec)
                            or synthesis._too_short(n - stop, sample_rate,
                                                    spec)):
            stop = min(stop + chunk, n)
        starts.append(start)
        start = stop
    return starts


@settings(max_examples=60, deadline=None)
@given(chunks=st.integers(1, 40), rest=st.integers(0, BLOCK - 1),
       coherence_chunks=st.floats(0.05, 12.0))
def test_chunk_starts_in_closed_form(chunks, rest, coherence_chunks):
    # the starts are those of the chunk-by-chunk search, whatever the
    # record's length and however many chunks 10 coherence times span
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", 1)
        n = chunks * BLOCK + rest
        det = DetectorConfig(L=40.0, shot_noise_asd=1e-20)
        coherence = interferometer.HolographicSpectrum(40.0).coherence_time
        fs = coherence_chunks * BLOCK / (synthesis.MIN_COHERENCE_TIMES
                                         * coherence)
        starts = interferometer._starts(det, n, fs)
        assert isinstance(starts, range)
        assert list(starts) == old_starts(det, n, fs)


def test_long_stream_returns_at_once(monkeypatch):
    # 1.6e16 samples: checked in constant time and no chunk listed, so
    # the boxcar stream is returned at once and its first chunk made
    # lazily
    monkeypatch.setattr(errors, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(interferometer, "synthesize", None)
    clock = time.perf_counter()
    stream = stream_dual(dual(1.0), 1e9, 1.6e7, 1, "boxcar")
    assert time.perf_counter() - clock < 1.0
    with pytest.raises(TypeError):
        next(stream)


@pytest.mark.parametrize("call", ["simulate_detector", "simulate_dual",
                                  "stream_dual", "run_pipeline"])
def test_each_call_checks_memory_once(monkeypatch, call):
    checks = []

    def counted(*args, _check=interferometer.check_fits_in_memory,
                **kwargs):
        checks.append(args[0])
        return _check(*args, **kwargs)

    monkeypatch.setattr(interferometer, "check_fits_in_memory", counted)
    monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", 1)
    n = 3 * BLOCK
    if call == "simulate_detector":
        simulate_detector(dual(1.0).det_a, n / FS, FS, seed=1)
    elif call == "stream_dual":
        collections.deque(sized_call(call, dual(1.0), n)(), maxlen=0)
    else:
        sized_call(call, dual(1.0), n)()
    assert checks == ["duration"]


@pytest.mark.parametrize("method", METHODS)
def test_long_run_refusal_blames_the_duration(monkeypatch, method):
    # the low bins grow with the duration and are charged per sample: the
    # share of segment_length stays that of a run that fits
    monkeypatch.setattr(errors, "_physical_memory", lambda: 8 * 2**30)
    with pytest.raises(errors.ConfigurationError) as refusal:
        run_pipeline(RunConfig(duration=1e15, method=method))
    share = re.search(r"segment_length 4096 (\S+) GiB more",
                      str(refusal.value))
    assert float(share.group(1)) < 1.0


def test_silent_detector_is_refused_before_synthesis(monkeypatch):
    def synthesize(*args, **kwargs):
        raise AssertionError("synthesized")

    monkeypatch.setattr(interferometer, "synthesize", synthesize)
    for insensitive in ("a", "b"):
        field = f"geometric_sensitivity_{insensitive}"
        with pytest.raises(errors.ConfigurationError,
                           match="zero-variance") as refusal:
            run_pipeline(RunConfig(shot_noise_asd=0.0, **{field: False}))
        assert "shot_noise_asd" in str(refusal.value)
        assert field in str(refusal.value)
