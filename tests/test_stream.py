"""A run made, mixed and Welch-summed a chunk at a time (`stream_dual`)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from holonoise import _threads, errors, interferometer, synthesis
from holonoise import (
    DetectorConfig,
    DualDetectorConfig,
    RunConfig,
    TimeSeries,
    WelchParams,
    coherence_from_csd,
    default_shot_asd,
    run_pipeline,
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
       rho=st.sampled_from([0.0, 0.5, 1.0]))
# a last chunk of 100 samples, shorter than a segment
@example(chunks=3, last=100, chunk_blocks=1, segment_length=4096,
         overlap=0.5, window="hann", method="boxcar", rho=1.0)
@example(chunks=2, last=100, chunk_blocks=1, segment_length=1023,
         overlap=0.0, window="rectangular", method="spectral", rho=0.5)
def test_chunks_give_the_bytes_of_whole_records(
        chunks, last, chunk_blocks, segment_length, overlap, window, method,
        rho):
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


def test_run_memory_does_not_grow_with_duration(monkeypatch, held_peak):
    # between durations d and 4 d only the 64 bytes per Welch segment of
    # the low bins may add, and 10 %
    monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", 2)
    cfg = RunConfig(method="boxcar", sample_rate=29979245.8, seed=2)
    peaks, segments = [], []
    for duration in (0.02, 0.08):
        results = []
        peaks.append(held_peak(lambda: results.append(run_pipeline(
            dataclasses.replace(cfg, duration=duration)))))
        segments.append(results[0].csd.n_segments)
    # 600,000 samples are 4.6 chunks of 131,072
    assert peaks[0] > 4 * 2 * BLOCK * 8
    assert peaks[1] <= 1.1 * peaks[0] + 64 * (segments[1] - segments[0])


def test_boxcar_run_needs_no_memory_per_sample(monkeypatch, tmp_path,
                                              capsys):
    monkeypatch.setattr(errors, "_physical_memory", lambda: 64 * 2**20)
    argv = ["run", "--duration", "0.2", "--outdir"]
    assert main(argv + [str(tmp_path / "boxcar"), "--method", "boxcar"]) == 0
    assert main(argv + [str(tmp_path / "spectral")]) == 2
    assert "duration" in capsys.readouterr().err
    assert not (tmp_path / "spectral").exists()


def test_boxcar_run_maps_no_record(monkeypatch):
    # its largest mapping is one chunk of one record
    sizes = []

    def counted(shapes, _mapped=_threads.mapped):
        arrays = _mapped(shapes)
        sizes.append(sum(array.nbytes for array in arrays.values()))
        return arrays

    monkeypatch.setattr(_threads, "mapped", counted)
    run_pipeline(RunConfig(method="boxcar", sample_rate=29979245.8,
                           duration=0.05, seed=4))
    assert max(sizes) <= interferometer._CHUNK_BLOCKS * BLOCK * 8
