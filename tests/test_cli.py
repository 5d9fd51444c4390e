import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)
from numpy.testing import assert_allclose

import holonoise
from holonoise import ConfigurationError, HolographicSpectrum, analytic_psd
from holonoise import _threads, analysis, cli, interferometer, synthesis
from holonoise import io as hio
from holonoise.analysis import WINDOWS
from holonoise.cli import RunConfig, build_parser, main, resolve_run_config
from holonoise.synthesis import METHODS


def run_cli(*argv):
    return main([str(a) for a in argv])


#: The files that `run` writes.
RUN_FILES = ("psd_a.csv", "psd_b.csv", "csd.csv", "coherence.csv",
             "correlation.csv", "summary.json")


class TestSpectrumCommand:
    def test_table_contents(self, tmp_path, spec40):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--arm-length", 40, "--f-max", 10e6,
                       "--n-points", 64, "-o", out) == 0
        cols, meta = hio.read_table_csv(out)
        assert meta["zeros_hz"][0] == pytest.approx(3747405.725)
        assert meta["f_c_hz"] == pytest.approx(596418.1449, rel=1e-9)
        assert_allclose(cols["psd_two_sided_m2_hz"],
                        np.asarray(analytic_psd(spec40, cols["f_hz"])),
                        rtol=1e-9)
        below = cols["f_hz"] <= spec40.f_c
        assert np.all(np.isnan(cols["envelope_two_sided_m2_hz"][below]))

    def test_geo600_scale_plateau(self, tmp_path):
        # 600 m arms: plateau amplitude a few 1e-19 m/rtHz, the level large
        # interferometers already operate near
        out = tmp_path / "spec600.csv"
        assert run_cli("spectrum", "--arm-length", 600, "--f-max", 1e6,
                       "-o", out) == 0
        _, meta = hio.read_table_csv(out)
        assert meta["plateau_asd_one_sided_m_rthz"] == pytest.approx(
            3.1437e-19, rel=1e-4)
        assert np.sqrt(meta["plateau_two_sided_m2_hz"]) == pytest.approx(
            2.2230e-19, rel=1e-4)

    def test_json_format(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run_cli("spectrum", "--f-max", 5e6, "--format", "json",
                       "-o", out) == 0
        doc = json.loads(out.read_text(), parse_constant=_strict_constant)
        assert doc["zeros_hz"][0] == pytest.approx(3747405.725)
        assert len(doc["f_hz"]) == 1000
        # the envelope is defined above the knee only, as in the CSV
        envelope = doc["envelope_two_sided_m2_hz"]
        below = [f <= doc["f_c_hz"] for f in doc["f_hz"]]
        assert [value is None for value in envelope] == below

    def test_csv_to_stdout_without_output(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        argv = ("spectrum", "--f-max", 5e6, "--n-points", 5)
        assert run_cli(*argv, "-o", out) == 0
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_file_agree_across_blocks(self, tmp_path, capsys,
                                                 fmt):
        # more rows than one block of text, envelope cells empty below f_c
        out = tmp_path / f"spec.{fmt}"
        argv = ("spectrum", "--f-max", 2e7, "--f-min", 1e3, "--n-points",
                2 * hio._ROWS + 3, "--format", fmt)
        assert run_cli(*argv, "-o", out) == 0
        capsys.readouterr()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt, n", [("csv", 250_000), ("json", 125_000)])
    def test_peak_memory_slope_within_its_charge(self, tmp_path, fmt, n):
        # the peak RSS of fresh processes, with one spectral zero per row
        # (the longest metadata), grows by at most the charge per point
        # from n to 2 n points: whole blocks of CSV rows
        pytest.importorskip("resource")
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss
        src = str(Path(holonoise.__file__).resolve().parents[1])
        code = ("import resource, sys; from holonoise.cli import main; "
                "assert main(sys.argv[1:]) == 0; "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")

        def peak(points):
            return unit * int(subprocess.run(
                [sys.executable, "-c", code, "spectrum", "--f-max", "1e13",
                 "--n-points", str(points), "--format", fmt,
                 "-o", str(tmp_path / "spec")],
                env=dict(os.environ, PYTHONPATH=src), check=True,
                capture_output=True, text=True).stdout)

        slope = (peak(2 * n) - peak(n)) / n
        assert slope <= cli._BYTES_PER_POINT[fmt]

    def test_overflowing_frequencies_give_zero_quietly(self, tmp_path):
        # at 5e299 Hz the density underflows and the envelope's (f / f_c)^2
        # overflows: both are 0
        out = tmp_path / "spec.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("spectrum", "--f-max", 1e300, "--n-points", 3,
                           "-o", out) == 0
        columns, _ = hio.read_table_csv(out)
        assert columns["psd_two_sided_m2_hz"].tolist()[1:] == [0.0, 0.0]
        assert columns["envelope_two_sided_m2_hz"].tolist()[1:] == [0.0, 0.0]

    def test_zero_list_bounded_by_table(self, tmp_path):
        # 2.7e8 zeros lie below 1e15 Hz; only as many as table rows are listed
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--f-max", 1e15, "--n-points", 2,
                       "-o", out) == 0
        assert out.stat().st_size < 2000
        _, meta = hio.read_table_csv(out)
        assert len(meta["zeros_hz"]) == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("spectrum", "--f-max", 8e6, "-o", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_f_max(self):
        assert run_cli("spectrum", "--f-max", -1.0) == 2
        assert run_cli("spectrum", "--f-max", 0) == 2

    def test_missing_required_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("spectrum")
        assert exc.value.code == 2


class TestSynthCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.hnts", tmp_path / "b.hnts"
        for out in (a, b):
            assert run_cli("synth", "--n-samples", 16384, "--seed", 5,
                           "-o", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_matches_library(self, tmp_path):
        from holonoise import SynthesisConfig, synthesize

        out = tmp_path / "ts.hnts"
        assert run_cli("synth", "--n-samples", 16384, "--seed", 8,
                       "--method", "boxcar", "-o", out) == 0
        ts, meta = hio.read_timeseries_bin(out)
        ref = synthesize(SynthesisConfig(L=40.0, sample_rate=1.6e7,
                                         n_samples=16384, seed=8,
                                         method="boxcar"))
        assert np.array_equal(ts.values, ref.values)
        assert meta["method"] == "boxcar"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert run_cli("synth", "--n-samples", 4096, "--format", "csv",
                       "-o", out) == 0
        ts, meta = hio.read_timeseries_csv(out)
        assert ts.n == 4096

    def test_invalid_sample_rate_is_config_error(self, tmp_path, capsys):
        code = run_cli("synth", "--n-samples", 16384, "--sample-rate", 1e5,
                       "-o", tmp_path / "x.hnts")
        assert code == 2
        assert "sample_rate" in capsys.readouterr().err


class TestRunCommand:
    def run_small(self, tmp_path, name, *extra):
        outdir = tmp_path / name
        code = run_cli("run", "--duration", 0.004, "--seed", 5,
                       "--outdir", outdir, *extra)
        return code, outdir

    def test_outputs_and_summary(self, tmp_path):
        code, outdir = self.run_small(tmp_path, "run1")
        assert code == 0
        for name in ("psd_a.csv", "psd_b.csv", "csd.csv", "coherence.csv",
                     "correlation.csv", "summary.json"):
            assert (outdir / name).exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["config"]["rho_geom"] == 1.0
        assert summary["f_c_hz"] == pytest.approx(596418.1449, rel=1e-9)
        # 4 ms at unit correlation already detects the signal clearly
        assert summary["snr"] > 5.0
        assert abs(summary["amplitude_fit"] - 1.0) < 0.25

    def test_deterministic_reruns(self, tmp_path):
        _, d1 = self.run_small(tmp_path, "r1")
        _, d2 = self.run_small(tmp_path, "r2")
        for name in ("psd_a.csv", "psd_b.csv", "csd.csv", "coherence.csv",
                     "correlation.csv", "summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_sensitivity_off_null(self, tmp_path):
        code, outdir = self.run_small(tmp_path, "null", "--no-sens-b")
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert abs(summary["amplitude_fit"]) < 5 * summary["amplitude_se"]

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = {"duration": 0.004, "seed": 11, "rho_geom": 0.0}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / "out"
        assert run_cli("run", "--config", path, "--seed", 12,
                       "--outdir", outdir) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["config"]["seed"] == 12
        assert summary["config"]["rho_geom"] == 0.0

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("run", "--config", tmp_path / "none.json") == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_config_field_listed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"arm_legnth": 40.0}))
        assert run_cli("run", "--config", path) == 2
        assert "arm_legnth" in capsys.readouterr().err

    def test_bad_field_type_listed(self, tmp_path, capsys):
        # a bool is not a number, not even inside the band, and neither is an
        # int too large for a float
        for cfg, field in (({"seed": "twelve"}, "seed"),
                           ({"band": [True, 1e6]}, "band"),
                           ({"duration": 10**400}, "duration")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(cfg))
            assert run_cli("run", "--config", path) == 2
            err = capsys.readouterr().err
            assert field in err

    @pytest.mark.parametrize("argv, field", [
        (["--arm-length", "nan"], "arm_length"),
        (["--arm-length", "inf"], "arm_length"),
        (["--duration", "inf"], "duration"),
        (["--duration", "nan"], "duration"),
        (["--sample-rate", "inf"], "sample_rate"),
        (["--sample-rate", "nan"], "sample_rate"),
        (["--shot-asd", "nan"], "shot_noise_asd"),
    ])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, argv,
                                              field):
        assert run_cli("run", *argv, "--outdir", tmp_path) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["run", "--duration", "1e5"], "duration"),
        (["run", "--duration", "1e300", "--sample-rate", "1e10"], "duration"),
        (["synth", "--n-samples", "1000000000000"], "n_samples"),
        (["synth", "--n-samples", "1" + "0" * 400], "n_samples"),
    ])
    def test_too_large_for_memory_is_config_error(self, tmp_path, capsys,
                                                  argv, field):
        # sizes no machine holds, refused before anything is allocated
        out = tmp_path / "out"
        assert run_cli(*argv, "--outdir" if argv[0] == "run" else "-o",
                       out) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, doc", [
        (["--band-lo", "1000", "--band-hi", "inf"], None),
        (["--band-lo=-inf", "--band-hi", "1e6"], None),
        (["--band-lo", "nan", "--band-hi", "1e6"], None),
        ([], {"band": [0, float("inf")]}),
    ])
    def test_non_finite_band_is_config_error(self, tmp_path, capsys, argv,
                                             doc):
        # json.loads reads Infinity, and summary.json must stay valid JSON
        if doc is not None:
            path = tmp_path / "band.json"
            path.write_text(json.dumps(doc))
            argv = ["--config", path]
        outdir = tmp_path / "out"
        assert run_cli("run", *argv, "--outdir", outdir) == 2
        assert "'band'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv", [
        ["--arm-length", "nan"],
        ["--duration", "nan"],
        ["--sample-rate", "1e6"],
        ["--seed", "-1"],
    ])
    def test_rejected_run_leaves_no_outdir(self, tmp_path, argv):
        assert run_cli("run", *argv, "--outdir", tmp_path / "x" / "deep") == 2
        assert not (tmp_path / "x").exists()

    def test_one_spectral_pass(self, tmp_path, monkeypatch):
        # both PSDs, the CSD and the coherence come from one paired pass, in
        # the CLI and in the API alike
        calls = []
        segment_spectra = analysis._segment_spectra

        def counting(*args, **kwargs):
            calls.append(1)
            return segment_spectra(*args, **kwargs)

        monkeypatch.setattr(analysis, "_segment_spectra", counting)
        code, _ = self.run_small(tmp_path, "one_pass")
        assert code == 0
        assert len(calls) == 1
        holonoise.run_pipeline(RunConfig(duration=0.004, seed=5))
        assert len(calls) == 2

    def test_default_boxcar_run_is_unbiased(self):
        # the default run (boxcar at 16 MHz, 4.27 samples per round trip,
        # fitted with the sampled triangle's spectrum) recovers A = 1: the
        # mean of 10 seeds lies within 3 standard errors of the mean; a
        # window rounded to 4 samples read A = 0.890 +- 0.004 over 40
        assert RunConfig().method == "boxcar"
        fits = [holonoise.run_pipeline(RunConfig(seed=seed)).detection
                for seed in range(1, 11)]
        mean = np.mean([fit.amplitude_fit for fit in fits])
        se = np.sqrt(np.sum([fit.amplitude_se**2 for fit in fits])) / 10
        assert abs(mean - 1.0) < 3.0 * se

    def test_api_and_cli_share_one_pipeline(self, tmp_path):
        code, outdir = self.run_small(tmp_path, "cli")
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        result = holonoise.run_pipeline(RunConfig(duration=0.004, seed=5))
        det = result.detection
        assert summary["config"] == asdict(result.config)
        assert [summary[key] for key in (
            "amplitude_fit", "amplitude_se", "snr", "n_bins", "n_segments",
            "variance_a_m2", "variance_b_m2")] == [
            det.amplitude_fit, det.amplitude_se, det.snr, det.n_bins,
            result.csd.n_segments, result.correlation.variance_a,
            result.correlation.variance_b]

    def test_tuple_band_same_as_list(self):
        # the API takes the band as detection_significance does, a tuple
        runs = [holonoise.run_pipeline(RunConfig(duration=0.004, seed=5,
                                                 band=band))
                for band in ((3e4, 1.2e6), [3e4, 1.2e6])]
        assert runs[0].config.band == [3e4, 1.2e6]
        assert runs[0].detection == runs[1].detection

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("argv", [
        ["--duration", "0.02"],
        ["--duration", "0.01", "--method", "boxcar",
         "--sample-rate", "29979245.8"],
        ["--duration", "0.02", "--rho", "0.5", "--seed", "7"],
        # two chunks: record A is built in a buffer of its own
        ["--duration", "0.07", "--no-sens-a", "--rho", "0.5"],
        ["--duration", "0.02", "--method", "spectral"],
        ["--duration", "0.07", "--no-sens-a", "--rho", "0.5", "--method",
         "spectral"],
    ])
    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch,
                                                argv, jitter):
        if jitter:
            # each block first sleeps 0-3 ms, so that the threads claim
            # the blocks in another order from run to run
            rng = random.Random(0)

            def jittered(kernel, *args, _on_blocks=_threads.on_blocks,
                         **kwargs):
                def slow(blocks, scratch):
                    for _ in blocks:
                        time.sleep(rng.uniform(0.0, 0.003))
                    kernel(blocks, scratch)
                return _on_blocks(slow, *args, **kwargs)

            monkeypatch.setattr(_threads, "on_blocks", jittered)
        outdirs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_threads, "workers",
                                lambda samples, workers=workers: workers)
            outdirs.append(tmp_path / f"workers{workers}")
            assert run_cli("run", *argv, "--outdir", outdirs[-1]) == 0
        for name in RUN_FILES:
            first = (outdirs[0] / name).read_bytes()
            for outdir in outdirs[1:]:
                assert (outdir / name).read_bytes() == first, (outdir, name)

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # segments of 65,536 samples: long enough for OpenBLAS to split a
        # dot product of two windows over its threads, in another order
        src = str(Path(holonoise.__file__).resolve().parents[1])
        outdirs = [tmp_path / "blas1", tmp_path / "blas2"]
        for threads, outdir in zip(("1", "2"), outdirs):
            subprocess.run(
                [sys.executable, "-m", "holonoise.cli", "run", "--duration",
                 "0.01", "--segment-length", "65536", "--outdir", str(outdir)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                         PYTHONPATH=src),
                check=True, capture_output=True)
        for name in RUN_FILES:
            assert ((outdirs[0] / name).read_bytes()
                    == (outdirs[1] / name).read_bytes()), name

    def test_traced_names_stay_on_calling_thread(self, tmp_path, monkeypatch):
        # perfbench's tracer keeps one span stack: the names it wraps must
        # be called on this thread, while the private kernels use the pool
        threads = defaultdict(set)
        for module, name in ((interferometer, "synthesize"),
                             (analysis, "welch_csd"),
                             (analysis, "cross_correlation"),
                             (analysis, "detection_significance"),
                             (synthesis, "one_sided_psd"),
                             (synthesis, "_spectral_blocks"),
                             (synthesis, "_boxcar_blocks"),
                             (interferometer, "_mix_blocks"),
                             (analysis, "_block_sums")):
            def recording(*args, _fn=getattr(module, name), _name=name,
                          **kwargs):
                threads[_name].add(threading.get_ident())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        monkeypatch.setattr(_threads, "workers", lambda samples: 2)
        # the spectral run's 160,000 samples are a chunk of 2 blocks and
        # one of 1; the boxcar run's 299,792 samples are 3 chunks of 2 blocks
        monkeypatch.setattr(interferometer, "_CHUNK_BLOCKS", 2)
        assert run_cli("run", "--duration", 0.01, "--method", "spectral",
                       "--outdir", tmp_path / "out") == 0
        assert run_cli("run", "--duration", 0.01, "--method", "boxcar",
                       "--sample-rate", 29979245.8, "--outdir",
                       tmp_path / "boxcar") == 0
        caller = threading.get_ident()
        assert len(threads) == 9
        for name in ("_spectral_blocks", "_boxcar_blocks", "_mix_blocks",
                     "_block_sums"):
            assert threads.pop(name) - {caller}, name
        assert all(idents == {caller} for idents in threads.values()), threads

    def test_traced_names_exist(self, monkeypatch):
        # every (module, attribute) that perfbench's tracer wraps is there, so
        # deleting or renaming one fails this suite, not only the benchmark
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                        / "perfbench"))
        tracing = pytest.importorskip("tracing")
        pairs = [pair for patches in tracing.PATCHES.values()
                 for pair in patches]
        assert pairs
        for module, name in pairs:
            assert hasattr(importlib.import_module(f"holonoise.{module}"),
                           name), (module, name)

    def test_zero_variance_band_rejected(self, tmp_path, capsys):
        # a silent detector A has zero PSD, so every band bin has sigma = 0
        code, _ = self.run_small(tmp_path, "silent", "--shot-asd", 0,
                                 "--no-sens-a")
        assert code == 2
        assert "zero-variance" in capsys.readouterr().err

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOLONOISE_OUTDIR", str(tmp_path / "envdir"))
        assert run_cli("run", "--duration", 0.004, "--seed", 5) == 0
        assert (tmp_path / "envdir" / "summary.json").exists()

    def test_flags_cover_every_field(self):
        # each flag lands in its own field; the band pair keeps its order
        argv = ["run", "--arm-length", "41", "--duration", "0.5",
                "--sample-rate", "2e7", "--seed", "3", "--rho", "0.25",
                "--shot-asd", "1e-19", "--no-sens-a", "--no-sens-b",
                "--method", "spectral", "--segment-length", "1024",
                "--overlap", "0", "--window", "rectangular",
                "--band-hi", "9e5", "--band-lo", "1e5", "--max-lag", "1e-6"]
        cfg = resolve_run_config(build_parser().parse_args(argv))
        assert cfg == RunConfig(41.0, 0.5, 2e7, 3, 0.25, 1e-19, False, False,
                                "spectral", 1024, 0.0, "rectangular",
                                [1e5, 9e5], 1e-6)
        assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig))


class TestVerifyCommand:
    def test_passes(self, capsys):
        assert run_cli("verify", "--boosts", 25) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out
        assert out.count("PASS") >= 30


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only oracle; the package must not pull it in, the
    # library must not pull in the command line, and the thread pool's
    # module is imported when the first pool is built
    src = str(Path(holonoise.__file__).resolve().parents[1])
    for module, absent in (("holonoise.cli", ("concurrent.futures",)),
                           ("holonoise", ("argparse", "holonoise.cli",
                                          "concurrent.futures"))):
        code = (f"import sys, {module}; print([m for m in sys.modules "
                f"if m.split('.')[0] == 'scipy' or m in {absent!r}])")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]", module


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--f-max", "inf"], "--f-max"),
    (["spectrum", "--f-max", "nan"], "--f-max"),
    (["spectrum", "--f-max", "1e6", "--f-min", "nan"], "--f-min"),
    (["spectrum", "--f-max", "1e6", "-o", "{tmp}/missing/x.csv"], "x.csv"),
    (["synth", "--n-samples", "4096", "-o", "{tmp}/missing/x.hnts"], "x.hnts"),
    (["run", "--config", "{tmp}"], "{tmp}"),
    (["run", "--config", "{tmp}/invalid.json"], "not valid JSON"),
    (["run", "--config", "{tmp}/array.json"], "must hold a JSON object"),
    (["run", "--band-lo", "1e5"], "--band-hi"),
    (["verify", "--boosts", "0"], "--boosts"),
    (["verify", "--boosts", "-3"], "--boosts"),
    (["run", "--seed", "-1", "--outdir", "{tmp}/out"], "seed"),
    (["synth", "--n-samples", "100", "--seed", "-2", "-o", "{tmp}/x.hnts"],
     "seed"),
    (["run", "--max-lag=-inf", "--duration", "1e-3", "--outdir", "{tmp}/out"],
     "max_lag"),
    (["run", "--shot-asd", "1e77", "--duration", "1e-3", "--outdir",
      "{tmp}/out"], "overflows"),
    (["run", "--segment-length", "9" * 400, "--duration", "1e-3", "--outdir",
      "{tmp}/out"], "shorter than one segment"),
    # 800,000 samples: the Welch blocks and the shot-noise draws use threads
    (["run", "--shot-asd", "1e77", "--duration", "0.05", "--outdir",
      "{tmp}/out"], "overflows"),
    # 1600 lags, beyond a quarter of the 4096-sample segments
    (["run", "--max-lag", "1e-4", "--duration", "1e-3", "--outdir",
      "{tmp}/out"], "segment_length"),
    # tables of 10**15 rows, far beyond physical memory
    (["spectrum", "--f-max", "5e6", "--n-points", str(10**15)], "--n-points"),
    (["spectrum", "--f-max", "5e6", "--n-points", str(10**15), "--format",
      "json"], "--n-points"),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, named):
    # exit 1 is reserved for a failing verify
    (tmp_path / "invalid.json").write_text('{"seed": 1,')
    (tmp_path / "array.json").write_text('[{"seed": 1}]')
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named.format(tmp=tmp_path) in err


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=4))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(
    st.sampled_from([f.name for f in fields(RunConfig)]
                    + ["arm_legnth", "band_lo", ""]),
    _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3), max_size=6))
def test_config_resolution_is_total(tmp_path, doc):
    # any JSON object resolves to a RunConfig holding exactly its values, or
    # is refused with a ConfigurationError; nothing else escapes
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    args = build_parser().parse_args(["run", "--config", str(path)])
    try:
        cfg = resolve_run_config(args)
    except ConfigurationError:
        return
    expected = dict(asdict(RunConfig()), **doc)
    assert json.dumps(asdict(cfg), sort_keys=True) == json.dumps(
        expected, sort_keys=True)


def _record_samples(doc) -> float:
    """duration x sample_rate of a run config, 0 where they are not numbers."""
    try:
        return (float(doc.get("duration", RunConfig.duration))
                * float(doc.get("sample_rate", RunConfig.sample_rate)))
    except (TypeError, ValueError, OverflowError):
        return 0.0


# tiny runs of the README geometry, each field then possibly any JSON value
_TINY_RUNS = st.fixed_dictionaries({
    "arm_length": st.just(40.0),
    "sample_rate": st.just(1.6e7),
    "duration": st.floats(1e-5, 1e-3),
    "method": st.sampled_from(METHODS),
    "window": st.sampled_from(WINDOWS),
    "segment_length": st.integers(16, 1024),
})
_ANY_FIELDS = st.dictionaries(
    st.sampled_from([f.name for f in fields(RunConfig)]),
    _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3), max_size=4)


def _strict_constant(name):
    raise ValueError(f"the JSON holds {name}")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_TINY_RUNS, _ANY_FIELDS)
def test_run_is_total(tmp_path, capsys, tiny, overrides):
    # every config either runs to a strictly valid summary.json or is
    # refused with exit 2; only the record size is bounded
    doc = dict(tiny, **overrides)
    assume(not _record_samples(doc) > 2e5)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    code = main(["run", "--config", str(path), "--outdir", str(outdir)])
    capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        json.loads((outdir / "summary.json").read_text(),
                   parse_constant=_strict_constant)


_ANY_FLOATS = st.floats() | st.floats(0.0, 1e9) | st.floats(1e9, 1e308)
_SPECTRUM_COLUMNS = ("f_hz", "psd_two_sided_m2_hz", "psd_one_sided_m2_hz",
                     "envelope_two_sided_m2_hz")


def _spectrum_columns(path, fmt) -> dict:
    """The columns of a `spectrum` output, parsed strictly: JSON without
    NaN or Infinity tokens, CSV with a strict JSON preamble; an undefined
    cell (JSON null, empty CSV cell) reads NaN."""
    text = path.read_text()
    if fmt == "json":
        doc = json.loads(text, parse_constant=_strict_constant)
        return {name: np.array([np.nan if v is None else v for v in doc[name]],
                               dtype=float) for name in _SPECTRUM_COLUMNS}
    for line in text.splitlines():
        if line.startswith("#"):
            json.loads(line.partition("=")[2], parse_constant=_strict_constant)
    return hio.read_table_csv(path)[0]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ANY_FLOATS, st.just(0.0) | _ANY_FLOATS,
       st.integers(2, 10**4) | st.integers(max_value=10**4), _ANY_FLOATS,
       st.sampled_from(("csv", "json")))
def test_spectrum_is_total(tmp_path, capsys, f_max, f_min, n_points,
                           arm_length, fmt):
    # every request either writes a strictly parseable table of finite
    # values, where only an envelope cell may be empty (CSV) or null
    # (JSON), or is refused with exit 2; no warning is raised on the way
    out = tmp_path / f"spectrum.{fmt}"
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", f"--f-max={f_max!r}", f"--f-min={f_min!r}",
                     f"--n-points={n_points}", f"--arm-length={arm_length!r}",
                     "--format", fmt, "-o", str(out)])
    capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        columns = _spectrum_columns(out, fmt)
        assert sorted(columns) == sorted(_SPECTRUM_COLUMNS)
        assert all(values.size == n_points for values in columns.values())
        envelope = columns.pop("envelope_two_sided_m2_hz")
        assert all(np.all(np.isfinite(values)) for values in columns.values())
        assert np.all(np.isfinite(envelope) | np.isnan(envelope))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(max_value=2 * 10**4) | st.integers(min_value=10**12)
       | st.integers(12, 1000).map(lambda digits: 10**digits),
       st.just(RunConfig.sample_rate) | _ANY_FLOATS,
       st.just(RunConfig.arm_length) | _ANY_FLOATS,
       st.integers(max_value=2**70),
       st.sampled_from(METHODS), st.sampled_from(("bin", "csv")))
@example(10**400, 1.6e7, 40.0, 0, "spectral", "bin")
@example(20000, 1e304, 1e-295, 0, "spectral", "bin")  # n x fs overflows
def test_synth_is_total(tmp_path, capsys, n_samples, sample_rate, arm_length,
                        seed, method, fmt):
    # every request either writes a record of n_samples finite samples that
    # reads back, or is refused with exit 2; a record the size guard lets
    # through is at most 2e4 samples, larger ones it refuses unallocated
    out = tmp_path / f"record.{fmt}"
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["synth", f"--n-samples={n_samples}",
                     f"--sample-rate={sample_rate!r}",
                     f"--arm-length={arm_length!r}", f"--seed={seed}",
                     "--method", method, "--format", fmt, "-o", str(out)])
    capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        read = hio.read_timeseries_bin if fmt == "bin" else hio.read_timeseries_csv
        ts, _ = read(out)
        assert ts.n == n_samples
        assert np.all(np.isfinite(ts.values))
