"""Fast self-check of the benchmark harness.

    python3 -m pytest perfbench -q

Tests the span arithmetic on hand-made spans, runs every workload once at a
tiny size through run.py (checks, spans and metrics end to end), checks that
a wrong result, or a result that differs between the timed processes, is
counted as a failed pass, and that BENCHMARK.json names exactly the
workloads and metrics run.py prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent

TINY = {
    "reference_run": {"args": ["--duration", "0.008", "--shot-asd", "2e-20"],
                      "samples": 128_000},
    "long_boxcar_run": {
        "args": ["--method", "boxcar", "--sample-rate", "29979245.8",
                 "--duration", "0.008", "--shot-asd", "2e-20"],
        "samples": 239_834,
    },
}


def span(i, parent, name, start, end, pass_=0):
    return (i, parent, name, start, end, pass_)


def test_self_time_subtracts_children_once():
    spans = [
        span(0, -1, tracing.ROOT, 0.0, 10.0),
        span(1, 0, "cli.cmd_run", 1.0, 4.0),
        span(2, 1, "noise_model", 2.0, 3.0),
        span(3, 0, "analysis.welch_csd", 5.0, 9.0),
        # overlaps its sibling by 1 s and runs past the parent's end
        span(4, 0, "analysis.coherence", 8.0, 10.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(4.0)
    # root covered by [1, 4] and [5, 10] (children clipped and merged)
    assert selfs[0] == pytest.approx(2.0)


def test_nested_self_times_sum_to_root():
    spans = [
        span(0, -1, tracing.ROOT, 0.0, 7.0),
        span(1, 0, "cli.cmd_run", 0.5, 6.5),
        span(2, 1, "interferometer.simulate_dual", 1.0, 3.0),
        span(3, 2, "synthesis.synthesize", 1.5, 2.25),
        span(4, 1, "analysis.cross_correlation", 3.0, 6.0),
    ]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(7.0)


def test_per_pass_totals_fill_every_metric():
    spans = [
        span(0, -1, tracing.ROOT, 0.0, 2.0, 0),
        span(1, 0, "noise_model", 0.5, 1.0, 0),
        span(2, 0, "noise_model", 1.0, 1.25, 0),
        span(3, -1, tracing.ROOT, 2.0, 5.0, 1),
    ]
    rows = tracing.per_pass_totals(spans, [{"io.bytes_written": 7}, {}])
    assert len(rows) == 2
    assert rows[0]["noise_model.s"] == pytest.approx(0.75)
    assert rows[0]["noise_model.calls"] == 2
    assert rows[0][f"{tracing.ROOT}.self_s"] == pytest.approx(1.25)
    assert rows[0]["io.bytes_written"] == 7
    assert rows[1]["noise_model.calls"] == 0
    assert rows[1]["analysis.cross_correlation.s"] == 0.0
    assert tracing.median_rows(rows)[f"{tracing.ROOT}.s"] == pytest.approx(2.5)


def test_tracer_records_nesting_and_allocation_peaks():
    import tracemalloc
    tracer = tracing.Tracer(track_alloc=True)
    tracer.begin_pass()
    tracemalloc.start()
    try:
        with tracer.span(tracing.ROOT):
            with tracer.span("synthesis.synthesize"):
                buf = bytearray(8 * 2**20)
                del buf
            time.sleep(0.01)
    finally:
        tracemalloc.stop()
    root, child = sorted(tracer.spans, key=lambda s: s[2])
    assert child[1] == root[0] and root[1] == -1
    assert root[3] <= child[3] <= child[4] <= root[4]
    peaks = tracing.alloc_peaks_mb(tracer.allocs)
    assert peaks["synthesis.synthesize.peak_alloc_mb"] >= 8.0
    assert peaks[f"{tracing.ROOT}.peak_alloc_mb"] >= 8.0
    assert peaks["analysis.cross_correlation.peak_alloc_mb"] == 0.0
    assert tracing.self_times(tracer.spans)[root[0]] >= 0.01


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       418 |        418 |         holonoise.errors\n"
            "import time:       561 |    1211988 |   holonoise\n")
    assert run.parse_importtime(text) == {"holonoise.errors": 418e-6,
                                          "holonoise": 1.211988}


def test_span_cost_is_small_and_positive():
    assert 0.0 < tracing.span_cost_s(calls=2000) < 1e-4


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    benchmarked = [w["name"] for w in spec["workloads"]]
    assert benchmarked == list(workloads.NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.per_layer_names()]
    for m in spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    per_layer = set(run.per_layer_names())
    for row in layer_map["map"]:
        assert set(row["metrics"]) <= per_layer
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["mainly_on"]) <= set(benchmarked)
        assert set(row.get("unchanged_on", ())) <= set(benchmarked)


def result_of(argv, capsys) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_traced_run(name, capsys):
    res = result_of(["--workload", name, "--seed", "2", "--seconds", "0",
                     "--trace", "1", "--size", json.dumps(TINY[name])], capsys)
    # one span-traced pass and one under tracemalloc
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == run.per_layer_names()
    # self times of all spans, root included, add up to the traced pass
    self_sum = sum(metrics[f"{s}.self_s"] for s in tracing.SPAN_NAMES)
    assert self_sum == pytest.approx(metrics[f"{tracing.ROOT}.s"], rel=1e-9)
    assert metrics["trace.wall_s"] == pytest.approx(self_sum, rel=1e-2)
    assert 0.0 < metrics["trace.overhead_s"] < 1e-2 * metrics["trace.wall_s"]
    assert metrics["synthesis.samples"] > 0
    assert metrics["analysis.welch_csd.calls"] >= 1
    assert metrics["analysis.cross_correlation.calls"] == 1


def test_tiny_timed_run(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_ONLY_PER_GAP", 1)
    res = result_of(["--workload", "long_boxcar_run", "--seed", "3",
                     "--seconds", "0", "--trace", "0", "--size",
                     json.dumps(TINY["long_boxcar_run"])], capsys)
    # one pass in each timed process, outputs equal across them
    assert res["correct"] and res["attempted"] == run.TIMED_CHILDREN
    assert list(res["metrics"]) == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    record = json.loads((run.OUT / "long_boxcar_run-seed3-trace0.json").read_text())
    # four set-up-only processes and the three timed ones
    assert len(record["child"]["setup_samples_s"]) == 7


def test_no_pass_starts_that_would_overrun_the_window():
    class Sleeper:
        def body(self):
            time.sleep(0.1)

        def check(self, out):
            return []

    # a third 0.1-s pass would end after 0.3 s
    times, failures = child.run_passes(Sleeper(), 0.3)
    assert len(times) == 2 and not failures
    assert len(child.run_passes(Sleeper(), 0.0)[0]) == 1


def test_output_differing_between_processes_counts_as_failed():
    child = {"pass_s": [1.0, 1.1], "attempted": 2, "failures": [],
             "fingerprint": "a", "peak_rss_mb": 10.0, "setup_s": 1.0,
             "samples_per_pass": 5}
    res = run.merge_timed([child, child, dict(child, fingerprint="b",
                                              peak_rss_mb=12.0)])
    assert res["attempted"] == 6 and res["pass_s"] == [1.0, 1.1] * 3
    assert res["failures"] == ["process 3: output differs from process 1"]
    assert res["peak_rss_mb"] == 12.0


def test_wrong_amplitude_counts_as_failed(capsys):
    size = dict(TINY["reference_run"],
                args=TINY["reference_run"]["args"] + ["--rho", "0"])
    res = result_of(["--workload", "reference_run", "--seed", "2", "--seconds",
                     "0", "--trace", "1", "--size", json.dumps(size)], capsys)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == 2


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "reference_run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
