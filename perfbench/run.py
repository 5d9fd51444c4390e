"""holonoise benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload reference_run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nothing is installed.  Each workload runs in fresh
single-threaded child processes (BLAS and OpenMP pinned to one thread),
started one after another so that no other process of the benchmark runs
while one is timed.

--trace 0 splits `--seconds` over three timed processes, with two
processes that only set up before, between and after them.  It prints the
end-to-end metrics: `setup_s` (median over all eleven processes),
`wall_s` (median pass over the three timed ones), `msamples_per_s` and
`peak_rss_mb` (the largest of the three).  `setup_s` and `wall_s` are in
reference-core seconds: scaled by the run's calibration-kernel times, so
that the drifting speed of a shared CPU cancels (README.md, "Steadiness").
`failed_frac` is printed above the result line and is `failed / attempted`
in it.

--trace 1 prints the per-layer metrics: per-module import times from
`python -X importtime` (median of three), and, from one child, span busy
time, self time, calls and counters (median over span-traced passes),
tracemalloc peaks (one separate pass), and the tracing overhead: spans per
pass times the cost of one span, measured in a tight loop in that child.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record with the
environment and every pass time goes to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"

#: Timed processes per run, and set-up-only processes before, between and
#: after them, so that the set-up samples are spread over the whole run.
TIMED_CHILDREN = 3
SETUP_ONLY_PER_GAP = 2
IMPORTTIME_RUNS = 3
#: Time of one calibration FFT (child.calibrate) on an uncontended vCPU of
#: a 2-vCPU Intel Xeon VM: about the 5th percentile of 60 samples.  Timed
#: metrics are scaled by it over the run's mean calibration time.
CAL_REFERENCE_S = 0.165
#: Each child must finish well inside the benchmark's 180 s limit.
CHILD_TIMEOUT_S = 170.0

IMPORT_MODULES = ("holonoise", "holonoise.algebra", "holonoise.analysis",
                  "holonoise.cli", "holonoise.errors", "holonoise.interferometer",
                  "holonoise.io", "holonoise.noise_model", "holonoise.synthesis",
                  "numpy")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


END_TO_END = ["setup_s", "wall_s", "msamples_per_s", "peak_rss_mb"]


class HarnessError(RuntimeError):
    """The benchmark could not produce a result (not a failed pass)."""


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for span in tracing.SPAN_NAMES:
        names += [f"{span}.s", f"{span}.self_s", f"{span}.calls"]
    names += [f"{span}.peak_alloc_mb" for span in tracing.ALLOC_SPANS]
    names += list(tracing.COUNTERS)
    names += [f"{m}.import_s" for m in IMPORT_MODULES]
    names += ["trace.wall_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".samples", ".segments")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "B"
    if name == "msamples_per_s":
        return "Msample/s"
    return "s"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(mode: str, args, workdir: Path, seconds: float = 0.0,
              extra=()) -> dict:
    out = workdir / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(CHILD), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode,
           "--workdir", str(workdir), "--out", str(out), *extra]
    if args.size is not None:
        cmd += ["--size", args.size]
    env = child_env()
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.exists():
        raise HarnessError(f"{mode} child exited {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def import_times() -> dict:
    """Cumulative import time of each module in IMPORT_MODULES, median of runs."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import holonoise.cli"],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise HarnessError(f"importing holonoise failed:\n{proc.stderr}")
        found = parse_importtime(proc.stderr)
        for m in IMPORT_MODULES:
            samples[m].append(found.get(m, 0.0))
    return {f"{m}.import_s": median(v) for m, v in samples.items()}


def parse_importtime(text: str) -> dict:
    """Module -> cumulative seconds from `-X importtime` output."""
    found = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        found[fields[2].strip()] = int(fields[1]) / 1e6
    return found


def timed_metrics(args, workdir: Path) -> tuple[dict, dict]:
    setups, cal, children = [], [], []
    for gap in range(TIMED_CHILDREN + 1):
        for _ in range(SETUP_ONLY_PER_GAP):
            probe = run_child("setup", args, workdir)
            setups.append(probe["setup_s"])
            cal += probe["cal_s"]
        if gap < TIMED_CHILDREN:
            children.append(run_child("timed", args, workdir,
                                      args.seconds / TIMED_CHILDREN))
            setups.append(children[-1]["setup_s"])
            cal += children[-1]["cal_s"]
    res = merge_timed(children)
    # reference-core seconds: see README.md, "Steadiness"
    scale = CAL_REFERENCE_S / mean(cal)
    res.update(setup_samples_s=setups, cal_samples_s=cal, cpu_scale=scale,
               raw_setup_s=median(setups), raw_wall_s=median(res["pass_s"]))
    wall = res["raw_wall_s"] * scale
    metrics = {
        "setup_s": res["raw_setup_s"] * scale,
        "wall_s": wall,
        "msamples_per_s": res["samples_per_pass"] / wall / 1e6,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return metrics, res


def merge_timed(children: list[dict]) -> dict:
    """One result from the timed children; outputs must match across them."""
    res = dict(children[0], pass_s=[], failures=[], attempted=0)
    for k, child in enumerate(children, 1):
        res["pass_s"] += child["pass_s"]
        res["attempted"] += child["attempted"]
        res["failures"] += [f"process {k}, {f}" for f in child["failures"]]
        # a process whose own passes all agree counts one failed pass here
        if (not child["failures"]
                and child["fingerprint"] != children[0]["fingerprint"]):
            res["failures"].append(f"process {k}: output differs from process 1")
    res["peak_rss_mb"] = max(c["peak_rss_mb"] for c in children)
    res["setup_s"] = [c["setup_s"] for c in children]
    return res


def traced_metrics(args, workdir: Path) -> tuple[dict, dict]:
    metrics = import_times()
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    res = run_child("trace", args, workdir, args.seconds,
                    ["--spans", str(spans)])
    trace = json.loads(spans.read_text(encoding="utf-8"))
    rows = tracing.per_pass_totals(trace["spans"], trace["counters"])
    metrics.update(tracing.median_rows(rows))
    metrics.update(tracing.alloc_peaks_mb(trace["allocs"]))
    spans_per_pass = median(sum(row[f"{name}.calls"] for name in tracing.SPAN_NAMES)
                            for row in rows)
    metrics.update({"trace.wall_s": median(res["pass_s"]),
                    "trace.overhead_s": spans_per_pass * res["span_cost_s"]})
    return metrics, res


def environment(args, res: dict) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **res.get("versions", {}),
        "threads_per_child": 1,
        "seed": args.seed,
        "workload_seeds": f"holonoise run --seed {args.seed}",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default=None,
                   help="JSON override of the workload size (self-check only)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (ROOT / "src" / "holonoise" / "__init__.py").is_file():
        print(f"error: no holonoise source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        collect = traced_metrics if args.trace else timed_metrics
        metrics, res = collect(args, workdir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = per_layer_names() if args.trace else END_TO_END
    attempted, failed = res["attempted"], len(res["failures"])
    env = environment(args, res)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(res['pass_s'])} timed passes, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    if not args.trace:
        print(f"cpu_scale = {res['cpu_scale']:.6g} (unscaled setup_s = "
              f"{res['raw_setup_s']:.6g} s, wall_s = {res['raw_wall_s']:.6g} s)")
    for name in names:
        print(f"{name} = {metrics[name]:.6g} {unit_of(name)}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} passes)")

    record = {"workload": args.workload, "trace": args.trace,
              "environment": env, "metrics": metrics, "child": res}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
