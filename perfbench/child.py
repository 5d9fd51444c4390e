"""Workload process: set up, run timed passes, check them, write the result.

Started by run.py as `python perfbench/child.py <options>` with BLAS and
OpenMP limited to one thread and the checkout's `src/` on PYTHONPATH.
Modes:

* setup: import holonoise, build the inputs, report the set-up time, exit;
* timed: as setup, then closed-loop passes for `--seconds`;
* trace: span-traced passes for `--seconds`, one pass under tracemalloc for
  the allocation peaks, then the cost of one span in a tight loop.

Set-up time runs from `--t0`, a `time.monotonic()` reading the parent takes
just before it starts this process, to the moment the inputs are built.

Setup and timed processes also time a calibration kernel (`calibrate`):
after set-up, and before each pass and after the last one.  run.py scales
the run's times by it (see README.md, "Steadiness").
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import tracing
import workloads


#: Calibration kernel: a real FFT of this many points.  It runs no holonoise
#: code, so a change to the package cannot change its time.  Its buffers
#: are over 32 MiB, so that glibc maps and unmaps them without raising its
#: mmap threshold; the passes after it allocate as they would without it.
CAL_POINTS = 2**22


def calibrate(repeats: int = 1) -> list[float]:
    """Times of `repeats` calibration FFTs; the buffers are freed afterwards."""
    import numpy as np
    x = np.ones(CAL_POINTS)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.fft.rfft(x)
        times.append(time.perf_counter() - t)
    return times


def run_passes(wl, seconds: float, tracer=None, label: str = "", cal=None):
    """Closed loop of passes within `seconds` (at least one pass).

    A further pass starts only if, taking as long as the last one, it would
    end within `seconds`.  Returns (pass wall times, failures): one line per
    failed pass.  Only `wl.body()` is timed; the output check runs between
    passes.  With a list `cal`, one calibration time is appended to it
    before each pass and after the last one.
    """
    times, failures = [], []
    start = time.monotonic()
    while True:
        if cal is not None:
            cal += calibrate()
        out, error = None, None
        if tracer is not None:
            tracer.begin_pass()
        t = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(tracing.ROOT):
                    out = wl.body()
            else:
                out = wl.body()
        except Exception:
            error = traceback.format_exc()
        times.append(time.perf_counter() - t)
        if error is not None:
            print(error, file=sys.stderr)
            problems = [error.splitlines()[-1]]
        else:
            problems = wl.check(out)
        if problems:
            failures.append(f"pass {len(times)}{label}: " + "; ".join(problems))
        if time.monotonic() - start + times[-1] > seconds:
            if cal is not None:
                cal += calibrate()
            return times, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None, help="trace mode: spans file")
    p.add_argument("--size", default=None, help="JSON override of SIZES")
    args = p.parse_args(argv)

    src = Path(args.root, "src").resolve()
    import holonoise.cli
    if Path(holonoise.__file__).resolve().parent != src / "holonoise":
        print(f"error: imported holonoise from {holonoise.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, args.workdir,
                         None if args.size is None else json.loads(args.size))
    result = {"setup_s": time.monotonic() - args.t0}

    if args.mode == "setup":
        result["cal_s"] = calibrate(repeats=2)
    else:
        import numpy
        import scipy
        result.update(samples_per_pass=wl.samples_per_pass,
                      versions={"numpy": numpy.__version__,
                                "scipy": scipy.__version__})
        if args.mode == "timed":
            result["cal_s"] = []
            result["pass_s"], failures = run_passes(wl, args.seconds,
                                                    cal=result["cal_s"])
            result["attempted"] = len(result["pass_s"])
        else:
            failures = trace(wl, args, result)
        result["failures"] = failures
        result["fingerprint"] = wl.fingerprint()
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def trace(wl, args, result) -> list[str]:
    import holonoise
    modules = {name: getattr(holonoise, name)
               for name in ("cli", "interferometer", "synthesis", "analysis", "io")}
    timed = tracing.Tracer()
    timed.install(modules)
    try:
        result["pass_s"], failures = run_passes(wl, args.seconds, timed,
                                                " (traced)")
    finally:
        timed.uninstall()

    alloc = tracing.Tracer(track_alloc=True)
    alloc.install(modules)
    tracemalloc.start()
    try:
        result["alloc_pass_s"], more = run_passes(wl, 0.0, alloc,
                                                  " (tracemalloc)")
    finally:
        tracemalloc.stop()
        alloc.uninstall()
    failures += more
    result["attempted"] = len(result["pass_s"]) + len(result["alloc_pass_s"])
    result["span_cost_s"] = tracing.span_cost_s()

    Path(args.spans).write_text(json.dumps({
        "spans": timed.spans, "counters": timed.counters,
        "allocs": alloc.allocs,
    }), encoding="utf-8")
    return failures


if __name__ == "__main__":
    sys.exit(main())
