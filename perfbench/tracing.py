"""In-memory spans around holonoise's public functions, and their arithmetic.

A `Tracer` replaces module attributes (the names by which `holonoise.cli`,
`holonoise.interferometer`, `holonoise.synthesis` and `holonoise.analysis`
call each other) with wrappers that record one span per call.  The package
itself is not modified: `cmd_run` runs as shipped and simply finds the
wrapped names in its module globals.

Spans are kept in a list and written out when the run ends.  The functions
at the bottom turn a list of spans into per-pass busy time, self time, call
counts and counters; they import nothing from holonoise so the self-check
can test them on hand-made spans.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict
from statistics import median

#: Root span of one timed pass; its self time is the harness glue that no
#: layer span covers.
ROOT = "bench.pass"

#: span name -> [(module suffix, attribute)] wrapped under that span name.
PATCHES = {
    "cli.cmd_run": [("cli", "cmd_run")],
    "interferometer.simulate_dual": [("cli", "simulate_dual"),
                                     ("interferometer", "simulate_dual")],
    "synthesis.synthesize": [("interferometer", "synthesize")],
    "analysis.welch_psd": [("cli", "welch_psd"), ("analysis", "welch_psd")],
    "analysis.welch_csd": [("cli", "welch_csd"), ("analysis", "welch_csd")],
    "analysis.coherence": [("cli", "coherence"), ("analysis", "coherence")],
    "analysis.cross_correlation": [("cli", "cross_correlation"),
                                   ("analysis", "cross_correlation")],
    "analysis.detection_significance": [("cli", "detection_significance"),
                                        ("analysis", "detection_significance")],
    "noise_model": [("cli", "one_sided_psd"), ("cli", "analytic_autocorrelation"),
                    ("analysis", "one_sided_psd"), ("synthesis", "analytic_psd")],
    "io.write_table_csv": [("io", "write_table_csv")],
    "io.write_summary_json": [("io", "write_summary_json")],
}

SPAN_NAMES = [ROOT, *PATCHES]

#: Spans whose tracemalloc peak is reported (measured in a separate pass).
ALLOC_SPANS = (ROOT, "synthesis.synthesize", "analysis.cross_correlation")

COUNTERS = ("synthesis.samples", "analysis.segments", "io.bytes_written")


def _count(name, args, result) -> dict:
    """Counter increments for one call of the span `name`."""
    if name == "synthesis.synthesize":
        return {"synthesis.samples": args[0].n_samples}
    if name in ("analysis.welch_psd", "analysis.welch_csd", "analysis.coherence"):
        return {"analysis.segments": result.n_segments}
    if name.startswith("io."):
        return {"io.bytes_written": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Records spans (id, parent, name, start, end, pass) in memory.

    With `track_alloc` set, each span also gets its tracemalloc peak above
    the traced memory at its start; tracemalloc slows the calls, so passes
    traced that way are kept apart from the timed ones.
    """

    def __init__(self, track_alloc: bool = False):
        self.spans = []
        self.counters = []
        self.allocs = []
        self.track_alloc = track_alloc
        self._stack = []
        self._pass = -1
        self._saved = []

    def install(self, modules: dict) -> None:
        """Wrap every attribute named in PATCHES; `modules` maps suffix -> module."""
        for name, targets in PATCHES.items():
            for suffix, attr in targets:
                module = modules[suffix]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, inc in _count(name, args, result).items():
                self.counters[self._pass][key] += inc
            return result
        return wrapper

    def begin_pass(self) -> None:
        self._pass += 1
        self.counters.append(defaultdict(int))

    def span(self, name):
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "id", "start", "base", "peak")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = len(t.spans)
        t.spans.append(None)
        if t.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if t._stack:
                parent = t._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            self.base = self.peak = current
        t._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        parent = t._stack[-1].id if t._stack else -1
        t.spans[self.id] = (self.id, parent, self.name, self.start, end, t._pass)
        if t.track_alloc:
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
            t.allocs.append((self.name, self.peak - self.base, t._pass))
            if t._stack:
                outer = t._stack[-1]
                outer.peak = max(outer.peak, self.peak)
            tracemalloc.reset_peak()
        return False


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Cost of one span: a wrapped no-op call less a bare one, median of repeats."""
    def noop():
        return None

    tracer = Tracer()
    tracer.begin_pass()
    wrapped = tracer._wrap("noise_model", noop)
    costs = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((traced - (time.perf_counter() - t)) / calls)
        tracer.spans.clear()
    return median(costs)


# ------------------------------------------------------------ arithmetic


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    `spans` holds (id, parent, name, start, end, ...) tuples, parent -1 for
    a root.  Children are clipped to the parent and merged, so overlapping
    children are not counted twice.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(s[0], ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s[0]] = (end - start) - covered
    return out


def per_pass_totals(spans, counters) -> list[dict]:
    """For each pass: {metric name: value} with busy, self, calls and counters.

    Every span name in SPAN_NAMES and every counter appears in every pass,
    with 0 where the workload never reaches that layer.
    """
    selfs = self_times(spans)
    passes = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = passes[s[5]]
        row[f"{s[2]}.s"] += s[4] - s[3]
        row[f"{s[2]}.self_s"] += selfs[s[0]]
        row[f"{s[2]}.calls"] += 1
    out = []
    for p in sorted(passes):
        row = {}
        for name in SPAN_NAMES:
            for suffix in (".s", ".self_s", ".calls"):
                row[name + suffix] = passes[p].get(name + suffix, 0.0)
        for key in COUNTERS:
            row[key] = float(counters[p].get(key, 0))
        out.append(row)
    return out


def median_rows(rows: list[dict]) -> dict:
    return {key: median(r[key] for r in rows) for key in rows[0]}


def alloc_peaks_mb(allocs) -> dict:
    """`<span>.peak_alloc_mb`: the largest tracemalloc peak of any call."""
    peaks = {name: 0.0 for name in ALLOC_SPANS}
    for name, nbytes, _ in allocs:
        if name in peaks:
            peaks[name] = max(peaks[name], nbytes / 2**20)
    return {f"{name}.peak_alloc_mb": v for name, v in peaks.items()}
