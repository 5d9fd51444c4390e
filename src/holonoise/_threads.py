"""Run independent pieces of one record's work on the usable CPUs.

numpy releases the interpreter lock in `Generator` draws, in `rfft` and in
large ufuncs, so threads overlap that work.  Work handed to a thread must
write only to buffers of its own and call no name a tracer may wrap.

One entry point, `on_blocks`, runs all threaded work: a block kernel,
kernel(blocks, scratch), on one contiguous run of blocks per usable CPU,
each run with work arrays of its own from a `Workspace`, which maps them
(`mapped`), where all work memory is, and keeps them for a loop of calls.
The first run goes to the calling thread or, given a `step`, the calling
thread returns step() while the runs use the other CPUs.  `offering` and
`beside` pass a caller's blocks down to a callee's one-thread step.
"""

from __future__ import annotations

import contextlib
import functools
import math
import mmap
import os
import threading

import numpy as np

#: Records shorter than this run on the calling thread alone.  On a 2-vCPU
#: Xeon VM threads made a paired Welch pass of 2**15 samples 0.6 ms slower
#: (1.8 -> 2.4 ms); from 2**17 samples they were as fast or faster.
MIN_SAMPLES = 1 << 17


def workers(samples: int) -> int:
    """Threads worth using on a record of `samples` samples: one per usable
    CPU, or 1 below `MIN_SAMPLES`."""
    if samples < MIN_SAMPLES:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: A mapping is private (mmap makes shared ones by default), and from this
#: size on it asks for transparent huge pages, as numpy does for its large
#: arrays: on a 2-vCPU Xeon VM a first write to 100 MB of 8 MB mappings
#: took 28-36 ms, against 60-80 ms in shared mappings of small pages.
_PRIVATE = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
            if hasattr(mmap, "MAP_ANONYMOUS") else {})
_HUGE_PAGES_FROM = 1 << 22


def mapped(shapes: dict) -> dict:
    """Arrays of the given {name: (shape, dtype)}, in one anonymous mapping.

    They never enter malloc's heaps, and their memory returns to the system
    when the last of them is freed.  A worker thread works in such arrays:
    what it took from malloc would stay resident in its own heap between
    runs.
    """
    if not shapes:
        return {}
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize
             for shape, dtype in shapes.values()]
    # mmap refuses length 0
    memory = mmap.mmap(-1, max(sum(sizes), 1), **_PRIVATE)
    if sum(sizes) >= _HUGE_PAGES_FROM:
        with contextlib.suppress(AttributeError, OSError):
            memory.madvise(mmap.MADV_HUGEPAGE)
    arrays, offset = {}, 0
    for (name, (shape, dtype)), size in zip(shapes.items(), sizes):
        arrays[name] = np.frombuffer(memory, dtype, math.prod(shape),
                                     offset).reshape(shape)
        offset += size
    return arrays


class _Worker:
    """A thread that runs one task at a time.

    Tasks are handed over through two plain locks, whose blocking acquire
    allocates nothing; the calling thread's allocations then do not depend
    on thread timing, which keeps glibc's heap of a run the same from run
    to run.  The task must not raise.
    """

    def __init__(self):
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        self._task = None
        threading.Thread(target=self._loop, name="holonoise",
                         daemon=True).start()

    def _loop(self):
        while True:
            self._go.acquire()
            self._task()
            # drop the task before signalling, so that the calling thread,
            # which made it, is the one that frees it
            self._task = None
            self._done.release()

    def start(self, task):
        self._task = task
        self._go.release()

    def wait(self):
        self._done.acquire()


#: Started on first use and kept for the life of the process; one caller
#: at a time holds `_workers_lock` while it uses them.
_workers: list[_Worker] = []
_workers_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.clear)


class Workspace:
    """Work arrays of {name: (shape, dtype)} for the runs of `on_blocks`
    calls: each run's arrays are mapped (`mapped`) when a call first needs
    them and kept for the later calls given this workspace, so that a loop
    of calls maps them once; they are unmapped with the workspace.  Calls
    that share a workspace must not overlap."""

    def __init__(self, shapes: dict):
        self.shapes = shapes
        self._runs = []

    def run(self, i: int) -> dict:
        """The arrays of run i."""
        while len(self._runs) <= i:
            self._runs.append(mapped(self.shapes))
        return self._runs[i]


def on_blocks(kernel, n_blocks: int, samples: int, workspace: Workspace,
              step=None):
    """Call kernel(blocks, arrays) on contiguous runs of range(n_blocks),
    one run per CPU usable on `samples` samples, each run with arrays of its
    own, those of `workspace`; the kernel writes its results into
    caller-owned buffers, block by block.  Return step(), or None.

    The first run goes to this thread, or, given `step`, this thread runs
    step() and the runs take the other CPUs; each other task runs on a
    worker thread under the caller's numpy error state.  Below
    `MIN_SAMPLES`, on one CPU, or while another call holds the workers,
    every task runs here in order, step first.  If tasks raise, the first
    exception in that order is raised once every task has ended.
    """
    threads = workers(samples)
    runs = np.array_split(np.arange(n_blocks), max(
        1, min(n_blocks, threads - (step is not None))))
    tasks = [functools.partial(kernel, run, workspace.run(i))
             for i, run in enumerate(runs)]
    if step is not None:
        tasks.insert(0, step)
    if (threads < 2 or len(tasks) < 2
            or not _workers_lock.acquire(blocking=False)):
        results = [task() for task in tasks]
    else:
        try:
            results = _run_on_workers(tasks)
        finally:
            _workers_lock.release()
    return None if step is None else results[0]


#: Work offered by a caller to the CPUs that a one-thread step leaves idle
#: (`offering`, `beside`), one offer per calling thread.
_offer = threading.local()


@contextlib.contextmanager
def offering(kernel, n_blocks: int, samples: int, workspace: Workspace):
    """Offer `on_blocks(kernel, n_blocks, samples, workspace)` to the first
    `beside` call made on this thread within the block, which runs it on
    the CPUs other than its own; untaken, it runs when the block ends."""
    _offer.work = (kernel, n_blocks, samples, workspace)
    try:
        yield
    finally:
        work, _offer.work = _offer.work, None
    if work is not None:
        on_blocks(*work)


def beside(step):
    """Return step(), run on this thread, while the work offered to this
    thread (`offering`) runs on the other usable CPUs."""
    work, _offer.work = getattr(_offer, "work", None), None
    return step() if work is None else on_blocks(*work, step)


def _run_on_workers(tasks: list) -> list:
    err = np.geterr()
    results = [None] * len(tasks)
    errors = [None] * len(tasks)

    def run(k):
        try:
            with np.errstate(**err):
                results[k] = tasks[k]()
        except BaseException as exc:  # raised again on the calling thread
            errors[k] = exc

    while len(_workers) < len(tasks) - 1:
        _workers.append(_Worker())
    pool = _workers[:len(tasks) - 1]
    for k, worker in enumerate(pool, 1):
        worker.start(functools.partial(run, k))
    try:
        results[0] = tasks[0]()
    finally:
        # the tasks fill caller-owned buffers: none may outlive this call
        for worker in pool:
            worker.wait()
    for error in errors:
        if error is not None:
            raise error
    return results
