"""Run independent pieces of one record's work on the usable CPUs.

numpy releases the interpreter lock in `Generator` draws, in `rfft` and in
large ufuncs, so threads overlap that work.  Work handed to a thread must
write only to buffers of its own and call no name a tracer may wrap.

One entry point, `on_blocks`, runs all threaded work: a block kernel,
kernel(blocks, scratch), on every block of a job, one thread per usable
CPU, each with work arrays of its own from a `Workspace`, which maps them
(`mapped`), where all work memory is, and keeps them for a loop of calls.
Each worker starts on a block of its own; after that every thread claims
the next unclaimed block until none is left, so a thread that runs faster
runs more blocks instead of waiting for the others.
"""

from __future__ import annotations

import contextlib
import itertools
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


def nbytes(shapes: dict) -> int:
    """Bytes of the arrays of {name: (shape, dtype)} (`mapped`)."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize
               for shape, dtype in shapes.values())


def mapped(shapes: dict) -> dict:
    """Arrays of the given {name: (shape, dtype)}, in one anonymous mapping.

    They never enter malloc's heaps, and their memory returns to the system
    when the last of them is freed.  A worker thread works in such arrays:
    what it took from malloc would stay resident in its own heap between
    runs.
    """
    if not shapes:
        return {}
    sizes = [nbytes({name: spec}) for name, spec in shapes.items()]
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


#: One-thread executors, started on first use and kept for the life of the
#: process; one caller at a time holds `_workers_lock` while it uses them.
#: Each takes its own task, so no worker runs two tasks of one call.
_workers: list = []
_workers_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.clear)


class Workspace:
    """Work arrays of {name: (shape, dtype)} for the threads of `on_blocks`
    calls: each thread's run of arrays is mapped (`mapped`) when a call
    first needs it and kept for the later calls given this workspace, so
    that a loop of calls maps them once; they are unmapped with the
    workspace.  Calls that share a workspace must not overlap."""

    def __init__(self, shapes: dict):
        self.shapes = shapes
        self._runs = []

    def run(self, i: int) -> dict:
        """The arrays of run i."""
        while len(self._runs) <= i:
            self._runs.append(mapped(self.shapes))
        return self._runs[i]


def on_blocks(kernel, n_blocks: int, samples: int,
              workspace: Workspace) -> None:
    """Call kernel(blocks, arrays) on every block of range(n_blocks), each
    block once, on the CPUs usable on `samples` samples; each thread works
    in arrays of its own, a run of `workspace`, and the kernel writes its
    results into caller-owned buffers, block by block.

    Thread i (this one is 0) starts on block i; then every thread takes
    the next unclaimed block until none is left.  A worker runs under the
    caller's numpy error state.  Below `MIN_SAMPLES`, on one CPU, or while
    another call holds the workers, all blocks run here in one call.  The
    lowest failing block's exception is raised once every thread stops.
    """
    threads = min(workers(samples), n_blocks)
    if threads < 2 or not _workers_lock.acquire(blocking=False):
        if n_blocks:
            kernel(range(n_blocks), workspace.run(0))
        return
    try:
        _claim_on_workers(kernel, n_blocks, workspace, threads)
    finally:
        _workers_lock.release()


def _claim_on_workers(kernel, n_blocks: int, workspace: Workspace,
                      threads: int) -> None:
    err = np.geterr()
    # every thread's arrays are mapped here, before any worker starts
    arrays = [workspace.run(t) for t in range(threads)]
    # next() on a count is one C call, atomic under the interpreter lock
    claim = itertools.count(threads)
    failed = {}  # failing block: its exception

    def run(block, scratch):
        # a claimed block always runs, and claims stop once one has failed:
        # the blocks below a failing one all run
        while block < n_blocks:
            try:
                kernel(range(block, block + 1), scratch)
            except BaseException as exc:  # raised again on the calling thread
                failed[block] = exc
            if failed:
                return
            block = next(claim)

    def work(t):
        with np.errstate(**err):
            run(t, arrays[t])

    # imported here: at module level it slows `import holonoise`
    from concurrent.futures import ThreadPoolExecutor
    _workers.extend(ThreadPoolExecutor(max_workers=1,
                                       thread_name_prefix="holonoise")
                    for _ in range(threads - 1 - len(_workers)))
    tasks = [worker.submit(work, t)
             for t, worker in enumerate(_workers[:threads - 1], 1)]
    try:
        run(0, arrays[0])
    finally:
        # the blocks fill caller-owned buffers: none may outlive this call;
        # `work` raises nothing, its blocks' errors are in `failed`
        for task in tasks:
            task.exception()
    if failed:
        raise failed[min(failed)]
