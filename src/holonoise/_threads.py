"""Run independent pieces of one record's work on the usable CPUs.

numpy releases the interpreter lock in `Generator` draws, in `rfft` and in
large ufuncs, so threads overlap that work.  Tasks must write only to
buffers of their own and call no name a tracer may wrap: they run on
worker threads, except the first, which runs on the calling thread.
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


def runs(n_items: int, threads: int) -> list[np.ndarray]:
    """range(n_items) cut into contiguous runs, one per thread (at least
    one run, and none empty), to be handed to `run_all` in order."""
    return np.array_split(np.arange(n_items), max(1, min(n_items, threads)))


def mapped(shapes: dict) -> dict:
    """Arrays of the given {name: (shape, dtype)}, in one anonymous mapping.

    They never enter malloc's heaps, and their memory returns to the system
    when the last of them is freed.  A worker thread works in such arrays:
    what it took from malloc would stay resident in its own heap between
    runs.
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize
             for shape, dtype in shapes.values()]
    memory = mmap.mmap(-1, sum(sizes))
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


def run_all(tasks: list, samples: int) -> list:
    """Call each task on a record of `samples` samples; return the results
    in submission order.

    The first task runs on the calling thread and each other one on a
    worker thread, under the caller's numpy error state.  Below
    `MIN_SAMPLES`, on one CPU, with one task, or while another call holds
    the workers, every task runs here in order.  If tasks raise, the first
    exception in submission order is raised once every task has ended.
    """
    if (workers(samples) < 2 or len(tasks) < 2
            or not _workers_lock.acquire(blocking=False)):
        return [task() for task in tasks]
    try:
        return _run_on_workers(tasks)
    finally:
        _workers_lock.release()


#: Work offered by a caller to the CPUs that a one-thread step leaves idle
#: (`offering`, `beside`), one offer per calling thread.
_offer = threading.local()


@contextlib.contextmanager
def offering(kernel, n_items: int, samples: int):
    """Offer kernel(items) over range(n_items) to the first `beside` call
    made on this thread within the block.

    `beside` runs it on the CPUs other than its own; if no call takes it,
    it runs when the block ends, on all usable CPUs.  `kernel` is called
    on contiguous runs of items and must be a task for `run_all`.
    """
    _offer.work = (kernel, n_items)
    try:
        yield
    finally:
        work, _offer.work = _offer.work, None
    if work is not None:
        run_all([functools.partial(kernel, run)
                 for run in runs(n_items, workers(samples))], samples)


def beside(step, samples: int):
    """Return step(), run on this thread, while the work offered to this
    thread (`offering`) runs on the other usable CPUs."""
    work, _offer.work = getattr(_offer, "work", None), None
    if work is None:
        return step()
    kernel, n_items = work
    return run_all([step] + [functools.partial(kernel, run) for run in
                             runs(n_items, workers(samples) - 1)], samples)[0]


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
