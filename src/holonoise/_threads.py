"""Run independent pieces of one record's work on the usable CPUs.

numpy releases the interpreter lock in `Generator` draws, in `rfft` and in
large ufuncs, so threads overlap that work.  Tasks must write only to
buffers of their own and call no name a tracer may wrap: they run on
worker threads, except the first, which runs on the calling thread.
"""

from __future__ import annotations

import functools
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
