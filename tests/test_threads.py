import sys
import threading

import numpy as np
import pytest

from holonoise import _threads

LARGE = _threads.MIN_SAMPLES


@pytest.fixture
def three_workers(monkeypatch):
    # the pool path, whatever the CPU count of the machine running the suite
    monkeypatch.setattr(_threads, "workers",
                        lambda samples: 1 if samples < LARGE else 3)


def test_results_in_submission_order(three_workers):
    caller = threading.get_ident()
    tasks = [lambda k=k: (k, threading.get_ident()) for k in range(5)]
    results = _threads.run_all(tasks, LARGE)
    assert [k for k, _ in results] == list(range(5))
    assert results[0][1] == caller
    assert all(ident != caller for _, ident in results[1:])


def test_small_records_run_on_the_calling_thread(three_workers):
    caller = threading.get_ident()
    results = _threads.run_all([threading.get_ident] * 3, LARGE - 1)
    assert results == [caller] * 3


def test_tasks_inherit_caller_errstate(three_workers):
    # np.errstate is per thread; a pool thread must still raise on overflow
    big = np.full(4, 1e200)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _threads.run_all([lambda: None, lambda: big * big], LARGE)


def test_first_error_raised_after_every_task_ends(three_workers):
    ended = threading.Event()
    release = threading.Event()

    def fail(message):
        raise ValueError(message)

    def slow():
        release.wait(timeout=10.0)
        ended.set()

    def first():
        release.set()
        fail("first")

    with pytest.raises(ValueError, match="first"):
        _threads.run_all([first, slow, lambda: fail("third")], LARGE)
    assert ended.is_set()
    with pytest.raises(ValueError, match="second"):
        _threads.run_all([lambda: None, lambda: fail("second"),
                          lambda: fail("third")], LARGE)


def test_nested_call_runs_inline(three_workers):
    # a task that calls run_all finds the workers busy and runs its own
    # tasks on its thread, instead of waiting for itself
    def inner():
        return _threads.run_all([threading.get_ident] * 2, LARGE)

    _, idents = _threads.run_all([lambda: None, inner], LARGE)
    assert idents[0] == idents[1] != threading.get_ident()


def test_concurrent_callers_get_their_own_results(three_workers):
    # one caller at a time uses the workers; the others run inline
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = {}

        def caller(c):
            results[c] = [_threads.run_all([lambda k=k: (c, k)
                                            for k in range(3)], LARGE)
                          for _ in range(50)]

        callers = [threading.Thread(target=caller, args=(c,))
                   for c in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in callers)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == list(range(4))
    assert all(run == [(c, 0), (c, 1), (c, 2)]
               for c, runs in results.items() for run in runs)


def test_runs_cover_the_items_in_order():
    assert [list(run) for run in _threads.runs(5, 2)] == [[0, 1, 2], [3, 4]]
    assert [list(run) for run in _threads.runs(2, 3)] == [[0], [1]]
    assert [list(run) for run in _threads.runs(4, 0)] == [[0, 1, 2, 3]]


def test_mapped_arrays_do_not_overlap():
    arrays = _threads.mapped({"a": ((3, 4), float), "b": ((5,), complex)})
    arrays["a"][...] = 1.0
    arrays["b"][...] = 2.0 + 1.0j
    assert arrays["a"].shape == (3, 4) and np.all(arrays["a"] == 1.0)
    assert arrays["b"].dtype == complex and np.all(arrays["b"] == 2.0 + 1.0j)


def offered_items(calls):
    """An offerable kernel that records (thread, items) per call."""
    def kernel(items):
        calls.append((threading.get_ident(), list(items)))
    return kernel


def test_offered_work_runs_beside_the_step(three_workers):
    caller = threading.get_ident()
    calls = []
    with _threads.offering(offered_items(calls), 5, LARGE):
        assert _threads.beside(threading.get_ident, LARGE) == caller
        # the offer is taken once
        assert _threads.beside(lambda: "again", LARGE) == "again"
    assert sorted(items for _, items in calls) == [[0, 1, 2], [3, 4]]
    assert all(ident != caller for ident, _ in calls)


def test_offered_work_not_taken_runs_at_the_end(three_workers):
    calls = []
    with _threads.offering(offered_items(calls), 5, LARGE):
        assert calls == []
    runs = dict((items[0], ident) for ident, items in calls)
    assert sorted(items for _, items in calls) == [[0, 1], [2, 3], [4]]
    assert runs[0] == threading.get_ident() != runs[2]


def test_offered_work_dropped_on_error(three_workers):
    calls = []
    with pytest.raises(ValueError):
        with _threads.offering(offered_items(calls), 5, LARGE):
            raise ValueError("stop")
    assert calls == []
    assert _threads.beside(lambda: "alone", LARGE) == "alone"
