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


def none():
    """A workspace of no work arrays."""
    return _threads.Workspace({})


def recorded(calls):
    """A block kernel that records (blocks, thread) per call."""
    def kernel(blocks, scratch):
        calls.append((list(blocks), threading.get_ident()))
    return kernel


def test_step_runs_here_beside_the_runs(three_workers):
    caller = threading.get_ident()
    calls = []
    assert _threads.on_blocks(recorded(calls), 5, LARGE, none(),
                              step=threading.get_ident) == caller
    # the runs cover the blocks in order, on the two other threads
    calls.sort()
    assert [blocks for blocks, _ in calls] == [[0, 1, 2], [3, 4]]
    assert all(ident != caller for _, ident in calls)


def test_small_records_run_on_the_calling_thread(three_workers):
    caller = threading.get_ident()
    calls = []
    assert _threads.on_blocks(recorded(calls), 3, LARGE - 1, none(),
                              step=threading.get_ident) == caller
    assert calls == [([0, 1, 2], caller)]


def test_tasks_inherit_caller_errstate(three_workers):
    # np.errstate is per thread; a pool thread must still raise on overflow
    big = np.full(4, 1e200)

    def kernel(blocks, scratch):
        if blocks[0] != 0:
            big * big

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _threads.on_blocks(kernel, 2, LARGE, none())


def test_first_error_raised_after_every_task_ends(three_workers):
    ended = threading.Event()
    release = threading.Event()

    def fail(message):
        raise ValueError(message)

    def slow_second(blocks, scratch):
        if blocks[0] == 0:
            release.set()
            fail("first")
        if blocks[0] == 1:
            release.wait(timeout=10.0)
            ended.set()
        else:
            fail("third")

    with pytest.raises(ValueError, match="first"):
        _threads.on_blocks(slow_second, 3, LARGE, none())
    assert ended.is_set()

    def failing_second(blocks, scratch):
        if blocks[0] == 1:
            fail("second")
        if blocks[0] == 2:
            fail("third")

    with pytest.raises(ValueError, match="second"):
        _threads.on_blocks(failing_second, 3, LARGE, none())


def test_nested_call_runs_inline(three_workers):
    # a run that calls on_blocks finds the workers busy and runs its own
    # blocks on its thread, instead of waiting for itself
    calls = []

    def outer(blocks, scratch):
        if blocks[0] == 1:
            _threads.on_blocks(recorded(calls), 2, LARGE, none())

    _threads.on_blocks(outer, 2, LARGE, none())
    (first, ident), (second, other) = sorted(calls)
    assert (first, second) == ([0], [1])
    assert ident == other != threading.get_ident()


def test_concurrent_callers_get_their_own_results(three_workers):
    # one caller at a time uses the workers; the others run inline
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = {}

        def caller(c):
            results[c] = []
            for _ in range(50):
                out = [None] * 3

                def kernel(blocks, scratch):
                    for b in blocks:
                        out[b] = (c, b)

                _threads.on_blocks(kernel, 3, LARGE, none())
                results[c].append(out)

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


def test_runs_cover_the_items_in_order(monkeypatch):
    def layout(cpus, n_blocks, step=None):
        monkeypatch.setattr(_threads, "workers", lambda samples: cpus)
        calls = []
        assert _threads.on_blocks(recorded(calls), n_blocks, LARGE, none(),
                                  step) == (None if step is None else step())
        return sorted(blocks for blocks, _ in calls)

    assert layout(2, 5) == [[0, 1, 2], [3, 4]]
    assert layout(3, 2) == [[0], [1]]
    # a step that takes the one CPU leaves all blocks to one run
    assert layout(1, 4, step=lambda: "step") == [[0, 1, 2, 3]]


def test_mapped_arrays_do_not_overlap():
    arrays = _threads.mapped({"a": ((3, 4), float), "b": ((5,), complex)})
    arrays["a"][...] = 1.0
    arrays["b"][...] = 2.0 + 1.0j
    assert arrays["a"].shape == (3, 4) and np.all(arrays["a"] == 1.0)
    assert arrays["b"].dtype == complex and np.all(arrays["b"] == 2.0 + 1.0j)


def test_on_blocks_runs_each_block_once(three_workers):
    caller = threading.get_ident()
    calls = []

    def kernel(blocks, scratch):
        calls.append((list(blocks), threading.get_ident(), scratch))

    _threads.on_blocks(kernel, 7, LARGE, _threads.Workspace(
        {"a": ((4,), float), "b": ((2, 3), complex)}))
    calls.sort(key=lambda call: call[0][0])
    # contiguous runs, one per worker, that cover every block exactly once
    assert [blocks for blocks, _, _ in calls] == [[0, 1, 2], [3, 4], [5, 6]]
    assert calls[0][1] == caller
    assert all(ident != caller for _, ident, _ in calls[1:])
    arrays = [array for _, _, scratch in calls for array in scratch.values()]
    assert [(array.shape, array.dtype) for array in arrays] == [
        ((4,), np.dtype(float)), ((2, 3), np.dtype(complex))] * 3
    assert not any(np.shares_memory(first, second)
                   for k, first in enumerate(arrays)
                   for second in arrays[k + 1:])


def test_on_blocks_small_records_run_here_in_one_run(three_workers):
    calls = []
    _threads.on_blocks(lambda blocks, scratch: calls.append(
        (list(blocks), threading.get_ident())), 4, LARGE - 1, none())
    assert calls == [([0, 1, 2, 3], threading.get_ident())]


def test_offered_work_runs_beside_the_step(three_workers):
    caller = threading.get_ident()
    calls = []
    with _threads.offering(recorded(calls), 5, LARGE, none()):
        assert _threads.beside(threading.get_ident) == caller
        # the offer is taken once
        assert _threads.beside(lambda: "again") == "again"
    assert sorted(items for items, _ in calls) == [[0, 1, 2], [3, 4]]
    assert all(ident != caller for _, ident in calls)


def test_offered_work_not_taken_runs_at_the_end(three_workers):
    calls = []
    with _threads.offering(recorded(calls), 5, LARGE, none()):
        assert calls == []
    runs = dict((items[0], ident) for items, ident in calls)
    assert sorted(items for items, _ in calls) == [[0, 1], [2, 3], [4]]
    assert runs[0] == threading.get_ident() != runs[2]


def test_offered_work_dropped_on_error(three_workers):
    calls = []
    with pytest.raises(ValueError):
        with _threads.offering(recorded(calls), 5, LARGE, none()):
            raise ValueError("stop")
    assert calls == []
    assert _threads.beside(lambda: "alone") == "alone"
