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
    # a block that calls on_blocks finds the workers busy and runs the
    # inner blocks on its thread, in one call, instead of waiting for itself
    calls = []

    def outer(blocks, scratch):
        if blocks[0] == 1:
            _threads.on_blocks(recorded(calls), 2, LARGE, none())

    _threads.on_blocks(outer, 2, LARGE, none())
    [(blocks, ident)] = calls
    assert blocks == [0, 1]
    assert ident != threading.get_ident()


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


def test_every_block_runs_once_on_any_cpu_count(monkeypatch):
    def layout(cpus, n_blocks):
        monkeypatch.setattr(_threads, "workers", lambda samples: cpus)
        calls = []
        assert _threads.on_blocks(recorded(calls), n_blocks, LARGE,
                                  none()) is None
        return sorted(blocks for blocks, _ in calls)

    assert layout(2, 5) == [[0], [1], [2], [3], [4]]
    assert layout(3, 2) == [[0], [1]]
    assert layout(4, 3) == [[0], [1], [2]]
    # on one CPU all blocks run in one call
    assert layout(1, 4) == [[0, 1, 2, 3]]
    assert layout(3, 0) == []


def test_free_threads_claim_the_blocks_a_slow_one_leaves(three_workers):
    # the worker on block 1 stalls: the other two threads run every other
    # block, where fixed runs would leave blocks to the stalled thread
    caller = threading.get_ident()
    stalled = threading.Event()
    calls = []

    def kernel(blocks, scratch):
        calls.append((blocks[0], threading.get_ident()))
        # the 12th call sets the event, whichever block it runs: block 1
        # may be the last to start, and then waits for nothing
        if len(calls) == 12:
            stalled.set()
        if blocks[0] == 1:
            stalled.wait(timeout=10.0)

    _threads.on_blocks(kernel, 12, LARGE, none())
    assert sorted(block for block, _ in calls) == list(range(12))
    slow = dict(calls)[1]
    assert slow != caller
    assert [block for block, ident in calls if ident == slow] == [1]


def test_lowest_failing_block_raised(three_workers):
    # block 4 fails first; block 2 fails later, and it is raised
    failed_high = threading.Event()

    def kernel(blocks, scratch):
        if blocks[0] == 4:
            failed_high.set()
            raise ValueError("block 4")
        if blocks[0] == 2:
            failed_high.wait(timeout=10.0)
            raise ValueError("block 2")
        if blocks[0] == 0:
            # hold this thread until block 4 has failed
            failed_high.wait(timeout=10.0)

    with pytest.raises(ValueError, match="block 2"):
        _threads.on_blocks(kernel, 6, LARGE, none())
    assert failed_high.is_set()


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
    # one block a call, every block exactly once; this thread starts on
    # block 0 and each worker on a block of its own
    assert [blocks for blocks, _, _ in calls] == [[k] for k in range(7)]
    assert calls[0][1] == caller
    assert len({ident for _, ident, _ in calls[:3]}) == 3
    # each thread works in its own arrays, the same for all its blocks
    scratches = {}
    for _, ident, scratch in calls:
        assert scratches.setdefault(ident, scratch) is scratch
    arrays = [array for scratch in scratches.values()
              for array in scratch.values()]
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
