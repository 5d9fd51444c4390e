import tracemalloc
import weakref

import numpy as np
import pytest

from holonoise import CONSTANTS, HolographicSpectrum, _threads


@pytest.fixture
def spec40():
    return HolographicSpectrum(40.0)


@pytest.fixture
def held_peak(monkeypatch):
    """held_peak(make): the most bytes that make() holds at once, those
    that tracemalloc sees plus the arrays alive in anonymous mappings
    (`_threads.mapped`), which it does not see."""
    live, peak = {}, [0]

    def fold():
        # the mapped bytes were constant since the last change of them
        if tracemalloc.is_tracing():
            peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1]
                          + sum(live.values()))
            tracemalloc.reset_peak()

    def freed(key):
        fold()
        live.pop(key, None)

    def counted(shapes, _mapped=_threads.mapped):
        arrays = _mapped(shapes)
        fold()
        for array in arrays.values():
            # the views of an array keep its base alive
            while isinstance(array.base, np.ndarray):
                array = array.base
            live[id(array)] = array.nbytes
            weakref.finalize(array, freed, id(array))
        return arrays

    monkeypatch.setattr(_threads, "mapped", counted)

    def measure(make) -> int:
        live.clear()
        peak[0] = 0
        tracemalloc.start()
        try:
            make()
            fold()
            return peak[0]
        finally:
            tracemalloc.stop()
    return measure


def octave_edges(f_lo: float, f_hi: float) -> np.ndarray:
    """Octave band edges from f_lo up to (and capped at) f_hi."""
    edges = [f_lo]
    while edges[-1] * 2.0 < f_hi:
        edges.append(edges[-1] * 2.0)
    edges.append(f_hi)
    return np.asarray(edges)


def band_means(freqs, values, edges) -> np.ndarray:
    freqs = np.asarray(freqs)
    values = np.asarray(values)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (freqs >= lo) & (freqs < hi)
        assert np.any(mask), f"empty band [{lo:g}, {hi:g})"
        out.append(values[mask].mean())
    return np.asarray(out)


def integer_boxcar_rate(L: float, width: int = 32) -> float:
    """Sample rate making the coherence time an exact number of samples."""
    return width * CONSTANTS.c / (2.0 * L)
