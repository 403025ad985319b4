"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from respark import tape


@pytest.fixture
def kernel_calls(monkeypatch):
    """The index count of every call of the tape's addressed Philox kernel."""
    calls = []
    kernel = tape._philox_at

    def counted(key, idx):
        calls.append(len(idx))
        return kernel(key, idx)

    monkeypatch.setattr(tape, "_philox_at", counted)
    return calls


@pytest.fixture
def traced_peak():
    """A function that calls run() and returns (its result, the peak memory
    tracemalloc traced while it ran)."""

    def measure(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
