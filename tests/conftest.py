"""Fixtures shared by the test modules."""

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
