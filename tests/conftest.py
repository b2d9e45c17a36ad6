"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ddprach import channel


class _CountingNumpy:
    """``numpy`` as ``ddprach.channel`` sees it, with ``convolve`` counted."""

    def __init__(self, calls: list):
        self._calls = calls

    def convolve(self, *args, **kwargs):
        self._calls.append(1)
        return np.convolve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def convolutions(monkeypatch):
    """A list that grows by one per ``np.convolve`` call in ``ddprach.channel``,
    which filters a row span for one tap with one call."""
    calls = []
    monkeypatch.setattr(channel, "np", _CountingNumpy(calls))
    return calls
