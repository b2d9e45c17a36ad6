"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ddprach import channel


class _CountingRandom:
    """``numpy.random`` with the seed of each ``default_rng`` recorded."""

    def __init__(self, seeds: list):
        self._seeds = seeds

    def default_rng(self, seed=None):
        self._seeds.append(seed)
        return np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(np.random, name)


class _CountingNumpy:
    """``numpy`` as ``ddprach.channel`` sees it, with ``convolve`` counted
    and ``random.default_rng`` seeds recorded."""

    def __init__(self):
        self.convolutions = []
        self.seeds = []
        self.random = _CountingRandom(self.seeds)

    def convolve(self, *args, **kwargs):
        self.convolutions.append(1)
        return np.convolve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def channel_numpy(monkeypatch):
    """The counting ``numpy`` that ``ddprach.channel`` sees for the test."""
    counting = _CountingNumpy()
    monkeypatch.setattr(channel, "np", counting)
    return counting


@pytest.fixture
def convolutions(channel_numpy):
    """A list that grows by one per ``np.convolve`` call in ``ddprach.channel``,
    which filters a row span for one tap with one call."""
    return channel_numpy.convolutions


@pytest.fixture
def rng_seeds(channel_numpy):
    """The seed of each ``np.random.default_rng`` that ``ddprach.channel``
    makes, in order: one per unit noise row drawn, and one per synthesized
    channel with echoes, the only taps its seed feeds."""
    return channel_numpy.seeds
