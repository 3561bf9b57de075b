"""Shared fixtures."""

import numpy as np
import pytest

from chbreak.cli import _keep_arrays_on_the_heap


@pytest.fixture(scope="session", autouse=True)
def arrays_stay_on_the_heap():
    """Apply the allocator setting chbreak.cli.main makes, so that tests that
    call the library at N = 16384 do not fault their arrays in at every step
    (this changes no number)."""
    _keep_arrays_on_the_heap()


@pytest.fixture
def fft_lengths(monkeypatch):
    """Lengths of the numpy.fft rfft/irfft transforms made during the test,
    in call order."""
    lengths = []
    real_rfft, real_irfft = np.fft.rfft, np.fft.irfft

    def rfft(a, n=None, *args, **kwargs):
        lengths.append(n if n is not None else np.shape(a)[-1])
        return real_rfft(a, n, *args, **kwargs)

    def irfft(a, n=None, *args, **kwargs):
        lengths.append(n if n is not None else 2 * (np.shape(a)[-1] - 1))
        return real_irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft)
    monkeypatch.setattr(np.fft, "irfft", irfft)
    return lengths


@pytest.fixture
def phase_builds():
    """phase_builds(action) calls action and returns how many phase tables
    interp built for it: the misses of chbreak.grid._point_phases, starting
    from an empty cache."""
    from chbreak.grid import _point_phases

    def count(action):
        _point_phases.cache_clear()
        action()
        return _point_phases.cache_info().misses

    return count
