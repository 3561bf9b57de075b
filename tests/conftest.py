"""Shared fixtures."""

import numpy as np
import pytest


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
