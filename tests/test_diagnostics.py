"""Blow-up time/rate extraction."""

import numpy as np
import pytest

from chbreak import (
    DiagnosticsRecord,
    estimate_blowup,
    track_rate,
)
from chbreak import diagnostics
from chbreak.diagnostics import reciprocal_blowup_fit


def _records(ts, slopes):
    return [
        DiagnosticsRecord(t=float(t), energy=1.0, min_slope=float(m),
                          x_at_min=0.0, sup_abs=1.0, dt=1e-3, lam_integral=0.0)
        for t, m in zip(ts, slopes)
    ]


class TestReciprocalFit:
    def test_exact_hyperbola(self):
        ts = np.linspace(0.9, 0.999, 200)
        fit = reciprocal_blowup_fit(ts, -2.0 / (1.0 - ts))
        assert fit.t_star == pytest.approx(1.0, abs=1e-6)
        assert fit.rate == pytest.approx(-2.0, abs=1e-6)
        assert fit.fit_residual < 1e-12
        assert fit.n_points >= 8
        lo, hi = fit.window
        assert 0.98 < lo < hi == pytest.approx(0.999)

    def test_bounded_perturbation_sharpens_with_depth(self, monkeypatch):
        # an O(1) offset on top of the hyperbola biases the shallow fit;
        # deepening the entry level must shrink the bias
        ts = np.linspace(0.99, 0.9995, 400)
        vals = -2.0 / (1.0 - ts) - 5.0
        monkeypatch.setattr(diagnostics, "DEFAULT_FIT_ENTRY", -100.0)
        shallow = reciprocal_blowup_fit(ts, vals)
        monkeypatch.setattr(diagnostics, "DEFAULT_FIT_ENTRY", -1000.0)
        deep = reciprocal_blowup_fit(ts, vals)
        assert abs(shallow.rate + 2.0) < 0.1
        assert abs(deep.rate + 2.0) < 0.02
        assert abs(deep.rate + 2.0) < abs(shallow.rate + 2.0)
        assert deep.t_star == pytest.approx(1.0, abs=1e-4)

    def test_only_the_last_stretch_below_the_entry_counts(self):
        # 9 samples lie below the entry level, but a blip above it leaves
        # only the last 3 in the final stretch: too few to fit
        ts = np.linspace(0.985, 0.999, 12)
        vals = -2.0 / (1.0 - ts)
        vals[[0, 1]] = -50.0
        fit = reciprocal_blowup_fit(ts, vals)
        assert fit.n_points == 10 and fit.t_star == pytest.approx(1.0, abs=1e-9)
        vals[8] = -50.0
        assert int(np.sum(vals < -100.0)) == 9
        assert reciprocal_blowup_fit(ts, vals) is None

    def test_too_few_points(self):
        ts = np.linspace(0.99, 0.999, 5)
        assert reciprocal_blowup_fit(ts, -2.0 / (1.0 - ts)) is None

    def test_never_entering_tail(self):
        ts = np.linspace(0.0, 1.0, 50)
        assert reciprocal_blowup_fit(ts, -50.0 * np.ones(50)) is None

    def test_receding_slope_rejected(self):
        # slope relaxing back toward zero: the line has the wrong sign
        ts = np.linspace(0.0, 1.0, 50)
        vals = -1000.0 + 100.0 * ts
        assert reciprocal_blowup_fit(ts, vals) is None

    def test_uses_final_contiguous_stretch(self):
        # a transient early dip below the entry level must not pollute the fit
        ts = np.linspace(0.0, 1.0, 1001)
        vals = np.full(1001, -50.0)
        vals[100:150] = -300.0                   # transient
        tail = ts > 0.97
        vals[tail] = -2.0 / (1.0001 - ts[tail])  # true divergence
        fit = reciprocal_blowup_fit(ts, vals)
        assert fit is not None
        assert fit.window[0] > 0.97
        assert fit.t_star == pytest.approx(1.0001, abs=1e-4)
        assert fit.rate == pytest.approx(-2.0, abs=1e-3)

    def test_nan_rows_ignored(self):
        ts = np.linspace(0.9, 0.999, 200)
        vals = -2.0 / (1.0 - ts)
        vals[::17] = np.nan
        fit = reciprocal_blowup_fit(ts, vals)
        assert fit is not None and fit.rate == pytest.approx(-2.0, abs=1e-6)


def test_estimate_blowup_matches_array_fit():
    ts = np.linspace(0.9, 0.999, 200)
    slopes = -2.0 / (1.0 - ts)
    recs = _records(ts, slopes)
    from_records = estimate_blowup(recs)
    direct = reciprocal_blowup_fit(ts, slopes)
    assert from_records == direct


def test_track_rate_alias():
    ts = np.linspace(0.9, 0.999, 200)
    slopes = (-2.0 / (1.0 - ts)).tolist()
    fit = track_rate(ts.tolist(), slopes)
    assert fit.rate == pytest.approx(-2.0, abs=1e-6)
