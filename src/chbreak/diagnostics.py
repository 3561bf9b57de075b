"""Run records and the estimators built on them.

The blow-up time and rate are extracted from the reciprocal of the minimum
slope: if m(t) ~ rate / (T - t) then -1/m is a straight line in t hitting
zero at T with slope -1/rate. Fitting that line over the deep tail of a run
gives T, the rate, and a residual that certifies how straight the tail
really was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_FIT_ENTRY = -100.0
MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of a run's time series."""

    t: float
    energy: float
    min_slope: float
    x_at_min: float
    sup_abs: float
    dt: float
    lam_integral: float


@dataclass(frozen=True)
class RateEstimate:
    t_star: float
    rate: float
    window: tuple[float, float]
    n_points: int
    fit_residual: float   # max |(-1/m) - line| over the window


def geometric_mean(a, b) -> np.ndarray:
    """sqrt(-a * b) where a and b have opposite signs; nan elsewhere."""
    prod = -np.asarray(a) * np.asarray(b)
    out = np.full_like(prod, np.nan)
    ok = prod > 0.0
    out[ok] = np.sqrt(prod[ok])
    return out


def reciprocal_blowup_fit(ts: np.ndarray, vals: np.ndarray) -> RateEstimate | None:
    """Least-squares line through y = -1/vals on the tail where vals < entry.

    vals must diverge to -inf; entry = DEFAULT_FIT_ENTRY, read at each call,
    marks where the asymptotic regime is assumed to begin. Returns None when
    fewer than MIN_FIT_POINTS samples qualify or the fitted line does not
    cross zero forward in time.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    mask = np.isfinite(vals) & (vals < DEFAULT_FIT_ENTRY)
    if int(mask.sum()) < MIN_FIT_POINTS:
        return None
    # keep only the final contiguous stretch: the slope may dip below the
    # entry level transiently long before breaking
    idx = np.flatnonzero(mask)
    last = idx[-1]
    start = last
    while start > 0 and mask[start - 1]:
        start -= 1
    sel = slice(start, last + 1)
    if last + 1 - start < MIN_FIT_POINTS:
        return None
    tw = ts[sel]
    y = -1.0 / vals[sel]
    slope, intercept = np.polyfit(tw, y, 1)
    if slope >= 0.0:
        return None
    t_star = -intercept / slope
    if not (t_star > tw[0]):
        return None
    resid = float(np.max(np.abs(y - (slope * tw + intercept))))
    return RateEstimate(
        t_star=float(t_star),
        rate=float(1.0 / slope),
        window=(float(tw[0]), float(tw[-1])),
        n_points=int(tw.size),
        fit_residual=resid,
    )


def estimate_blowup(records) -> RateEstimate | None:
    """Blow-up time and rate from a run's minimum-slope series."""
    ts = np.array([r.t for r in records])
    ms = np.array([r.min_slope for r in records])
    return reciprocal_blowup_fit(ts, ms)


def track_rate(times, slopes) -> RateEstimate | None:
    """Reciprocal fit for a slope series sampled along a characteristic."""
    return reciprocal_blowup_fit(np.asarray(times), np.asarray(slopes))
