"""Scalar and coupled comparison problems for the slope dynamics.

The slope minimum of the evolution is bounded above by the solution of

    omega' = -delta * omega - omega^2 / 2 + forcing,   omega(0) = m(0),

with forcing the energy-determined ceiling on the bounded part of the slope
equation. The closed-form blow-up time of this problem, and the quadratic
comparison lemma behind the two-sided (slope and amplitude) criterion, give
the certified upper bounds that runs are checked against.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .diagnostics import RateEstimate, geometric_mean, reciprocal_blowup_fit
from .errors import ConfigError, NumericsError

DIVERGENCE = 1.0e8
STEP_SCALE = 0.02
MAX_STEPS = 250_000


@dataclass(frozen=True)
class OdeTrajectory:
    ts: np.ndarray
    values: np.ndarray
    blew_up: bool
    fit: RateEstimate | None

    @property
    def t_blowup(self) -> float | None:
        return None if self.fit is None else self.fit.t_star


@dataclass(frozen=True)
class CoupledTrajectory:
    """Trajectory of the coupled pair bracketing (u - u_x, u + u_x).

    rising starts positive and grows; falling starts negative and drops.
    g_margin is the worst normalized defect of the quadratic lower bound on
    the geometric mean's growth (see solve_coupled); None when no interior
    sample is eligible.
    """

    ts: np.ndarray
    rising: np.ndarray
    falling: np.ndarray
    blew_up: bool
    fit: RateEstimate | None
    g_margin: float | None = None

    @property
    def t_blowup(self) -> float | None:
        return None if self.fit is None else self.fit.t_star


def omega_bound(delta: float, forcing: float, omega0: float) -> float | None:
    """Exact blow-up time of the scalar comparison problem.

    None when omega0 is not supercritical (omega0 >= -delta - s with
    s = sqrt(delta^2 + 2 forcing)); those solutions relax instead.
    """
    s = math.sqrt(delta * delta + 2.0 * forcing)
    if s == 0.0:
        # undamped, unforced: omega' = -omega^2/2 blows up iff omega0 < 0
        return -2.0 / omega0 if omega0 < 0.0 else None
    if omega0 + delta >= -s:
        return None
    shifted = omega0 + delta
    return (1.0 / s) * math.log((shifted - s) / (shifted + s))


def chen_bound(gain: float, drain: float, f0: float) -> float:
    """Blow-up time bound for f' >= gain * f^2 - drain, f(0) = f0.

    Requires gain > 0, drain > 0 and f0 > sqrt(drain/gain); anything else
    is outside the lemma's scope and is rejected.
    """
    if gain <= 0.0 or drain <= 0.0:
        raise ConfigError(
            f"quadratic comparison needs gain > 0 and drain > 0, got {gain} and {drain}"
        )
    root = math.sqrt(drain / gain)
    if f0 <= root:
        raise ConfigError(
            f"quadratic comparison needs f0 > sqrt(drain/gain) = {root:.6g}, got {f0}"
        )
    return (1.0 / (2.0 * math.sqrt(gain * drain))) * math.log((f0 + root) / (f0 - root))


def two_sided_bound(delta: float, forcing: float, g0: float) -> float | None:
    """Blow-up bound from the slope/amplitude geometric mean.

    g = sqrt(u_x^2 - u^2) at the distinguished point obeys
    g' >= (g - delta)^2 / 2 - delta^2/2 - forcing, which is the quadratic
    lemma for f = g - delta with gain 1/2 and drain delta^2/2 + forcing.
    None when g0 does not clear the threshold delta + sqrt(delta^2 + 2 forcing).
    """
    drain = 0.5 * delta * delta + forcing
    f0 = g0 - delta
    if not math.isfinite(f0) or f0 * f0 <= 2.0 * drain or f0 <= 0.0:
        return None
    if drain == 0.0:
        # forcing-free limit of the lemma: f' >= f^2/2 alone
        return 2.0 / f0
    return chen_bound(0.5, drain, f0)


def rk4(fun, t, y, dt, k1=None):
    """One classical RK4 step of y' = fun(t, y) for a float, complex, ndarray or Field y.

    k1, when given, is fun(t, y) already evaluated; the first stage then
    makes no call.
    """
    if k1 is None:
        k1 = fun(t, y)
    k2 = fun(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = fun(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = fun(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(fun, y0, t_max):
    """RK4 from t = 0 with steps STEP_SCALE / max(1, |y|), |y| the largest
    component, until t_max, |y| >= DIVERGENCE or a non-finite step.

    y is a float, or a complex number whose real and imaginary parts are the
    two components of a pair: rk4 then needs no array per stage. Both
    comparison problems are autonomous, so once a step returns its input
    exactly every later step of that size would too: the march stops there
    and extends the last value to t_max. A march that would take more than
    MAX_STEPS steps raises NumericsError.

    Returns the times, the samples' real and imaginary parts, and whether |y| diverged.
    """
    ts, ys = array("d", [0.0]), array("d", [y0.real, y0.imag])
    t, y = 0.0, y0
    size = max(abs(y0.real), abs(y0.imag))
    while t < t_max and size < DIVERGENCE:
        if len(ts) > MAX_STEPS:
            raise NumericsError(f"comparison march passed {MAX_STEPS} steps at "
                                f"t={t:.6g} of t_max={t_max:.6g}")
        dt = min(STEP_SCALE / max(1.0, size), t_max - t)
        y_next = rk4(fun, t, y, dt)
        if y_next == y:
            ts.append(t_max)
            ys.extend((y.real, y.imag))
            break
        if not cmath.isfinite(y_next):
            break
        t, y, size = t + dt, y_next, max(abs(y_next.real), abs(y_next.imag))
        ts.append(t)
        ys.extend((y.real, y.imag))
    return np.array(ts), np.array(ys).reshape(-1, 2).T, size >= DIVERGENCE


def solve_omega(
    delta: float,
    forcing: float,
    omega0: float,
    t_max: float = 20.0,
) -> OdeTrajectory:
    """Integrate the scalar comparison problem with slope-adapted RK4 steps.

    Steps shrink like STEP_SCALE / |omega| so the divergence is tracked all
    the way to the cutoff.
    """
    fun = lambda _t, y: -delta * y - 0.5 * y * y + forcing
    ts_arr, (ys_arr, _), blew = _march(fun, float(omega0), t_max)
    fit = reciprocal_blowup_fit(ts_arr, ys_arr) if blew else None
    return OdeTrajectory(ts_arr, ys_arr, blew, fit)


def solve_coupled(
    delta: float,
    forcing: float,
    rising0: float,
    falling0: float,
    t_max: float = 20.0,
) -> CoupledTrajectory:
    """Integrate the coupled comparison pair

        rising'  = -rising * (falling + 2 delta) / 2 - forcing
        falling' =  falling * (rising + 2 delta) / 2 + forcing

    which brackets (u - u_x, u + u_x) at the distinguished point of the
    two-sided criterion. Above the entry threshold (rising0 > d + s,
    falling0 < -d - s with s = sqrt(delta^2 + 2 forcing)) rising grows and
    falling drops, and their geometric mean g = sqrt(-rising * falling)
    obeys g' >= g^2/2 - delta*g - forcing. The worst defect of that bound
    along the trajectory, normalized by max(1, |quadratic|), is recorded as
    g_margin (interior samples with the sign pattern intact and g above the
    threshold; finite-difference g' via nonuniform centered differences).

    The pair brackets only starts with rising0 > 0 > falling0; any other
    start raises ConfigError.
    """
    if not rising0 > 0.0 > falling0:
        raise ConfigError(f"the coupled pair needs rising0 > 0 > falling0, "
                          f"got {rising0!r} and {falling0!r}")

    def fun(_t, y):
        r, f = y.real, y.imag
        return complex(-0.5 * r * (f + 2.0 * delta) - forcing,
                       0.5 * f * (r + 2.0 * delta) + forcing)

    ts_arr, (rising, falling), blew = _march(fun, complex(rising0, falling0), t_max)
    fit = reciprocal_blowup_fit(ts_arr, falling) if blew else None
    g_margin = _g_inequality_margin(ts_arr, rising, falling, delta, forcing)
    return CoupledTrajectory(ts_arr, rising, falling, blew, fit, g_margin)


def _g_inequality_margin(ts, rising, falling, delta, forcing):
    # worst normalized defect of g' >= g^2/2 - delta*g - forcing over the
    # proof regime (signs intact, g above the entry threshold)
    if ts.size < 3:
        return None
    g = geometric_mean(rising, falling)
    threshold = delta + math.sqrt(delta * delta + 2.0 * forcing)
    eligible = (rising > 0.0) & (falling < 0.0) & (g > threshold)
    eligible[0] = eligible[-1] = False
    dg = np.gradient(g, ts)
    quad = 0.5 * g * g - delta * g - forcing
    defect = (dg - quad) / np.maximum(1.0, np.abs(quad))
    eligible &= np.isfinite(defect)
    if not np.any(eligible):
        return None
    return float(np.min(defect[eligible]))
