"""Scalar comparison dynamics, certified time bounds, coupled pair."""

import math

import numpy as np
import pytest

from chbreak import (
    ConfigError,
    chen_bound,
    omega_bound,
    solve_coupled,
    solve_omega,
    two_sided_bound,
)
from chbreak.diagnostics import geometric_mean
from chbreak.riccati import DIVERGENCE, STEP_SCALE, rk4

LOG3 = 1.0986122886681098
HALF_LOG3 = 0.5493061443340549


def _ndarray_march(fun, y0, t_max):
    """The comparison march with the state as an ndarray and every RK4 stage
    through rk4: the reference that solve_omega and solve_coupled must
    reproduce bit for bit."""
    ts, ys = [0.0], [np.array(y0, dtype=float)]
    t, y = 0.0, ys[0]
    while t < t_max and np.abs(y).max() < DIVERGENCE:
        dt = min(STEP_SCALE / max(1.0, np.abs(y).max()), t_max - t)
        y_next = rk4(fun, t, y, dt)
        if np.array_equal(y_next, y):
            ts.append(t_max)
            ys.append(y)
            break
        if not np.all(np.isfinite(y_next)):
            break
        t, y = t + dt, y_next
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys)


class TestOmegaBound:
    def test_frozen_values(self):
        # s = 1: bound log((-2-1)/(-2+1)) = log 3
        assert omega_bound(0.0, 0.5, -2.0) == pytest.approx(LOG3, rel=1e-12)
        # pure quadratic decay: -2/omega0
        assert omega_bound(0.0, 0.0, -1.0) == pytest.approx(2.0, rel=1e-12)
        assert omega_bound(0.0, 0.0, -2.0) == pytest.approx(1.0, rel=1e-12)

    def test_subcritical_returns_none(self):
        s = math.sqrt(0.25 + 2.0)
        assert omega_bound(0.5, 1.0, -(0.5 + s)) is None      # on the root
        assert omega_bound(0.5, 1.0, -(0.5 + s) + 0.01) is None
        assert omega_bound(0.5, 1.0, 0.0) is None
        assert omega_bound(0.0, 1.0, 3.0) is None

    def test_steeper_start_breaks_sooner(self):
        bounds = [omega_bound(0.0, 0.5, w0) for w0 in (-2.0, -2.5, -3.0, -5.0)]
        assert all(b is not None for b in bounds)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_more_damping_delays(self):
        assert omega_bound(0.0, 0.5, -3.0) < omega_bound(0.4, 0.5, -3.0)


class TestChenBound:
    def test_frozen_values(self):
        assert chen_bound(1.0, 1.0, 2.0) == pytest.approx(HALF_LOG3, rel=1e-12)
        assert chen_bound(2.0, 8.0, 5.0) == pytest.approx(math.log(7.0 / 3.0) / 8.0,
                                                          rel=1e-12)

    @pytest.mark.parametrize("gain,drain,f0", [
        (0.0, 1.0, 2.0),
        (-1.0, 1.0, 2.0),
        (1.0, 0.0, 2.0),
        (1.0, -2.0, 2.0),
        (1.0, 1.0, 1.0),    # exactly on the rest point
        (1.0, 1.0, 0.5),    # below it
    ])
    def test_rejects_degenerate_inputs(self, gain, drain, f0):
        with pytest.raises(ConfigError):
            chen_bound(gain, drain, f0)


class TestTwoSidedBound:
    def test_reduces_to_chen(self):
        assert two_sided_bound(0.0, 1.0, 3.0) == pytest.approx(
            chen_bound(0.5, 1.0, 3.0), rel=1e-12)

    def test_zero_drain_limit(self):
        assert two_sided_bound(0.0, 0.0, 3.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_subcritical_returns_none(self):
        assert two_sided_bound(0.5, 1.0, 0.4) is None          # g0 below delta
        assert two_sided_bound(0.0, 1.0, 1.0) is None          # f0^2 <= 2 drain
        assert two_sided_bound(0.0, 1.0, math.nan) is None

    @pytest.mark.parametrize("delta,forcing,g0", [
        (0.0, 0.5, 2.0),
        (0.1, 1.0, 3.0),
        (0.5, 0.25, 2.2),
    ])
    def test_coincides_with_slope_bound_for_odd_data(self, delta, forcing, g0):
        # both bounds collapse to the same closed form when the tracked
        # point starts with zero amplitude, i.e. g0 = |m0|
        t2 = two_sided_bound(delta, forcing, g0)
        t1 = omega_bound(delta, forcing, -g0)
        assert t2 is not None and t1 is not None
        assert t2 == pytest.approx(t1, rel=1e-12)


class TestSolveOmega:
    def test_pure_quadratic_blowup(self):
        traj = solve_omega(0.0, 0.0, -1.0)
        assert traj.blew_up
        assert traj.fit is not None
        assert traj.fit.t_star == pytest.approx(2.0, abs=1e-4)
        assert traj.fit.rate == pytest.approx(-2.0, abs=1e-3)
        assert np.all(np.diff(traj.ts) > 0.0)
        # omega = 2/(t - 2) along the march, up to the steep end
        early, mid, late = np.interp([0.0, 1.0, 1.9], traj.ts, traj.values)
        assert early == pytest.approx(-1.0, abs=1e-12)
        assert mid == pytest.approx(-2.0, abs=1e-3)
        assert late == pytest.approx(-20.0, abs=2e-2)

    def test_equality_ode(self):
        # delta=0, K=2, omega0=-4 maps to f' = f^2 - 1, f0 = 2 under
        # omega = -2 f, whose blow-up time is exactly (1/2) log 3
        traj = solve_omega(0.0, 2.0, -4.0)
        assert traj.blew_up
        assert traj.fit.t_star == pytest.approx(HALF_LOG3, abs=1e-3)
        t0 = HALF_LOG3
        exact = -2.0 / math.tanh(t0 - 0.3)
        assert np.interp(0.3, traj.ts, traj.values) == pytest.approx(exact, abs=1e-3)
        assert omega_bound(0.0, 2.0, -4.0) == pytest.approx(HALF_LOG3, rel=1e-12)

    @pytest.mark.parametrize("delta,forcing,omega0", [
        (0.0, 0.5, -2.0),
        (0.3, 1.0, -3.0),
        (0.5, 0.25, -2.2),
    ])
    def test_numeric_respects_bound(self, delta, forcing, omega0):
        bound = omega_bound(delta, forcing, omega0)
        traj = solve_omega(delta, forcing, omega0)
        assert traj.blew_up
        assert traj.fit.t_star <= bound + 1e-3
        assert traj.ts[-1] <= bound + 1e-3

    def test_subcritical_relaxes_to_stable_root(self):
        delta, forcing = 0.2, 1.0
        traj = solve_omega(delta, forcing, 0.0)
        assert not traj.blew_up
        assert traj.fit is None
        root = -delta + math.sqrt(delta * delta + 2.0 * forcing)
        assert traj.values[-1] == pytest.approx(root, abs=1e-6)
        assert traj.ts[-1] == pytest.approx(20.0)

    def test_fixed_point_of_the_step_ends_the_march(self):
        # the ODE is autonomous: once a step returns its input exactly, the
        # value holds to t_max without marching 1e7 / 0.02 more steps
        traj = solve_omega(0.0, 2.0, 0.0, t_max=1e7)
        assert not traj.blew_up
        assert traj.ts.size < 2000
        assert traj.ts[-1] == 1e7
        assert traj.values[-1] == traj.values[-2] == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(traj.ts) > 0.0)

    @pytest.mark.parametrize("delta,forcing,omega0,t_max", [
        (0.1, 1.0, -3.0, 20.0), (0.2, 1.0, 0.0, 20.0), (0.0, 2.0, 0.0, 1e7)])
    def test_matches_the_ndarray_march_bit_for_bit(self, delta, forcing, omega0, t_max):
        fun = lambda _t, y: -delta * y - 0.5 * y * y + forcing
        ts, ys = _ndarray_march(fun, [omega0], t_max)
        traj = solve_omega(delta, forcing, omega0, t_max=t_max)
        assert np.array_equal(traj.ts, ts)
        assert np.array_equal(traj.values, ys[:, 0])


class TestSolveCoupled:
    @pytest.mark.parametrize("delta,forcing,rising0,falling0,t_max", [
        (0.1, 1.0, 3.0, -3.0, 20.0),     # supercritical: diverges
        (0.5, 0.1, 0.2, -0.2, 3.0),      # runs to t_max
        (0.0, 0.0, 1e-3, -1e-3, 50.0),   # slow growth, |y| < 1 throughout
    ])
    def test_matches_the_ndarray_march_bit_for_bit(self, delta, forcing, rising0,
                                                   falling0, t_max):
        def fun(_t, state):
            r, f = state
            return np.array([-0.5 * r * (f + 2.0 * delta) - forcing,
                             0.5 * f * (r + 2.0 * delta) + forcing])

        ts, ys = _ndarray_march(fun, [rising0, falling0], t_max)
        traj = solve_coupled(delta, forcing, rising0, falling0, t_max=t_max)
        assert np.array_equal(traj.ts, ts)
        assert np.array_equal(traj.rising, ys[:, 0])
        assert np.array_equal(traj.falling, ys[:, 1])

    def test_supercritical_pair(self):
        delta, forcing = 0.1, 1.0
        traj = solve_coupled(delta, forcing, rising0=3.0, falling0=-3.0)
        assert traj.blew_up
        assert traj.fit is not None
        # the falling component carries the divergence
        assert traj.falling[-1] <= -1e8 * (1.0 - 1e-9)
        assert np.all(np.diff(traj.rising) > 0.0)
        assert np.all(np.diff(traj.falling) < 0.0)
        g = geometric_mean(traj.rising, traj.falling)
        assert np.nanmin(np.diff(g)) > -1e-8
        bound = two_sided_bound(delta, forcing, float(g[0]))
        assert traj.fit.t_star <= bound + 1e-3
        # the scalar inequality the pair is meant to witness
        assert traj.g_margin is not None
        assert traj.g_margin >= -1e-3

    def test_subcritical_pair_decays(self):
        traj = solve_coupled(0.1, 1.0, rising0=1.0, falling0=-1.0, t_max=5.0)
        assert not traj.blew_up
        assert traj.fit is None

    @pytest.mark.parametrize("rising0,falling0", [
        (1.0, 1.0), (-1.0, -1.0), (0.0, -3.0), (3.0, 0.0), (-3.0, 3.0),
        (math.nan, -3.0), (3.0, math.nan),
    ])
    def test_start_outside_the_bracket_is_rejected(self, rising0, falling0):
        # outside rising0 > 0 > falling0 the pair brackets nothing, and a
        # positive falling component grows like e^(delta t) for the whole march
        with pytest.raises(ConfigError, match="rising0 > 0 > falling0"):
            solve_coupled(0.1, 0.0, rising0, falling0, t_max=1e7)

    def test_geometric_mean_nan_outside_wedge(self):
        traj = solve_coupled(0.1, 1.0, rising0=1.0, falling0=-1.0, t_max=5.0)
        g = geometric_mean(traj.rising, traj.falling)
        prod = -traj.rising * traj.falling
        assert np.all(np.isnan(g[prod <= 0.0]))
        ok = prod > 0.0
        assert np.allclose(g[ok], np.sqrt(prod[ok]), atol=1e-12)
