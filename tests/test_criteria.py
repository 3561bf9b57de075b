"""Breaking criteria, their thresholds, and the pointwise slope law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chbreak import (
    DissipationProfile,
    Field,
    Grid,
    InitialDatum,
    RunConfig,
    SolverState,
    check_criterion1,
    check_criterion2,
    deriv,
    find_breaking_datum,
    forcing_constant,
    h1_norm_sq,
    make_datum,
    slope_threshold,
    step,
)
from reference import criterion2_at, slope_law_at_argmin, slope_rhs

GRID = Grid(30.0, 1024)
FINE = Grid(30.0, 4096)   # the supercritical search picks narrow widths


def _field(datum, grid=GRID):
    return make_datum(datum, grid)


class TestConstants:
    def test_forcing_constant_frozen(self):
        assert forcing_constant(0.0) == 0.0
        assert forcing_constant(1.0) == pytest.approx(math.sqrt(2.0) / 2.0 + 2.5,
                                                      rel=1e-14)
        assert forcing_constant(2.0) == pytest.approx(7.0, rel=1e-14)
        assert forcing_constant(4.0) == pytest.approx(4.0 * math.sqrt(2.0) + 10.0,
                                                      rel=1e-14)

    def test_forcing_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            forcing_constant(-0.1)

    def test_threshold_frozen(self):
        assert slope_threshold(0.0, 0.0) == 0.0
        assert slope_threshold(0.0, 2.0) == pytest.approx(-2.0, rel=1e-14)
        assert slope_threshold(0.5, 1.0) == pytest.approx(-2.0, rel=1e-14)
        assert slope_threshold(1.0, 4.0) == pytest.approx(-4.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(delta=st.floats(min_value=0.0, max_value=2.0),
       forcing=st.floats(min_value=1e-3, max_value=10.0),
       bump=st.floats(min_value=1e-3, max_value=1.0))
def test_threshold_strictly_decreasing(delta, forcing, bump):
    base = slope_threshold(delta, forcing)
    assert slope_threshold(delta + bump, forcing) < base
    assert slope_threshold(delta, forcing + bump) < base


class TestCriterion1:
    def test_supercritical_datum(self):
        res = find_breaking_datum("gaussian_derivative", delta=0.1, amplitude=2.0)
        rep = check_criterion1(_field(res.datum, FINE), 0.1)
        assert rep.kind == "slope_only"
        assert rep.satisfied
        assert rep.margin > 0.05
        assert rep.t_bound is not None and rep.t_bound > 0.0
        # grid argmin sits within a cell of the analytic one
        assert abs(rep.point - res.point) <= FINE.dx
        assert rep.extreme == rep.slope_at_point
        assert rep.threshold == pytest.approx(
            slope_threshold(0.1, forcing_constant(rep.energy)), rel=1e-12)

    def test_subcritical_datum(self):
        rep = check_criterion1(
            _field(InitialDatum("gaussian_derivative", amplitude=0.3, width=1.0)),
            0.0)
        assert not rep.satisfied
        assert rep.margin < 0.0
        assert rep.t_bound is None

    def test_zero_datum(self):
        rep = check_criterion1(Field(GRID, np.zeros(GRID.n_points)), 0.0)
        assert not rep.satisfied
        assert rep.threshold == 0.0
        assert math.isfinite(rep.margin)


class TestCriterion2:
    def test_odd_datum_report(self):
        res = find_breaking_datum("gaussian_derivative", delta=0.1,
                                  criterion="mixed", amplitude=2.0)
        u = _field(res.datum, FINE)
        rep = check_criterion2(u, 0.1)
        assert rep.kind == "mixed"
        assert rep.satisfied
        assert abs(rep.point - res.point) <= FINE.dx
        assert abs(rep.amp_at_point) < 1e-10           # odd profile: u(x1) = 0
        assert rep.g0 == pytest.approx(abs(rep.slope_at_point), rel=1e-9)
        assert rep.speed_bound == pytest.approx(math.sqrt(rep.energy / 2.0),
                                                rel=1e-12)
        lo, hi = rep.location
        assert lo < rep.point < hi
        assert hi - lo == pytest.approx(2.0 * rep.speed_bound * rep.t_bound,
                                        rel=1e-12)

    def test_implies_slope_only(self):
        # the two-sided condition is strictly stronger
        for delta in (0.0, 0.1):
            res = find_breaking_datum("antisym_peak", delta=delta,
                                      criterion="mixed", amplitude=1.0)
            u = _field(res.datum, FINE)
            rep2 = check_criterion2(u, delta)
            rep1 = check_criterion1(u, delta)
            assert rep2.satisfied
            assert rep1.satisfied
            assert rep1.extreme <= rep2.extreme
            assert rep1.t_bound <= rep2.t_bound * (1.0 + 1e-9)

    def test_bounds_coincide_for_odd_data(self):
        # with u = 0 at the tracked point, g0 = |m0| and the two certified
        # time bounds are the same closed form
        res = find_breaking_datum("gaussian_derivative", delta=0.1,
                                  criterion="mixed", amplitude=2.0)
        u = _field(res.datum, FINE)
        rep2 = check_criterion2(u, 0.1)
        rep1 = check_criterion1(u, 0.1)
        assert rep2.t_bound == pytest.approx(rep1.t_bound, rel=1e-6)

    def test_explicit_point_matches_detected(self):
        res = find_breaking_datum("gaussian_derivative", delta=0.0,
                                  criterion="mixed", amplitude=2.0)
        u = _field(res.datum, FINE)
        auto = check_criterion2(u, 0.0)
        pinned = criterion2_at(u, 0.0, auto.point)
        assert pinned.satisfied
        assert pinned.extreme == pytest.approx(auto.extreme, abs=1e-9)
        assert pinned.t_bound == pytest.approx(auto.t_bound, rel=1e-9)

    def test_subcritical_datum(self):
        rep = check_criterion2(
            _field(InitialDatum("sech_squared", amplitude=0.3, width=1.0)), 0.0)
        assert not rep.satisfied
        assert rep.g0 is None and rep.location is None and rep.t_bound is None


@pytest.mark.parametrize("check", [check_criterion1, check_criterion2])
def test_one_deriv_serves_slope_and_energy(check, fft_lengths):
    # an rfft and an irfft of length N, and the energy h1_norm_sq takes alone
    u = _field(InitialDatum("gaussian_derivative", amplitude=2.0, width=0.5))
    fft_lengths.clear()   # make_datum's own transforms
    rep = check(u, 0.1)
    assert fft_lengths == [GRID.n_points] * 2
    assert rep.energy == h1_norm_sq(u)


class TestSlopeLaw:
    grid = Grid(30.0, 1024)
    datum = InitialDatum("gaussian_derivative", amplitude=0.8, width=1.3, center=0.7)
    profile = DissipationProfile.constant(0.2)

    def test_matches_time_differences_along_run(self):
        cfg = RunConfig(grid=self.grid, datum=self.datum, profile=self.profile,
                        t_end=1.0)
        state = SolverState(0.0, make_datum(self.datum, self.grid))
        ts, ms, us = [0.0], [float(np.min(deriv(state.u).values))], [state.u]
        for _ in range(24):
            state = step(state, cfg)
            ts.append(state.t)
            ms.append(float(np.min(deriv(state.u).values)))
            us.append(state.u)
        worst = 0.0
        for i in range(1, len(ts) - 1):
            fd = (ms[i + 1] - ms[i - 1]) / (ts[i + 1] - ts[i - 1])
            m_rate = slope_law_at_argmin(us[i], self.profile.rate(ts[i]))[0]
            worst = max(worst, abs(fd - m_rate))
        assert worst < 5e-3    # centered differences plus argmin grid hops

    def test_agrees_with_slope_rhs_at_argmin(self):
        # at the slope minimum the convective term carries a factor uxx that
        # vanishes there, so the full slope tendency and the closed law meet
        g = Grid(30.0, 4096)
        u = make_datum(InitialDatum("gaussian_derivative", amplitude=0.1, width=2.2), g)
        prof = DissipationProfile.constant(0.0)
        j = int(np.argmin(deriv(u).values))
        gap = abs(slope_rhs(u, 0.0, prof).values[j] - slope_law_at_argmin(u, 0.0)[0])
        assert gap < 1e-6

    def test_riccati_upper_envelope(self):
        # m' <= -lambda m - m^2/2 + K pointwise in time
        cfg = RunConfig(grid=self.grid, datum=self.datum, profile=self.profile,
                        t_end=0.6)
        state = SolverState(0.0, make_datum(self.datum, self.grid))
        k0 = forcing_constant(h1_norm_sq(state.u))
        for _ in range(12):
            state = step(state, cfg)
            m = float(np.min(deriv(state.u).values))
            lhs = slope_law_at_argmin(state.u, self.profile.rate(state.t))[0]
            rhs_cap = -self.profile.rate(state.t) * m - 0.5 * m * m + k0
            assert lhs <= rhs_cap + 1e-6


class TestRiccatiForcing:
    @pytest.mark.parametrize("amp,width,delta", [
        (0.8, 1.3, 0.2),
        (0.5, 1.0, 0.5),
        (1.5, 0.5, 0.0),
    ])
    def test_stays_under_ceiling(self, amp, width, delta):
        u = make_datum(InitialDatum("gaussian_derivative", amplitude=amp,
                                    width=width), GRID)
        prof = DissipationProfile.constant(delta)
        ceiling = forcing_constant(h1_norm_sq(u)) + 0.5 * delta * delta
        assert abs(slope_law_at_argmin(u, prof.rate(0.0))[1]) <= ceiling * (1.0 + 1e-6)

    def test_lambda_term(self):
        u = make_datum(InitialDatum("gaussian_derivative", amplitude=0.5,
                                    width=1.0), GRID)
        quiet = slope_law_at_argmin(u, DissipationProfile.constant(0.0).rate(0.0))[1]
        damped = slope_law_at_argmin(u, DissipationProfile.constant(0.6).rate(0.0))[1]
        assert damped - quiet == pytest.approx(0.18, rel=1e-12)
