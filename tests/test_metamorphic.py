"""Metamorphic checks: a change of the run that must leave its answer alone.

The criteria and the characteristic laws hold on the real line, and the
periodic box stands in for it while the datum is negligible at the edges.
Doubling the box at a fixed grid spacing must then change neither the step
sequence nor the blow-up time.

The blow-up fit reads the certified continuation from the fit's entry
slope down to solver.M_STOP, sampled in steps C_M / max(1, |m|). A finer
sampling or a deeper stop must leave the blow-up time where it was.
"""

import pytest

from chbreak import (DissipationProfile, Grid, RunConfig, estimate_blowup, find_breaking_datum,
                     run, solver)

BOX_REL_TOL = 1e-6   # |dT*| / T* between the box and its double
C_M_REL_TOL = 1e-5   # |dT*| / T* when C_M is halved
M_STOP_REL_TOL = 1e-6   # |dT*| / T* when M_STOP is ten times deeper


@pytest.fixture(scope="module")
def acceptance_slope_datum():
    return find_breaking_datum("gaussian_derivative", 0.1, "slope_only", amplitude=2.0).datum


@pytest.mark.parametrize("n_points", [4096, 8192])
def test_doubling_the_box_at_fixed_spacing_keeps_the_blowup_time(acceptance_slope_datum,
                                                                   n_points):
    outcomes = [run(RunConfig(grid=Grid(half_length, n), datum=acceptance_slope_datum,
                              profile=DissipationProfile.constant(0.1), t_end=4.0))
                for half_length, n in ((30.0, n_points), (60.0, 2 * n_points))]
    assert [out.kind for out in outcomes] == ["breaking_detected"] * 2
    assert outcomes[0].live_steps == outcomes[1].live_steps
    t_box, t_double = (estimate_blowup(out.records).t_star for out in outcomes)
    assert abs(t_double - t_box) <= BOX_REL_TOL * t_box


@pytest.fixture
def fixed_control_run(acceptance_slope_datum, monkeypatch):
    """run_at(n_points, name, value): the acceptance slope datum at N = n_points
    with solver.<name> set to value; returns (live steps, T*)."""
    def run_at(n_points, name, value):
        monkeypatch.setattr(solver, name, value)
        out = run(RunConfig(grid=Grid(30.0, n_points), datum=acceptance_slope_datum,
                            profile=DissipationProfile.constant(0.1), t_end=4.0))
        assert out.kind == "breaking_detected"
        return out.live_steps, estimate_blowup(out.records).t_star
    return run_at


@pytest.mark.parametrize("n_points", [4096, 8192])
def test_halving_c_m_keeps_the_live_steps_and_the_blowup_time(fixed_control_run, n_points):
    steps, t_star = fixed_control_run(n_points, "C_M", solver.C_M)
    halved_steps, halved_t_star = fixed_control_run(n_points, "C_M", solver.C_M / 2.0)
    assert halved_steps == steps
    assert abs(halved_t_star - t_star) <= C_M_REL_TOL * t_star


@pytest.mark.parametrize("n_points", [4096, 8192])
def test_a_deeper_m_stop_keeps_the_blowup_time(fixed_control_run, n_points):
    _, t_star = fixed_control_run(n_points, "M_STOP", solver.M_STOP)
    _, deeper_t_star = fixed_control_run(n_points, "M_STOP", 10.0 * solver.M_STOP)
    assert abs(deeper_t_star - t_star) <= M_STOP_REL_TOL * t_star
