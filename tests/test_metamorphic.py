"""Metamorphic checks: a change of the run that must leave its answer alone.

The criteria and the characteristic laws hold on the real line, and the
periodic box stands in for it while the datum is negligible at the edges.
Doubling the box at a fixed grid spacing must then change neither the step
sequence nor the blow-up time.
"""

import pytest

from chbreak import DissipationProfile, Grid, RunConfig, estimate_blowup, find_breaking_datum, run

BOX_REL_TOL = 1e-6   # |dT*| / T* between the box and its double


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
