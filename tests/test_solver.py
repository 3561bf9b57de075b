"""Time stepping, run orchestration, and the certified slope continuation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from chbreak import (
    DissipationProfile,
    EdgeDecayError,
    Grid,
    InitialDatum,
    NumericsError,
    RunConfig,
    RunOutcome,
    SolverState,
    deriv,
    estimate_blowup,
    find_breaking_datum,
    forcing_constant,
    h1_norm_sq,
    make_datum,
    run,
    slope_threshold,
    step,
)
from chbreak import model, solver
from chbreak.characteristics import build_aux, start_track
from reference import bounded_forcing

GRID = Grid(30.0, 1024)
SMOOTH = InitialDatum("gaussian_derivative", amplitude=0.3, width=1.3)
# breaks: the live phase hands over to the certified continuation
BREAKING = RunConfig(
    grid=Grid(30.0, 4096),
    datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=0.1),
    profile=DissipationProfile.constant(0.0),
    t_end=4.0)


def _cfg(**kw):
    base = dict(grid=GRID, datum=SMOOTH,
                profile=DissipationProfile.constant(0.2), t_end=1.0)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def breaking_outcome():
    out = run(BREAKING)
    assert out.kind == "breaking_detected"
    return out


class TestConfigValidation:
    def test_t_end(self):
        with pytest.raises(ValueError):
            _cfg(t_end=-1.0)
        with pytest.raises(ValueError):
            _cfg(t_end=math.inf)
        _cfg(t_end=0.0)

    def test_cfl(self):
        with pytest.raises(ValueError):
            _cfg(cfl_factor=0.0)
        with pytest.raises(ValueError):
            _cfg(cfl_factor=1.5)

    def test_stride_and_threshold(self):
        with pytest.raises(ValueError):
            _cfg(m_stop=1.0)

    @pytest.mark.parametrize("field,value", [
        ("c_m", 0.0), ("c_m", -0.2),
        ("c_m", math.nan), ("c_m", math.inf),
        ("m_stop", math.nan),
    ])
    def test_controls_that_would_change_the_report(self, field, value):
        # each of these let a run end with a wrong outcome or no monitor
        with pytest.raises(ValueError, match=field):
            _cfg(**{field: value})

    @pytest.mark.parametrize("seeds", [(math.nan,), (0.1, math.inf)])
    def test_non_finite_seeds(self, seeds):
        # a NaN seed would give a track whose seed, position and slope are all null
        with pytest.raises(ValueError, match="seeds must be finite"):
            _cfg(seeds=seeds)
        _cfg(seeds=(0.1, -2.0))

    @pytest.mark.parametrize("center", [100.0, -30.000001, 30.0])
    def test_datum_center_outside_the_domain(self, center):
        # the datum would sample as zeros, which pass every edge check
        with pytest.raises(ValueError, match=r"datum center must lie in \[-L, L\), L = 30"):
            _cfg(datum=replace(SMOOTH, center=center))
        _cfg(datum=replace(SMOOTH, center=-30.0))


class TestStep:
    def test_zero_state_stays_zero(self):
        cfg = _cfg(datum=InitialDatum("samples", values=(0.0,) * GRID.n_points),
                   profile=DissipationProfile.constant(0.0))
        state = SolverState(0.0, make_datum(cfg.datum, GRID))
        out = step(state, cfg)
        assert np.all(out.u.values == 0.0)
        assert out.t == pytest.approx(cfg.cfl_factor * GRID.dx)
        assert out.step_index == 1

    def test_one_step_energy_decay(self):
        # the semidiscrete energy law is exact; one RK4 step matches
        # exp(-2 lambda dt) to its O(dt^5) truncation
        cfg = _cfg(profile=DissipationProfile.constant(1.0))
        state = SolverState(0.0, make_datum(SMOOTH, GRID))
        e0 = h1_norm_sq(state.u)
        after = step(state, cfg)
        ratio = h1_norm_sq(after.u) / e0
        assert ratio == pytest.approx(math.exp(-2.0 * after.last_dt), abs=1e-10)

    def test_slow_state_steps_at_its_own_speed(self):
        # 0 < sup|u| < 1, and neither the slope nor the damping cap binds
        cfg = _cfg()
        state = SolverState(0.0, make_datum(SMOOTH, GRID))
        sup = state.u.max_abs
        assert 0.0 < sup < 1.0
        assert step(state, cfg).last_dt == cfg.cfl_factor * GRID.dx / sup

    def test_constant_damping_caps_lambda_dt(self):
        cfg = _cfg(profile=DissipationProfile.constant(1.0))
        out = step(SolverState(0.0, make_datum(SMOOTH, GRID)), cfg)
        assert out.last_dt == solver.DAMPING_STEP == 0.02

    def test_negative_damping_is_capped_by_its_magnitude(self):
        # lambda runs from -2 to 0.5 on [0, 1]: |inf lambda| sets the cap
        cfg = _cfg(profile=DissipationProfile.linear_ramp(-2.0, 2.5, 0.5))
        out = step(SolverState(0.0, make_datum(SMOOTH, GRID)), cfg)
        assert out.last_dt == solver.DAMPING_STEP / 2.0

    def test_horizon_capped(self):
        cfg = _cfg(t_end=1e-4)
        state = SolverState(0.0, make_datum(SMOOTH, GRID))
        out = step(state, cfg)
        assert out.t == pytest.approx(1e-4, rel=1e-12)

    def test_underflow_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "DT_MIN", 1.0)
        cfg = _cfg()
        state = SolverState(0.0, make_datum(SMOOTH, GRID))
        with pytest.raises(NumericsError):
            step(state, cfg)

    def test_horizon_closer_than_dt_min(self, monkeypatch):
        # the step that lands on the horizon is taken; a halving of it underflows
        cfg = _cfg(t_end=1e-13)
        state = SolverState(0.0, make_datum(SMOOTH, GRID))
        assert step(state, cfg).t == 1e-13
        monkeypatch.setattr(solver, "_rk4", lambda u, *args: u * math.nan)
        with pytest.raises(NumericsError):
            step(state, cfg)

    def test_halvings_counted(self, monkeypatch):
        real = solver._rk4
        calls = []

        def fails_once(u, t, dt, profile, k1=None):
            calls.append(dt)
            out = real(u, t, dt, profile, k1)
            return out * math.nan if len(calls) == 1 else out

        monkeypatch.setattr(solver, "_rk4", fails_once)
        state = SolverState(0.0, make_datum(SMOOTH, GRID))
        out = step(state, _cfg())
        assert calls[1] == 0.5 * calls[0]
        assert (out.last_dt, out.halvings, out.step_index) == (calls[1], 1, 1)

    def test_self_convergence_order(self):
        finals = {}
        for cfl in (0.3, 0.15, 0.075):
            cfg = _cfg(t_end=0.25, cfl_factor=cfl)
            state = SolverState(0.0, make_datum(SMOOTH, GRID))
            while state.t < 0.25 * (1.0 - 1e-14):
                state = step(state, cfg)
            finals[cfl] = state.u.values.copy()
        e1 = np.max(np.abs(finals[0.3] - finals[0.15]))
        e2 = np.max(np.abs(finals[0.15] - finals[0.075]))
        assert math.log2(e1 / e2) > 3.7


class TestTrackAuxReuse:
    """A run with tracks hands each state's build_aux to the next step and to
    the diagnostics instead of taking that kernel pass again."""

    def _state_and_aux(self):
        cfg = _cfg(profile=DissipationProfile.sinusoidal(0.2, 0.2, 1.5))
        state = SolverState(0.3, make_datum(SMOOTH, GRID), step_index=4, halvings=1)
        return cfg, state, build_aux(state.u, state.t, cfg.profile)

    def test_step_with_aux_returns_the_same_state_bit_for_bit(self):
        cfg, state, aux = self._state_and_aux()
        plain, reused = step(state, cfg), step(state, cfg, aux)
        assert np.array_equal(plain.u.values, reused.u.values)
        assert (plain.t, plain.last_dt, plain.step_index, plain.halvings) == (
            reused.t, reused.last_dt, reused.step_index, reused.halvings)

    def test_step_makes_27_transforms_with_an_aux_and_38_without(self, fft_lengths):
        # 4 rhs of 9 and the slope cap's deriv of 2; the aux stands in for
        # the first rhs and the deriv
        cfg, state, aux = self._state_and_aux()
        fft_lengths.clear()
        step(state, cfg)
        assert len(fft_lengths) == 38
        fft_lengths.clear()
        step(state, cfg, aux)
        assert len(fft_lengths) == 27

    def test_a_halving_reuses_the_first_stage(self, monkeypatch):
        cfg, state, aux = self._state_and_aux()
        real = solver._rk4
        first_stages = []

        def fails_once(u, t, dt, profile, k1=None):
            first_stages.append(k1)
            out = real(u, t, dt, profile, k1)
            return out * math.nan if len(first_stages) == 1 else out

        monkeypatch.setattr(solver, "_rk4", fails_once)
        assert step(state, cfg, aux).halvings == 2
        assert len(first_stages) == 2
        assert all(k1 is aux.rhs_field for k1 in first_stages)

    def test_seeded_run_writes_the_unseeded_records(self, breaking_outcome):
        # the tracks ride along; every record, live and continued, is the same
        seeded = run(replace(BREAKING, seeds=(0.0, 0.3, -1.0)))
        assert seeded.kind == breaking_outcome.kind
        assert seeded.continued_steps > 0
        assert repr(seeded.records) == repr(breaking_outcome.records)


def _outcome_and_records(out):
    return (out.kind, out.t_final, out.t_switch, out.m_switch, out.frozen_forcing,
            out.resolution_degraded, out.live_steps, out.dt_halvings,
            out.continued_steps, repr(out.records))


class TestTracksThatLoseEdgeDecay:
    """When the tracks' kernels reject a live state, only the tracks end:
    the run goes on as it would have without seeds."""

    @pytest.mark.parametrize("width,n_points", [(0.2, 2048), (0.5, 1024)],
                             ids=["w0.2_N2048", "w0.5_N1024"])
    def test_seeded_run_stops_where_the_unseeded_one_does(self, width, n_points):
        cfg = _cfg(grid=Grid(30.0, n_points),
                   datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=width),
                   profile=DissipationProfile.constant(0.0), t_end=4.0)
        plain, seeded = run(cfg), run(replace(cfg, seeds=(0.0,)))
        assert plain.kind == "edge_decay_lost"
        assert _outcome_and_records(seeded) == _outcome_and_records(plain)
        (track,) = seeded.tracks
        assert 1 < track.n_samples < seeded.live_steps + 1
        assert track.times[-1] < seeded.t_final

    def test_ended_tracks_are_not_continued(self, monkeypatch):
        # the kernels reject the state after the first live step; the run
        # still switches and continues, and the track keeps its two samples
        cfg = _cfg(grid=Grid(30.0, 2048),
                   datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=0.15),
                   profile=DissipationProfile.constant(0.0), t_end=4.0)
        plain = run(cfg)
        calls, frozen = [], []

        def fails_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise EdgeDecayError("build_aux: field does not decay at the domain edges")
            return build_aux(*args)

        monkeypatch.setattr(solver, "build_aux", fails_third)
        monkeypatch.setattr(solver, "advance_frozen", lambda *a, **k: frozen.append(1))
        seeded = run(replace(cfg, seeds=(0.0,)))
        assert plain.continued_steps > 0
        assert _outcome_and_records(seeded) == _outcome_and_records(plain)
        assert len(calls) == 3 and not frozen
        assert seeded.tracks[0].n_samples == 2

    def test_kernels_that_reject_the_datum_still_raise(self, monkeypatch):
        def rejects(*args):
            raise EdgeDecayError("build_aux: field does not decay at the domain edges")

        monkeypatch.setattr(solver, "build_aux", rejects)
        with pytest.raises(EdgeDecayError):
            run(_cfg(seeds=(0.0,)))


class TestRun:
    def test_energy_law_over_unit_horizon(self):
        out = run(_cfg())
        assert out.kind == "reached_horizon"
        assert out.t_final == pytest.approx(1.0)
        ratio = out.records[-1].energy / out.records[0].energy
        assert ratio == pytest.approx(math.exp(-0.4), rel=1e-7)
        assert out.dissipative

    def test_zero_horizon_single_record(self):
        out = run(_cfg(t_end=0.0))
        assert out.kind == "reached_horizon"
        assert len(out.records) == 1
        assert out.records[0].t == 0.0
        assert out.records[0].energy == pytest.approx(h1_norm_sq(
            make_datum(SMOOTH, GRID)), rel=1e-12)

    def test_underflow_reported(self, monkeypatch):
        monkeypatch.setattr(solver, "DT_MIN", 1.0)
        out = run(_cfg())
        assert out.kind == "dt_underflow"
        assert out.t_final == 0.0
        assert len(out.records) == 1

    def test_edge_decay_loss_reported(self):
        cfg = _cfg(datum=InitialDatum("sech_squared", amplitude=0.5, width=0.4,
                                      center=22.0),
                   profile=DissipationProfile.constant(0.0))
        out = run(cfg)
        assert out.kind == "edge_decay_lost"
        assert out.t_final > 0.0
        assert out.records[-1].t == pytest.approx(out.t_final)

    def test_seeded_run_checks_edges_with_the_configured_tolerance(self, monkeypatch):
        # the flux's Helmholtz tail at the edge is about e^-16 = 1e-7 of its
        # peak: inside EDGE_TOL = 1e-6, outside the fixed 1e-8
        monkeypatch.setattr("chbreak.grid.EDGE_TOL", 1e-6)
        cfg = _cfg(grid=Grid(30.0, 1024),
                   datum=InitialDatum("gaussian_derivative", amplitude=0.5,
                                      width=1.0, center=14.0),
                   profile=DissipationProfile.constant(0.0), t_end=0.02)
        assert run(cfg).kind == "reached_horizon"
        out = run(replace(cfg, seeds=(14.0,)))
        assert out.kind == "reached_horizon"
        assert out.tracks[0].n_samples == len(out.records)

    def test_sink_parity(self):
        seen = []
        out = run(_cfg(t_end=0.5), sink=lambda rec, _live: seen.append(rec))
        assert seen == out.records

    def test_determinism(self):
        a = run(_cfg(t_end=0.5))
        b = run(_cfg(t_end=0.5))
        assert a.records == b.records

    def test_lam_integral_column(self):
        prof = DissipationProfile.sinusoidal(0.2, 0.2, 1.5)
        out = run(_cfg(profile=prof, t_end=0.5))
        for rec in out.records:
            assert rec.lam_integral == pytest.approx(prof.integral(rec.t),
                                                     abs=1e-14)

    def test_horizon_validation_runs_first(self):
        ramp = DissipationProfile.linear_ramp(0.0, 1.0, delta_sup=0.1)
        from chbreak import ConfigError
        with pytest.raises(ConfigError):
            run(_cfg(profile=ramp, t_end=1.0))


class TestBreakingRun:
    def test_reaches_stop_threshold(self, breaking_outcome):
        out = breaking_outcome
        assert out.records[-1].min_slope <= -1e6
        assert out.t_switch is not None and out.t_switch < out.t_final
        assert out.m_switch is not None and out.m_switch < 0.0

    def test_frozen_forcing_recorded(self, breaking_outcome):
        out = breaking_outcome
        b = out.frozen_forcing
        assert b is not None and math.isfinite(b)
        # bounded by the forcing ceiling for the switch-time energy
        e_switch = next(r.energy for r in out.records
                        if r.t == pytest.approx(out.t_switch))
        assert abs(b) <= forcing_constant(e_switch) * (1.0 + 1e-9)

    def test_slope_monotone_during_continuation(self, breaking_outcome):
        out = breaking_outcome
        tail = [r.min_slope for r in out.records if r.t >= out.t_switch]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_state_sink_phases(self):
        cfg = RunConfig(
            grid=Grid(30.0, 4096),
            datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=0.1),
            profile=DissipationProfile.constant(0.0),
            t_end=4.0)
        pairs = []
        out = run(cfg, sink=lambda rec, live: pairs.append((rec, live)))
        assert [p[0] for p in pairs] == out.records
        for rec, live in pairs:
            if rec.t <= out.t_switch:
                assert live is not None
                assert np.min(deriv(live).values) == pytest.approx(rec.min_slope)
            else:
                assert live is None

    def test_smooth_run_never_switches(self):
        out = run(_cfg(t_end=0.5))
        assert out.t_switch is None
        assert out.m_switch is None
        assert out.frozen_forcing is None
        assert not out.resolution_degraded


def test_halving_the_cfl_number_moves_neither_t_star_nor_rate():
    # refinement keeps the CFL number, so dt only scales with dx; the
    # acceptance datum must already be resolved in time at cfl 0.3
    res = find_breaking_datum("gaussian_derivative", 0.1, "slope_only", amplitude=2.0)
    fits = []
    for cfl in (0.3, 0.15):
        cfg = RunConfig(grid=Grid(30.0, 4096), datum=res.datum,
                        profile=DissipationProfile.constant(0.1), t_end=4.0,
                        cfl_factor=cfl)
        fits.append(estimate_blowup(run(cfg).records))
    assert fits[1].t_star == pytest.approx(fits[0].t_star, rel=1e-4)
    assert fits[1].rate == pytest.approx(fits[0].rate, rel=1e-4)


def test_live_phase_stops_at_m_stop():
    # m_stop above the slope the live phase reaches: the run ends before any switch
    res = find_breaking_datum("gaussian_derivative", 0.1, "slope_only", amplitude=2.0)
    cfg = RunConfig(grid=Grid(30.0, 4096), datum=res.datum,
                    profile=DissipationProfile.constant(0.1), t_end=4.0, m_stop=-2.05)
    out = run(cfg)
    assert out.kind == "breaking_detected"
    assert (out.live_steps, out.continued_steps, out.t_switch) == (1, 0, None)
    assert out.records[-1].min_slope == pytest.approx(-2.0799, abs=1e-4)
    assert out.records[-1].min_slope <= cfg.m_stop < out.records[-2].min_slope


class TestCollapseSwitch:
    def test_one_kernel_pass_for_the_frozen_fields(self, monkeypatch):
        # B and the drift of the frozen fields come from the same spectra
        cfg = _cfg(datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=1.3),
                   t_end=4.0)
        u = make_datum(cfg.datum, GRID)
        m, j, energy = solver._measure(u)
        b_front = float(bounded_forcing(u).values[j])
        outcome = RunOutcome(kind="reached_horizon", t_final=0.0, records=[], tracks=[],
                             energy0=energy, dissipative=True)
        passes = []

        def counted(grid, v):
            passes.append(grid.n_points)
            return real(grid, v)

        real = model._nonlinear_spectra
        monkeypatch.setattr(model, "_nonlinear_spectra", counted)
        monkeypatch.setattr(solver, "_nonlinear_spectra", counted)
        solver._continue_collapse(cfg, outcome, lambda *rec: None, SolverState(0.0, u),
                                  m, j, energy)
        assert passes == [GRID.n_points]
        assert outcome.frozen_forcing == b_front

    def test_untracked_continuation_makes_ten_transforms(self, fft_lengths):
        # the kernel pass (8), B (1) and the frozen velocity's spectrum for
        # the front (1); the drift field is for tracks only
        cfg = _cfg(datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=1.3),
                   t_end=4.0)
        u = make_datum(cfg.datum, GRID)
        m, j, energy = solver._measure(u)
        outcome = RunOutcome(kind="reached_horizon", t_final=0.0, records=[], tracks=[],
                             energy0=energy, dissipative=True)
        fft_lengths.clear()
        solver._continue_collapse(cfg, outcome, lambda *rec: None, SolverState(0.0, u),
                                  m, j, energy)
        assert outcome.continued_steps > 1
        assert fft_lengths == [GRID.n_points] * 10

    def test_frozen_drift_is_the_inline_symbol_product_bit_for_bit(self, monkeypatch):
        # the drift the tracks ride equals -(F / (1 + k^2)) (ik), Nyquist zeroed,
        # built from the state's own spectra as before the symbols were shared
        cfg = _cfg(datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=1.3),
                   t_end=4.0)
        u = make_datum(cfg.datum, GRID)
        m, j, energy = solver._measure(u)
        outcome = RunOutcome(kind="reached_horizon", t_final=0.0, records=[],
                             tracks=[start_track(0.0, build_aux(u, 0.0, cfg.profile))],
                             energy0=energy, dissipative=True)
        drifts = []
        monkeypatch.setattr(solver, "advance_frozen",
                            lambda track, t, dt, drift, forcing, profile, k1=None:
                            drifts.append(drift))
        solver._continue_collapse(cfg, outcome, lambda *rec: None, SolverState(0.0, u),
                                  m, j, energy)
        flux = model._nonlinear_spectra(GRID, u.values).flux
        drift_hat = -flux * GRID.helmholtz_multiplier * (1j * GRID.wavenumbers)
        drift_hat[-1] = 0.0
        assert drifts[0].values.tobytes() == np.fft.irfft(drift_hat, GRID.n_points).tobytes()


@pytest.fixture(scope="module")
def acceptance_slope_datum():
    return find_breaking_datum("gaussian_derivative", 0.1, "slope_only", amplitude=2.0).datum


@pytest.fixture
def margin_run(acceptance_slope_datum, monkeypatch):
    def run_at(margin):
        monkeypatch.setattr(solver, "COLLAPSE_MARGIN", margin)
        return run(RunConfig(grid=Grid(30.0, 4096), datum=acceptance_slope_datum,
                             profile=DissipationProfile.constant(0.1), t_end=4.0))
    return run_at


class TestCertificateMargin:
    """The acceptance slope datum at N = 4096: its first loss of resolution
    falls at a slope between 1.27 and 1.28 times the supercritical
    threshold, so COLLAPSE_MARGIN decides whether that step is certified."""

    def test_the_first_trigger_lies_between_the_two_margins(self, margin_run):
        out = margin_run(1.27)
        rec = out.records[-out.continued_steps - 1]
        assert rec.t == out.t_switch and rec.min_slope == out.m_switch
        level = slope_threshold(0.1, forcing_constant(rec.energy))
        assert 1.28 * level <= rec.min_slope < 1.27 * level

    def test_a_margin_below_the_trigger_certifies_it(self, margin_run):
        out = margin_run(1.27)
        assert out.kind == "breaking_detected" and not out.resolution_degraded
        assert out.live_steps == 3 and out.continued_steps > 0
        assert out.t_switch == pytest.approx(0.12474469587759181, rel=1e-12)

    def test_a_margin_above_the_trigger_flags_it_and_switches_a_step_later(self, margin_run):
        out = margin_run(1.28)
        assert out.kind == "breaking_detected" and out.resolution_degraded
        assert out.live_steps == 4 and out.continued_steps > 0
        assert out.t_switch == pytest.approx(0.16934514095553305, rel=1e-12)
        # the flagged step was not continued: the live records go on past it
        assert [r.t for r in out.records[:5]] == [
            r.t for r in margin_run(1.27).records[:4]] + [out.t_switch]

    def test_a_margin_never_reached_ends_uncertified(self, margin_run):
        out = margin_run(2.0)
        assert out.kind == "edge_decay_lost" and out.resolution_degraded
        assert out.live_steps == 10
        assert out.t_switch is None and out.m_switch is None
        assert out.continued_steps == 0 and out.frozen_forcing is None
