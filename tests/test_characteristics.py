"""Flow-map tracks: transport laws, dual routes, the two-sided structure, diffeo factor."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from chbreak import (
    CharacteristicTrack,
    DissipationProfile,
    Field,
    Grid,
    InitialDatum,
    LemmaResidual,
    RunConfig,
    build_aux,
    diffeo_factor,
    find_breaking_datum,
    lemma_residual,
    make_datum,
    run,
    start_track,
)
from chbreak import characteristics, solver
from chbreak.characteristics import advance, advance_frozen
from chbreak.diagnostics import geometric_mean
from chbreak.grid import deriv, interp
from chbreak.model import _nonlinear_spectra, rhs
from reference import (NATIVE_GRID_TOL, bounded_forcing, padded_reference, rel_gap,
                       second_deriv, slope_rhs)

SMOOTH_GRID = Grid(30.0, 2048)
SMOOTH_DATUM = InitialDatum("gaussian_derivative", amplitude=0.8, width=1.3,
                            center=0.7)
SMOOTH_PROFILE = DissipationProfile.sinusoidal(0.2, 0.2, 1.5)

# one dt halving must cut the finite-difference residuals by at least
RESID_DROP = 3.5


@pytest.fixture(scope="module")
def smooth_runs():
    out = {}
    for cfl in (0.3, 0.15, 0.075):
        cfg = RunConfig(grid=SMOOTH_GRID, datum=SMOOTH_DATUM,
                        profile=SMOOTH_PROFILE, t_end=0.5,
                        cfl_factor=cfl, seeds=(0.5, -1.0))
        out[cfl] = run(cfg)
    assert all(o.kind == "reached_horizon" for o in out.values())
    return out


@pytest.fixture(scope="module")
def breaking_run():
    cfg = RunConfig(
        grid=Grid(30.0, 4096),
        datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=0.1),
        profile=DissipationProfile.constant(0.0),
        t_end=4.0, seeds=(0.0,))
    out = run(cfg)
    assert out.kind == "breaking_detected"
    return out


def _count_interps(monkeypatch):
    """Record the points of every interp call the characteristics module
    makes, as a tuple per call."""
    points = []
    real_interp = characteristics.interp
    monkeypatch.setattr(characteristics, "interp",
                        lambda f, q: points.append(tuple(np.atleast_1d(q).tolist()))
                        or real_interp(f, q))
    return points


class TestBasicTransport:
    def test_zero_field_is_stationary(self):
        grid = Grid(30.0, 256)
        cfg = RunConfig(grid=grid,
                        datum=InitialDatum("samples", values=(0.0,) * 256),
                        profile=DissipationProfile.constant(0.0),
                        t_end=0.2, seeds=(0.5,))
        out = run(cfg)
        tr = out.tracks[0]
        assert np.allclose(tr.positions, 0.5, atol=1e-15)
        assert np.allclose(tr.u_vals, 0.0, atol=1e-15)
        assert np.allclose(tr.ux_vals, 0.0, atol=1e-15)
        assert np.allclose(diffeo_factor(tr), 1.0, atol=1e-15)

    def test_positive_field_carries_tracks_right(self):
        cfg = RunConfig(grid=Grid(30.0, 1024),
                        datum=InitialDatum("sech_squared", amplitude=0.4,
                                           width=1.0),
                        profile=DissipationProfile.constant(0.0),
                        t_end=0.4, seeds=(-1.0, 1.0))
        out = run(cfg)
        for tr in out.tracks:
            assert np.all(np.diff(tr.positions) > 0.0)

    def test_tracks_advance_in_lockstep_with_records(self, smooth_runs):
        out = smooth_runs[0.3]
        tr = out.tracks[0]
        assert tr.n_samples == len(out.records)
        assert np.allclose(tr.times, [r.t for r in out.records], atol=1e-15)

    def test_start_track(self):
        u = make_datum(SMOOTH_DATUM, SMOOTH_GRID)
        aux = build_aux(u, 0.0, SMOOTH_PROFILE)
        tr = start_track(0.5, aux)
        assert tr.seed == 0.5
        assert tr.n_samples == 1
        assert tr.times == [0.0]
        assert not tr.edge_contaminated

    def test_aux_fields_match_the_separate_operators_bit_for_bit(self):
        # build_aux shares one kernel pass; the separate calls are the
        # reference, and uxx's is the numpy route with the symbol inline
        u = make_datum(SMOOTH_DATUM, SMOOTH_GRID)
        t = 0.4
        aux = build_aux(u, t, SMOOTH_PROFILE)
        assert aux.lam == SMOOTH_PROFILE.rate(t)
        for got, expect in ((aux.ux, deriv(u)), (aux.uxx, second_deriv(u)),
                            (aux.rhs_field, rhs(u, t, SMOOTH_PROFILE)),
                            (aux.slope_field, slope_rhs(u, t, SMOOTH_PROFILE))):
            assert np.array_equal(got.values, expect.values)
        # the slope channel against products made on the 3N/2 grid
        slope_ref = padded_reference(u, SMOOTH_PROFILE.rate(t))[2]
        assert rel_gap(aux.slope_field.values, slope_ref) < NATIVE_GRID_TOL

    def test_aux_checks_the_flux_edges_once(self, fft_lengths):
        # kernel 8, flux 1, one shared edge smoothing 2, ux 1, uxx 1, rhs 1,
        # slope_field 4
        grid = Grid(30.0, 1024)
        u = make_datum(SMOOTH_DATUM, grid)
        fft_lengths.clear()
        build_aux(u, 0.4, SMOOTH_PROFILE)
        assert len(fft_lengths) == 18

    def test_advance_builds_three_phase_rows_for_nine_interps(self, phase_builds,
                                                               monkeypatch):
        # the old positions, the predictors, then seven fields at the new
        # ones; every call reads all three tracks at once
        before, after = _live_aux_pair()
        tracks = [start_track(s, before) for s in (0.5, -1.2, 2.5)]
        points = _count_interps(monkeypatch)
        assert phase_builds(lambda: advance(tracks, before, after)) == 3
        assert len(points) == 9 and len(set(points)) == 3
        assert all(len(p) == 3 for p in points)

    def test_batch_matches_one_track_at_a_time_bit_for_bit(self):
        grid = Grid(30.0, 1024)
        u = make_datum(SMOOTH_DATUM, grid)
        auxes = [build_aux(u, 0.01 * i, SMOOTH_PROFILE) for i in range(4)]
        seeds = (0.3, -1.2, 2.5, 29.9)
        tracks = [start_track(s, auxes[0]) for s in seeds]
        reference = [start_track(s, auxes[0]) for s in seeds]
        for before, after in zip(auxes, auxes[1:]):
            advance(tracks, before, after)
            for tr in reference:
                _advance_alone(tr, before, after)
        assert repr(tracks) == repr(reference)
        assert tracks[-1].edge_contaminated
        assert all(type(ok) is bool for tr in tracks for ok in tr.reliable)


class TestConvergence:
    def test_flow_map_order(self, smooth_runs):
        q = {c: smooth_runs[c].tracks[0].positions[-1] for c in smooth_runs}
        e1 = abs(q[0.3] - q[0.15])
        e2 = abs(q[0.15] - q[0.075])
        assert math.log2(e1 / e2) > 1.8

    def test_residuals_drop_under_dt_halving(self, smooth_runs):
        for track_idx in (0, 1):
            r = {c: lemma_residual(smooth_runs[c].tracks[track_idx])
                 for c in smooth_runs}
            assert r[0.3].max_resid_u / r[0.15].max_resid_u > RESID_DROP
            assert r[0.3].max_resid_ux / r[0.15].max_resid_ux > RESID_DROP
            assert r[0.15].max_resid_u / r[0.075].max_resid_u > RESID_DROP
            assert r[0.15].max_resid_ux / r[0.075].max_resid_ux > RESID_DROP
            assert r[0.075].n_checked > r[0.3].n_checked

    def test_route_agreement_on_smooth_run(self, smooth_runs):
        for tr in smooth_runs[0.3].tracks:
            r = lemma_residual(tr)
            assert r.route_gap_u < 1e-6
            assert r.route_gap_ux < 1e-6

    def test_diffeo_factor_order(self, smooth_runs):
        d = {c: diffeo_factor(smooth_runs[c].tracks[0])[-1] for c in smooth_runs}
        e1 = abs(d[0.3] - d[0.15])
        e2 = abs(d[0.15] - d[0.075])
        assert math.log2(e1 / e2) > 1.8

    def test_diffeo_factor_positive_and_normalized(self, smooth_runs):
        df = diffeo_factor(smooth_runs[0.3].tracks[0])
        assert df[0] == 1.0
        assert np.all(df > 0.0)
        assert np.all(np.isfinite(df))


class TestBreakingTrack:
    def test_diffeo_collapses(self, breaking_run):
        df = diffeo_factor(breaking_run.tracks[0])
        assert np.all(np.isfinite(df))
        assert np.all(df > 0.0)
        assert df[-1] < 1e-6    # dq/dseed crushed at the front

    def test_monitor_clean_along_breaking_track(self, breaking_run):
        # while u - u_x > 0 > u + u_x, g = sqrt(u_x^2 - u^2) never decreases
        # and never exceeds -u_x; the signs hold on every sample here
        tr = breaking_run.tracks[0]
        u = np.asarray(tr.u_vals)
        w = np.asarray(tr.ux_vals)
        phi, psi = u - w, u + w
        assert np.all((phi > 0.0) & (psi < 0.0))
        g = np.sqrt(-phi * psi)
        assert np.max(g[:-1] - g[1:]) <= 1e-6
        assert np.max(g + w) <= 1e-9

    def test_g_identity(self, breaking_run):
        tr = breaking_run.tracks[0]
        u = np.asarray(tr.u_vals)
        w = np.asarray(tr.ux_vals)
        g = geometric_mean(u - w, u + w)
        prod = w * w - u * u
        ok = prod > 0.0
        assert np.allclose(g[ok], np.sqrt(prod[ok]), rtol=1e-12)
        assert np.all(np.isnan(g[~ok]))

    def test_unreliable_tail_excluded_from_residual(self, breaking_run):
        tr = breaking_run.tracks[0]
        assert not all(tr.reliable)          # slope passes 1e5 before the stop
        r = lemma_residual(tr)
        assert r.n_checked < tr.n_samples - 2
        for v in (r.max_resid_u, r.max_resid_ux, r.route_gap_u, r.route_gap_ux):
            assert math.isfinite(v)


class TestLemmaResidualMatchesTheLoop:
    """lemma_residual over whole arrays against the per-sample loop it
    replaced, kept below as the reference route: bit for bit."""

    def test_smooth_tracks(self, smooth_runs):
        for out in smooth_runs.values():
            for tr in out.tracks:
                _assert_same_bits(lemma_residual(tr), _lemma_residual_loop(tr))

    def test_breaking_track_with_unreliable_samples(self, breaking_run):
        tr = breaking_run.tracks[0]
        assert not all(tr.reliable)
        _assert_same_bits(lemma_residual(tr), _lemma_residual_loop(tr))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_tracks(self, smooth_runs, n):
        tr = _first_samples(smooth_runs[0.3].tracks[0], n)
        assert tr.n_samples == n
        r = lemma_residual(tr)
        _assert_same_bits(r, _lemma_residual_loop(tr))
        assert r.max_resid_u == r.max_resid_ux == 0.0 and r.n_checked == 0
        assert (r.route_gap_u > 0.0) == (n > 0)

    def test_nan_rhs_never_raises_a_maximum(self, smooth_runs):
        tr = _first_samples(smooth_runs[0.3].tracks[0], 6)
        assert all(tr.reliable)
        tr.rhs_u[2] = math.nan
        r = lemma_residual(tr)
        _assert_same_bits(r, _lemma_residual_loop(tr))
        assert r.n_checked == 4
        assert all(math.isfinite(v) for v in astuple(r))
        # the NaN sample's terms drop out; the other samples' terms stay
        clean = _first_samples(smooth_runs[0.3].tracks[0], 6)
        assert r.max_resid_ux == lemma_residual(clean).max_resid_ux
        assert 0.0 < r.max_resid_u <= lemma_residual(clean).max_resid_u


class TestEdgeContamination:
    def test_seed_near_boundary_flagged(self):
        cfg = RunConfig(grid=Grid(30.0, 1024),
                        datum=InitialDatum("sech_squared", amplitude=0.4,
                                           width=1.0),
                        profile=DissipationProfile.constant(0.0),
                        t_end=0.1, seeds=(29.98,))
        out = run(cfg)
        tr = out.tracks[0]
        assert tr.edge_contaminated
        assert not any(tr.reliable)


class TestFrozenAdvance:
    def test_matches_closed_slope_law(self):
        # zero drift, zero forcing: w' = -w^2/2 has 1/w affine in t
        grid = Grid(30.0, 256)
        zero = Field(grid, np.zeros(256))
        prof = DissipationProfile.constant(0.0)
        tr = CharacteristicTrack(seed=0.0)
        tr.times, tr.positions = [0.0], [0.0]
        tr.u_vals, tr.ux_vals = [0.0], [-3.0]
        tr.rhs_u, tr.rhs_ux = [0.0], [-4.5]
        tr.rhs_u_alt, tr.rhs_ux_alt = [0.0], [0.0]
        tr.reliable = [True]
        dt = 1e-3
        advance_frozen(tr, 0.0, dt, drift=zero, forcing=zero, profile=prof)
        w_exact = -3.0 / (1.0 - 1.5 * dt)
        assert tr.ux_vals[-1] == pytest.approx(w_exact, abs=1e-12)
        assert tr.positions[-1] == 0.0
        assert tr.u_vals[-1] == 0.0
        assert math.isnan(tr.rhs_ux_alt[-1])    # no spectral route while frozen
        assert tr.rhs_ux[-1] == pytest.approx(-0.5 * w_exact * w_exact, rel=1e-12)

    def test_builds_five_phase_rows_for_five_interps(self, phase_builds, monkeypatch):
        # each RK4 stage, then the new sample, reads drift and forcing at the
        # track's one point in one call
        track = _frozen_tracks()[0]
        drift, forcing = _frozen_fields()
        points = _count_interps(monkeypatch)
        assert phase_builds(lambda: advance_frozen(track, 0.0, 0.01, drift, forcing,
                                                   SMOOTH_PROFILE)) == 5
        assert len(points) == 5 and len(set(points)) == 5
        assert all(len(p) == 1 for p in points)

    def test_handed_back_stage_changes_no_bit(self):
        tracks, plain, reference = _frozen_tracks(), _frozen_tracks(), _frozen_tracks()
        drift, forcing = _frozen_fields()
        for handed, tr, ref in zip(tracks, plain, reference):
            t, dt, k1 = 0.0, 0.01, None
            for _ in range(5):
                k1 = advance_frozen(handed, t, dt, drift, forcing, SMOOTH_PROFILE, k1)
                advance_frozen(tr, t, dt, drift, forcing, SMOOTH_PROFILE)
                _advance_frozen_alone(ref, t, dt, drift, forcing, SMOOTH_PROFILE)
                t += dt
        assert repr(tracks) == repr(plain) == repr(reference)

    def test_handed_back_step_builds_four_rows_in_four_calls(self, phase_builds, monkeypatch):
        # the first stage is the last sample's, so only RK4's other three
        # stages and the new sample read the fields, both in one call
        track = _frozen_tracks()[0]
        drift, forcing = _frozen_fields()
        k1 = advance_frozen(track, 0.0, 0.01, drift, forcing, SMOOTH_PROFILE)
        points = _count_interps(monkeypatch)
        assert phase_builds(lambda: advance_frozen(track, 0.01, 0.01, drift, forcing,
                                                   SMOOTH_PROFILE, k1)) == 4
        assert len(points) == 4 and len(set(points)) == 4
        assert all(len(p) == 1 for p in points)


class TestFrozenPhaseOfARun:
    def test_frozen_samples_store_the_laws_at_their_own_state_bit_for_bit(self, monkeypatch):
        # a breaking run whose seeds include the front at x = 0; the laws
        # are evaluated here one sample at a time against fields rebuilt
        # from the state the run switched at
        cfg = RunConfig(
            grid=Grid(30.0, 4096),
            datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=0.1),
            profile=SMOOTH_PROFILE, t_end=4.0, seeds=(-0.05, 0.0, 0.05))
        lives = []
        out = run(cfg, sink=lambda rec, live: lives.append(live))
        assert out.kind == "breaking_detected" and out.continued_steps > 1
        assert min(out.tracks[1].ux_vals) < cfg.m_stop
        u = [live for live in lives if live is not None][-1]
        drift = Field(u.grid, np.fft.irfft(_nonlinear_spectra(u.grid, u.values).drift,
                                           u.grid.n_points))
        forcing = bounded_forcing(u)
        stored, laws = [], []
        for tr in out.tracks:
            for t, q, v, w, ru, rw in zip(tr.times, tr.positions, tr.u_vals, tr.ux_vals,
                                          tr.rhs_u, tr.rhs_ux):
                if t > out.t_switch:
                    lam = SMOOTH_PROFILE.rate(t)
                    stored += [ru, rw]
                    laws += [interp(drift, q) - lam * v,
                             -0.5 * w * w + interp(forcing, q) - lam * w]
        # each track takes its own frozen steps, one sample each
        frozen = [sum(t > out.t_switch for t in tr.times) for tr in out.tracks]
        assert all(n >= 1 for n in frozen)
        assert len(stored) == 2 * sum(frozen)
        assert np.array(stored).tobytes() == np.array(laws).tobytes()
        assert repr(run(cfg).tracks) == repr(out.tracks)
        # and a run whose continued steps drop the stage the solver hands back
        handed = []
        monkeypatch.setattr(solver, "advance_frozen", lambda *args: handed.append(
            (args[0].seed, args[6] is not None)) or advance_frozen(*args[:6]))
        assert repr(run(cfg).tracks) == repr(out.tracks)
        assert handed == [(tr.seed, k > 0) for tr, n in zip(out.tracks, frozen)
                          for k in range(n)]


@pytest.fixture(scope="module")
def tracked_run():
    """The benchmark's tracked input: the acceptance slope datum at N = 8192
    with nine tracks across the front."""
    datum = find_breaking_datum("gaussian_derivative", 0.1, "slope_only", amplitude=2.0).datum
    cfg = RunConfig(grid=Grid(30.0, 8192), datum=datum, profile=DissipationProfile.constant(0.1),
                    t_end=4.0, seeds=(-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4))
    out = run(cfg)
    assert out.kind == "breaking_detected"
    return cfg, out


def _one_sample_track(w):
    tr = CharacteristicTrack(seed=0.0)
    tr.times, tr.positions, tr.u_vals, tr.ux_vals = [0.0], [0.0], [0.0], [w]
    tr.rhs_u, tr.rhs_ux, tr.rhs_u_alt, tr.rhs_ux_alt = [0.0], [-0.5 * w * w], [math.nan], [math.nan]
    tr.reliable = [True]
    return tr


class TestFrozenTracksStepAlone:
    def test_each_track_equals_a_run_seeded_with_it_alone_bit_for_bit(self):
        cfg = RunConfig(
            grid=Grid(30.0, 4096),
            datum=InitialDatum("gaussian_derivative", amplitude=2.0, width=0.1),
            profile=SMOOTH_PROFILE, t_end=4.0, seeds=(0.2, 0.0, -0.3))
        out = run(cfg)
        assert out.kind == "breaking_detected"
        for seed, track in zip(cfg.seeds, out.tracks):
            alone = run(replace(cfg, seeds=(seed,)))
            assert alone.records == out.records
            assert repr(alone.tracks) == repr([track])
        # the tracks took different numbers of frozen steps
        frozen = [sum(t > out.t_switch for t in tr.times) for tr in out.tracks]
        assert len(set(frozen)) > 1

    def test_mild_tracks_take_few_frozen_steps(self, tracked_run):
        cfg, out = tracked_run
        for track in out.tracks:
            frozen = [w for t, w in zip(track.times, track.ux_vals) if t > out.t_switch]
            if track.seed == 0.0:
                # the front: its own slope sets its steps, down to m_stop
                assert len(frozen) > 100 and frozen[-1] <= cfg.m_stop < frozen[-2]
                assert track.stopped_at == track.times[-1] <= out.t_final
            else:
                assert max(map(abs, frozen)) <= 1.0
                assert 1 <= len(frozen) <= 8
                assert track.stopped_at is None
                assert track.times[-1] == pytest.approx(out.t_final, rel=1e-14)

    def test_a_slope_past_m_stop_ends_the_track(self):
        # zero fields and no damping: w' = -w^2/2 from w = -3 blows up at t = 2/3
        grid = Grid(30.0, 256)
        zero = Field(grid, np.zeros(256))
        cfg = RunConfig(grid=grid, datum=SMOOTH_DATUM, profile=DissipationProfile.constant(0.0),
                        t_end=1.0)
        track = _one_sample_track(-3.0)
        solver._march_frozen(track, 0.0, 1.0, zero, zero, cfg)
        assert track.ux_vals[-1] <= cfg.m_stop < track.ux_vals[-2]
        assert track.stopped_at == track.times[-1] < 1.0
        # within RK4's error of the exact crossing 2/3 - 2e-6
        assert track.stopped_at == pytest.approx(2.0 / 3.0, abs=1e-5)
        # every step is c_m / max(1, |w|) of the track's own last slope
        assert track.times[1:] == [t + cfg.c_m / max(1.0, abs(w))
                                   for t, w in zip(track.times, track.ux_vals[:-1])]

    def test_a_non_finite_slope_ends_the_track(self):
        grid = Grid(30.0, 256)
        cfg = RunConfig(grid=grid, datum=SMOOTH_DATUM, profile=DissipationProfile.constant(0.0),
                        t_end=1.0)
        track = _one_sample_track(-3.0)
        nan_forcing = Field(grid, np.full(256, math.nan))
        solver._march_frozen(track, 0.0, 1.0, Field(grid, np.zeros(256)), nan_forcing, cfg)
        assert track.n_samples == 2 and math.isnan(track.ux_vals[-1])
        assert track.stopped_at == track.times[-1] == cfg.c_m / 3.0


def _three_point_derivative(ts, ys, i):
    t0, t1, t2 = ts[i - 1], ts[i], ts[i + 1]
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    d0 = (t1 - t2) / ((t0 - t1) * (t0 - t2))
    d1 = 1.0 / (t1 - t0) + 1.0 / (t1 - t2)
    d2 = (t1 - t0) / ((t2 - t0) * (t2 - t1))
    return y0 * d0 + y1 * d1 + y2 * d2


def _lemma_residual_loop(track):
    """The per-sample lemma_residual made before it took whole arrays,
    kept as the reference."""
    ts = np.asarray(track.times)
    us = np.asarray(track.u_vals)
    ws = np.asarray(track.ux_vals)
    ru = np.asarray(track.rhs_u)
    rw = np.asarray(track.rhs_ux)
    rua = np.asarray(track.rhs_u_alt)
    rwa = np.asarray(track.rhs_ux_alt)
    ok = np.asarray(track.reliable, dtype=bool)
    worst_u = worst_w = gap_u = gap_w = 0.0
    n = 0
    for i in range(1, ts.size - 1):
        if not (ok[i - 1] and ok[i] and ok[i + 1]):
            continue
        worst_u = max(worst_u, abs(_three_point_derivative(ts, us, i) - ru[i])
                      / max(1.0, abs(ru[i])))
        worst_w = max(worst_w, abs(_three_point_derivative(ts, ws, i) - rw[i])
                      / max(1.0, abs(rw[i])))
        n += 1
    for i in range(ts.size):
        if ok[i] and math.isfinite(rua[i]):
            gap_u = max(gap_u, abs(ru[i] - rua[i]) / max(1.0, abs(ru[i])))
            gap_w = max(gap_w, abs(rw[i] - rwa[i]) / max(1.0, abs(rw[i])))
    return LemmaResidual(worst_u, worst_w, gap_u, gap_w, n)


def _assert_same_bits(got, want):
    assert np.array(astuple(got)[:4]).tobytes() == np.array(astuple(want)[:4]).tobytes()
    assert got.n_checked == want.n_checked


def _first_samples(track, n):
    """A copy of the track cut to its first n samples."""
    return replace(track, **{name: list(getattr(track, name)[:n]) for name in (
        "times", *characteristics._CHANNELS, "reliable")})


def _live_aux_pair():
    u = make_datum(SMOOTH_DATUM, Grid(30.0, 1024))
    return build_aux(u, 0.0, SMOOTH_PROFILE), build_aux(u, 0.01, SMOOTH_PROFILE)


def _advance_alone(track, aux_before, aux_after):
    """The per-track Heun step and sample advance made before it took a
    batch, with scalar interp calls, kept as the reference."""
    interp = characteristics.interp
    dt = aux_after.t - aux_before.t
    q = track.positions[-1]
    v0 = interp(aux_before.u, q)
    v1 = interp(aux_after.u, q + dt * v0)
    q = q + 0.5 * dt * (v0 + v1)
    aux = aux_after
    uq, wq, lam = interp(aux.u, q), interp(aux.ux, q), aux.lam
    local = uq * uq + (uq ** 3 - 1.5 * uq * uq)
    characteristics._append_samples(
        [track], aux.u.grid, aux.t, [q], [uq], [wq],
        [interp(aux.conv_diff, q) - lam * uq],
        [-0.5 * wq * wq + local - interp(aux.conv_sum, q) - lam * wq],
        [interp(aux.rhs_field, q) + uq * wq],
        [interp(aux.slope_field, q) + uq * interp(aux.uxx, q)])


def _frozen_tracks():
    grid = Grid(30.0, 1024)
    aux = build_aux(make_datum(SMOOTH_DATUM, grid), 0.0, SMOOTH_PROFILE)
    return [start_track(s, aux) for s in (0.3, -1.2, 2.5)]


def _frozen_fields():
    grid = Grid(30.0, 1024)
    return Field(grid, np.exp(-grid.x ** 2)), Field(grid, -np.exp(-(grid.x - 0.5) ** 2))


def _advance_frozen_alone(track, t_start, dt, drift, forcing, profile):
    """The frozen step with a plain interp call per field and per stage and
    the laws written out again for the new sample, kept as the reference."""
    def f(t, state):
        q, v, w = state
        lam = profile.rate(t)
        return np.array([
            v,
            characteristics.interp(drift, q) - lam * v,
            -0.5 * w * w + characteristics.interp(forcing, q) - lam * w,
        ])

    y = np.array([track.positions[-1], track.u_vals[-1], track.ux_vals[-1]])
    q, v, w = characteristics.rk4(f, t_start, y, dt)
    t_new = t_start + dt
    lam = profile.rate(t_new)
    characteristics._append_samples(
        [track], drift.grid, t_new, [q], [v], [w],
        [characteristics.interp(drift, float(q)) - lam * v],
        [-0.5 * w * w + characteristics.interp(forcing, float(q)) - lam * w],
        [math.nan], [math.nan])
