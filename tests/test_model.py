"""Dissipation profiles, initial data, evolution operators, datum search."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chbreak import (
    ConfigError,
    CriterionReport,
    DissipationProfile,
    EdgeDecayError,
    Field,
    Grid,
    InitialDatum,
    SearchError,
    band_limit,
    conv_P_minus,
    conv_P_plus,
    deriv,
    find_breaking_datum,
    forcing_constant,
    h1_norm_sq,
    make_datum,
    rhs,
    slope_threshold,
)
from chbreak.criteria import _assess
from chbreak import model
from chbreak.model import _nonlinear_spectra
from reference import (NATIVE_GRID_TOL, bounded_forcing, padded_reference, rel_gap,
                       slope_rhs)

GRID = Grid(30.0, 1024)


def _smooth_bump(grid=GRID, amp=0.8, width=1.3, center=0.7):
    return make_datum(
        InitialDatum("gaussian_derivative", amplitude=amp, width=width, center=center),
        grid)


class TestDissipationProfile:
    def test_constant(self):
        p = DissipationProfile.constant(0.3)
        assert p.rate(0.0) == 0.3
        assert p.rate(17.2) == 0.3
        assert p.integral(4.0) == pytest.approx(1.2)
        assert p.delta_sup == 0.3

    def test_linear_ramp(self):
        p = DissipationProfile.linear_ramp(0.1, 0.25, delta_sup=0.6)
        assert p.rate(2.0) == pytest.approx(0.6)
        assert p.integral(2.0) == pytest.approx(0.1 * 2.0 + 0.5 * 0.25 * 4.0)

    def test_sinusoidal_against_quadrature(self):
        p = DissipationProfile.sinusoidal(0.2, 0.3, 2.0)
        assert p.delta_sup == pytest.approx(0.5)
        for t in (0.4, 1.3, 6.0):
            ref, _ = quad(p.rate, 0.0, t, epsabs=1e-13)
            assert p.integral(t) == pytest.approx(ref, abs=1e-11)

    def test_piecewise_values_and_integral(self):
        p = DissipationProfile.piecewise((0.0, 0.5, 2.0), (0.1, 0.4, 0.2))
        assert p.delta_sup == 0.4
        assert p.rate(0.25) == pytest.approx(0.25)
        assert p.rate(-1.0) == 0.1       # held constant outside the table
        assert p.rate(5.0) == 0.2
        assert p.integral(0.25) == pytest.approx(0.04375)
        assert p.integral(3.0) == pytest.approx(0.775)
        ref, _ = quad(p.rate, 0.0, 1.7, points=[0.5], epsabs=1e-13)
        assert p.integral(1.7) == pytest.approx(ref, abs=1e-11)

    def test_piecewise_integral_with_knots_before_zero(self):
        # lambda = 1 + t on [-1, 1]; the integral starts at t = 0, not at the first knot
        p = DissipationProfile.piecewise((-1.0, 1.0), (0.0, 2.0))
        assert p.integral(0.0) == 0.0
        assert p.integral(0.5) == 0.625
        assert p.integral(2.0) == 3.5

    @pytest.mark.parametrize("knots", [
        ((-2.0, -0.5, 0.7, 1.5), (0.3, -0.2, 0.9, 0.4)),   # two knots before 0
        ((0.3, 0.8, 1.1), (0.5, 1.7, 0.2)),                # held before the first knot
        ((-1.0, 1.0), (0.0, 2.0)),
    ])
    @pytest.mark.parametrize("t", [0.25, 0.7, 0.8, 1.0, 1.5, 4.0])
    def test_piecewise_integral_against_quadrature(self, knots, t):
        # t runs from inside the table, onto and around knots, to past the last knot
        p = DissipationProfile.piecewise(*knots)
        inner = [k for k in knots[0] if 0.0 < k < t]
        ref, _ = quad(p.rate, 0.0, t, points=inner or None)   # exact on each linear piece
        assert p.integral(t) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("profile", [
        DissipationProfile.constant(0.3),
        DissipationProfile.linear_ramp(0.1, 0.25, delta_sup=2.0),
        DissipationProfile.sinusoidal(0.2, 0.3, 2.0),
        DissipationProfile.piecewise((0.0, 0.5, 2.0), (0.1, 0.4, 0.2)),
    ], ids=lambda p: p.kind)
    def test_rate_and_integral_are_python_floats(self, profile):
        # records.csv writes it with repr: a numpy scalar would print as np.float64(...)
        assert type(profile.integral(0.7)) is float
        assert type(profile.rate(0.7)) is float

    def test_piecewise_validation(self):
        with pytest.raises(ConfigError):
            DissipationProfile.piecewise((0.0, 1.0), (0.1,))
        with pytest.raises(ConfigError):
            DissipationProfile.piecewise((0.0, 0.0), (0.1, 0.2))
        with pytest.raises(ConfigError):
            DissipationProfile.piecewise((1.0,), (0.1,))

    def test_unknown_kind_is_rejected_on_construction(self):
        with pytest.raises(ConfigError, match=r"kind must be one of \('constant', "):
            DissipationProfile("bogus", (1.0,), 1.0)

    @pytest.mark.parametrize("kind,params,knots,message", [
        ("constant", (), (), r"constant profile takes params \('value',\), got \(\)"),
        ("sinusoidal", (0.1,), (), "sinusoidal profile takes params"),
        ("linear_ramp", (0.0, 1.0, 2.0), (), "linear_ramp profile takes params"),
        ("piecewise", (0.1,), ((0.0, 1.0), (0.1, 0.2)), r"piecewise profile takes params \(\)"),
        ("constant", (0.1,), ((0.0, 1.0), (0.1, 0.2)), "constant profile takes no knots"),
    ], ids=["constant_without_value", "sinusoidal_short", "linear_ramp_long",
            "piecewise_with_params", "constant_with_knots"])
    def test_params_and_knots_must_fit_the_kind(self, kind, params, knots, message):
        # a profile rate() cannot evaluate, or one whose values emit_config would drop
        with pytest.raises(ConfigError, match=message):
            DissipationProfile(kind, params, 1.0, *knots)

    def test_sinusoidal_needs_frequency(self):
        with pytest.raises(ConfigError):
            DissipationProfile.sinusoidal(0.2, 0.3, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected_on_construction(self, bad):
        makers = [
            lambda: DissipationProfile.constant(bad),
            lambda: DissipationProfile.constant(0.1, delta_sup=bad),
            lambda: DissipationProfile.linear_ramp(0.0, bad, 1.0),
            lambda: DissipationProfile.sinusoidal(0.2, 0.1, bad),
            lambda: DissipationProfile.piecewise((0.0, bad), (0.1, 0.2)),
            lambda: DissipationProfile.piecewise((0.0, 1.0), (0.1, bad), delta_sup=0.5),
            lambda: DissipationProfile("constant", (0.1,), bad),
        ]
        for make in makers:
            with pytest.raises(ConfigError, match="finite"):
                make()

    def test_validate_horizon(self):
        p = DissipationProfile.linear_ramp(0.0, 1.0, delta_sup=0.5)
        p.validate_horizon(0.5)
        with pytest.raises(ConfigError):
            p.validate_horizon(1.0)

    def test_is_dissipative(self):
        assert DissipationProfile.constant(0.0).is_dissipative(10.0)
        assert DissipationProfile.sinusoidal(0.5, 0.4, 3.0).is_dissipative(10.0)
        assert not DissipationProfile.sinusoidal(0.0, 1.0, 3.0).is_dissipative(10.0)

    def test_fast_sinusoid_crest_between_samples_is_caught(self):
        # sup lambda = 1 on [0, 4], but no crest lies near a uniform sample
        p = DissipationProfile.sinusoidal(0.0, 1.0, 1607.7, delta_sup=0.5)
        with pytest.raises(ConfigError):
            p.validate_horizon(4.0)

    def test_fast_sinusoid_trough_between_samples_is_caught(self):
        # inf lambda = -0.5 on [0, 4]
        assert not DissipationProfile.sinusoidal(0.5, 1.0, 1607.7).is_dissipative(4.0)

    def test_extremes_without_a_crest_are_the_endpoints(self):
        # sin rises monotonically on [0, 1]: sup is lambda(1), inf is lambda(0)
        p = DissipationProfile.sinusoidal(0.0, 1.0, 1.0, delta_sup=math.sin(1.0))
        p.validate_horizon(1.0)
        assert p.is_dissipative(1.0)
        with pytest.raises(ConfigError):
            DissipationProfile.sinusoidal(0.0, 1.0, 1.0, delta_sup=0.8).validate_horizon(1.0)

    def test_piecewise_extremes_at_interior_knots(self):
        p = DissipationProfile.piecewise((0.0, 1.0, 3.0), (0.2, 0.9, -0.1), delta_sup=0.9)
        p.validate_horizon(3.0)
        assert not p.is_dissipative(3.0)
        assert p.is_dissipative(2.0)
        with pytest.raises(ConfigError):
            DissipationProfile.piecewise((0.0, 1.0, 3.0), (0.2, 0.9, -0.1),
                                         delta_sup=0.89).validate_horizon(3.0)


# closed-form H^1 energies of the analytic families
def _gaussian_energy(a, w):
    return a * a * math.sqrt(math.pi) * (0.5 * w ** 3 + 0.75 * w)


def _sech_energy(a, w):
    return (4.0 / 3.0) * a * a * w + 16.0 * a * a / (15.0 * w)


class TestInitialDatum:
    @pytest.mark.parametrize("field", ["amplitude", "width", "center"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, field, bad):
        with pytest.raises(ConfigError, match="finite"):
            InitialDatum("sech_squared", **{"amplitude": 1.0, "width": 1.0, field: bad})

    def test_non_finite_sample_is_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            InitialDatum("samples", values=(0.0, math.nan, 0.0))

    def test_validation(self):
        with pytest.raises(ConfigError):
            InitialDatum("square_well", amplitude=1.0)
        with pytest.raises(ConfigError):
            InitialDatum("sech_squared", amplitude=1.0, width=0.0)

    @pytest.mark.parametrize("family", ["gaussian_derivative", "sech_squared",
                                        "antisym_peak"])
    def test_derivative_matches_finite_difference(self, family):
        d = InitialDatum(family, amplitude=1.7, width=0.8, center=0.3)
        xs = np.linspace(-2.5, 3.0, 23)
        h = 1e-6
        fd = (d.evaluate(xs + h) - d.evaluate(xs - h)) / (2.0 * h)
        assert np.max(np.abs(d.derivative(xs) - fd)) < 1e-7

    @pytest.mark.parametrize("family", ["gaussian_derivative", "sech_squared",
                                        "antisym_peak"])
    def test_min_slope_matches_dense_scan(self, family):
        d = InitialDatum(family, amplitude=2.1, width=0.6, center=-0.4)
        x_star, m_star = d.analytic_min_slope()
        xs = np.linspace(-6.0, 6.0, 200001)
        du = d.derivative(xs)
        j = int(np.argmin(du))
        assert x_star == pytest.approx(xs[j], abs=1e-4)
        assert m_star == pytest.approx(du[j], rel=1e-7)
        assert m_star <= np.min(du) + 1e-12

    def test_min_slope_none_for_flipped_sign(self):
        assert InitialDatum("sech_squared", amplitude=-1.0).analytic_min_slope() is None

    @pytest.mark.parametrize("family,closed", [
        ("gaussian_derivative", _gaussian_energy),
        ("sech_squared", _sech_energy),
    ])
    def test_energy_closed_form(self, family, closed):
        d = InitialDatum(family, amplitude=1.3, width=0.7)
        assert d.energy() == pytest.approx(closed(1.3, 0.7), rel=1e-9)

    @pytest.mark.parametrize("family", ["gaussian_derivative", "sech_squared",
                                        "antisym_peak"])
    def test_energy_matches_the_dense_trapezoid(self, family):
        # the 32,768-interval trapezoid over the datum's reach that energy()
        # used before its closed forms, kept as the reference
        for width in np.geomspace(1.0, 0.04, 12):
            d = InitialDatum(family, amplitude=1.7, width=float(width), center=0.3)
            r = d.reach()
            xs = np.linspace(d.center - r, d.center + r, (1 << 15) + 1)
            u, du = d.evaluate(xs), d.derivative(xs)
            ref = float(np.trapezoid(u * u + du * du, xs))
            assert d.energy() == pytest.approx(ref, rel=1e-13)

    def test_energy_antisym_against_quadrature(self):
        d = InitialDatum("antisym_peak", amplitude=0.9, width=1.2, center=0.5)
        ref, _ = quad(lambda x: d.evaluate(np.array([x]))[0] ** 2
                      + d.derivative(np.array([x]))[0] ** 2,
                      -40.0, 40.0, epsabs=1e-12, limit=400)
        assert d.energy() == pytest.approx(ref, rel=1e-8)

    def test_samples_energy_needs_grid(self):
        with pytest.raises(ConfigError):
            InitialDatum("samples", values=(0.0,) * 16).energy()


@settings(max_examples=30, deadline=None)
@given(amp=st.floats(min_value=0.05, max_value=5.0),
       width=st.floats(min_value=0.1, max_value=2.0))
def test_energy_scales_quadratically(amp, width):
    base = InitialDatum("antisym_peak", amplitude=1.0, width=width).energy()
    scaled = InitialDatum("antisym_peak", amplitude=amp, width=width).energy()
    assert scaled == pytest.approx(amp * amp * base, rel=1e-9)


class TestMakeDatum:
    def test_well_resolved_roundtrip(self):
        d = InitialDatum("gaussian_derivative", amplitude=1.0, width=1.0)
        u = make_datum(d, GRID)
        assert np.max(np.abs(u.values - d.evaluate(GRID.x))) < 1e-12
        assert h1_norm_sq(u) == pytest.approx(d.energy(), rel=1e-8)

    def test_rejects_oversized_support(self):
        with pytest.raises(EdgeDecayError):
            make_datum(InitialDatum("gaussian_derivative", amplitude=1.0, width=3.0),
                       GRID)
        with pytest.raises(EdgeDecayError):
            make_datum(InitialDatum("sech_squared", amplitude=1.0, width=1.5), GRID)

    def test_rejects_unresolvable_width(self):
        # the band cut leaves visible ringing at this resolution; doubling
        # the grid resolves it
        d = InitialDatum("gaussian_derivative", amplitude=2.0, width=0.1)
        with pytest.raises(EdgeDecayError):
            make_datum(d, Grid(30.0, 1024))
        make_datum(d, Grid(30.0, 4096))

    def test_samples_family(self):
        vals = np.exp(-0.5 * GRID.x ** 2)
        u = make_datum(InitialDatum("samples", values=tuple(vals)), GRID)
        assert np.max(np.abs(u.values - vals)) < 1e-12
        with pytest.raises(ConfigError):
            make_datum(InitialDatum("samples", values=(1.0, 2.0)), GRID)


def _h_values(u):
    """h(u) = u^3 - (3/2) u^2 as the kernel forms it: local - sq."""
    s = _nonlinear_spectra(u.grid, u.values)
    return np.fft.irfft(s.local - s.sq, u.grid.n_points)


class TestHEval:
    @pytest.mark.parametrize("c,expect", [(0.0, 0.0), (1.0, -0.5),
                                          (1.5, 0.0), (2.0, 2.0)])
    def test_constants(self, c, expect):
        g = Grid(30.0, 256)
        out = _h_values(Field(g, np.full(256, c)))
        assert np.allclose(out, expect, atol=1e-12)

    def test_matches_pointwise_on_resolved_field(self):
        u = _smooth_bump()
        v = u.values
        assert np.max(np.abs(_h_values(u) - (v ** 3 - 1.5 * v ** 2))) < 1e-10


class TestRhs:
    def test_zero_state_is_stationary(self):
        g = Grid(30.0, 256)
        z = Field(g, np.zeros(256))
        p = DissipationProfile.constant(0.7)
        assert np.all(rhs(z, 0.0, p).values == 0.0)
        assert np.all(slope_rhs(z, 0.0, p).values == 0.0)
        assert np.all(bounded_forcing(z).values == 0.0)

    @pytest.mark.parametrize("profile,t", [
        (DissipationProfile.constant(0.0), 0.0),
        (DissipationProfile.constant(0.3), 0.0),
        (DissipationProfile.sinusoidal(0.2, 0.2, 1.5), 0.7),
    ])
    def test_energy_identity(self, profile, t):
        # d/dt of the H^1 energy must equal -2 lambda E exactly: the
        # advective and nonlocal terms cancel in the energy inner product
        u = _smooth_bump()
        f = rhs(u, t, profile)
        dx = u.grid.dx
        de = 2.0 * float(np.sum(u.values * f.values
                                + deriv(u).values * deriv(f).values)) * dx
        energy = h1_norm_sq(u)
        assert de == pytest.approx(-2.0 * profile.rate(t) * energy,
                                   abs=1e-10 * energy)

    def test_even_datum_gives_odd_tendency(self):
        u = make_datum(InitialDatum("sech_squared", amplitude=0.6, width=1.0), GRID)
        f = rhs(u, 0.0, DissipationProfile.constant(0.0)).values
        assert abs(f[0]) < 1e-13
        assert np.max(np.abs(f[1:] + f[:0:-1])) < 1e-12

    def test_slope_rhs_is_derivative_of_rhs(self):
        u = _smooth_bump()
        p = DissipationProfile.constant(0.25)
        direct = slope_rhs(u, 0.0, p)
        chained = deriv(rhs(u, 0.0, p))
        assert np.max(np.abs(direct.values - chained.values)) < 1e-11


class TestNativeGridProducts:
    """The N-grid products equal the 3N/2-padded Galerkin products."""

    @pytest.mark.parametrize("state", ["noise", "bump"])
    def test_kernel_rhs_and_slope_rhs_match_padded_reference(self, state):
        if state == "noise":
            rng = np.random.default_rng(11)
            u = band_limit(Field(GRID, rng.standard_normal(GRID.n_points)))
        else:
            u = band_limit(Field(GRID, np.exp(-0.5 * ((GRID.x - 0.7) / 0.9) ** 2)))
        p = DissipationProfile.constant(0.3)
        spectra, rhs_ref, slope_ref = padded_reference(u, 0.3)
        got = _nonlinear_spectra(GRID, u.values)
        for name, ref in spectra.items():
            assert rel_gap(np.fft.irfft(getattr(got, name), GRID.n_points),
                           np.fft.irfft(ref, GRID.n_points)) < NATIVE_GRID_TOL, name
        assert rel_gap(rhs(u, 0.0, p).values, rhs_ref) < NATIVE_GRID_TOL
        assert rel_gap(slope_rhs(u, 0.0, p).values, slope_ref) < NATIVE_GRID_TOL

    def test_rhs_makes_nine_transforms_all_of_length_n(self, fft_lengths):
        u = _smooth_bump()
        fft_lengths.clear()
        rhs(u, 0.0, DissipationProfile.constant(0.1))
        assert fft_lengths == [GRID.n_points] * 9

    def test_rhs_matches_the_inline_symbol_product_bit_for_bit(self):
        u = _smooth_bump()
        s = _nonlinear_spectra(GRID, u.values)
        grad_conv = s.flux * GRID.helmholtz_multiplier * (1j * GRID.wavenumbers)
        grad_conv[-1] = 0.0
        ref = np.fft.irfft(-s.advect - grad_conv, GRID.n_points) - 0.3 * u.values
        got = rhs(u, 0.0, DissipationProfile.constant(0.3))
        assert got.values.tobytes() == ref.tobytes()


class TestBoundedForcing:
    def test_stays_below_energy_ceiling(self):
        u = _smooth_bump(amp=1.1)
        assert bounded_forcing(u).max_abs <= forcing_constant(h1_norm_sq(u))

    def test_dual_route_agreement(self, monkeypatch):
        # spectral multiplier route vs one-sided marching kernels
        monkeypatch.setattr("chbreak.grid.EDGE_TOL", 1e-5)
        u = _smooth_bump()
        s = _nonlinear_spectra(u.grid, u.values)
        local, flux = (Field(u.grid, np.fft.irfft(c, u.grid.n_points))
                       for c in (s.local, s.flux))
        alt = local - (conv_P_plus(flux) + conv_P_minus(flux))
        assert np.max(np.abs(bounded_forcing(u).values - alt.values)) < 1e-6


class TestFindBreakingDatum:
    def test_slope_only_postconditions(self):
        res = find_breaking_datum("gaussian_derivative", delta=0.1,
                                  criterion="slope_only", amplitude=2.0)
        assert res.kind == "slope_only"
        assert res.margin >= 0.10
        d = res.datum
        assert d.family == "gaussian_derivative"
        assert res.energy == pytest.approx(d.energy(), rel=1e-12)
        k = forcing_constant(res.energy)
        assert res.forcing_bound == pytest.approx(k, rel=1e-12)
        assert res.threshold == pytest.approx(slope_threshold(0.1, k), rel=1e-12)
        x_star, m_star = d.analytic_min_slope()
        assert res.point == x_star
        assert res.extreme == m_star
        assert res.t_bound is not None and 0.0 < res.t_bound < math.inf
        assert res.g0 is None and res.location is None

    @pytest.mark.parametrize("criterion", ["slope_only", "mixed"])
    @pytest.mark.parametrize("family,delta,amplitude", [
        ("gaussian_derivative", 0.1, 2.0), ("antisym_peak", 0.0, 1.0)])
    def test_result_is_the_report_on_the_line_datum(self, family, delta, amplitude,
                                                      criterion):
        # the search and the grid checks share one verdict: the result is
        # _assess on the chosen line profile, field for field and bit for bit
        res = find_breaking_datum(family, delta, criterion, amplitude=amplitude)
        assert isinstance(res, CriterionReport)
        names = [f.name for f in dataclasses.fields(res)]
        assert names == [f.name for f in dataclasses.fields(CriterionReport)] + ["datum"]
        d = res.datum
        at = np.array([res.point])
        want = _assess(criterion, delta, d.energy(), res.point,
                       float(d.derivative(at)[0]), float(d.evaluate(at)[0]))
        got = {name: getattr(res, name) for name in names if name != "datum"}
        assert got == dataclasses.asdict(want)
        assert res.satisfied and res.t_bound is not None

    def test_widest_qualifying_width(self):
        # the scan runs wide to narrow, so any wider member of the family
        # must miss the margin the result achieved
        res = find_breaking_datum("antisym_peak", delta=0.0, amplitude=2.0)
        wider = InitialDatum("antisym_peak", amplitude=2.0,
                             width=res.datum.width * 1.15)
        thr = slope_threshold(0.0, forcing_constant(wider.energy()))
        _, m0 = wider.analytic_min_slope()
        assert (thr - m0) / abs(thr) < 0.10

    def test_mixed_postconditions(self):
        res = find_breaking_datum("gaussian_derivative", delta=0.1,
                                  criterion="mixed", amplitude=2.0)
        assert res.kind == "mixed"
        assert res.margin >= 0.10
        assert res.g0 is not None and res.g0 > 0.0
        assert res.t_bound is not None and res.t_bound > 0.0
        lo, hi = res.location
        assert lo < res.point < hi
        speed = math.sqrt(res.energy / 2.0)
        assert hi - lo == pytest.approx(2.0 * speed * res.t_bound, rel=1e-12)

    def test_infeasible_window(self, monkeypatch):
        # wide data at small amplitude carry too much energy per unit of
        # slope; with the narrow escape hatch closed the scan must fail
        monkeypatch.setattr(model, "WIDTH_RANGE", (0.5, 1.0))
        with pytest.raises(SearchError, match=r"width in \[0\.5, 1\]"):
            find_breaking_datum("gaussian_derivative", delta=0.0, amplitude=0.05)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            find_breaking_datum(criterion="both")
        with pytest.raises(ConfigError):
            find_breaking_datum(family="samples")

    @pytest.mark.parametrize("amplitude", [-1.0, 0.0])
    def test_slope_only_needs_a_positive_amplitude(self, amplitude):
        # the closed-form slope minimum exists only for amplitude > 0
        with pytest.raises(ConfigError, match="amplitude > 0"):
            find_breaking_datum(criterion="slope_only", amplitude=amplitude)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_delta_must_be_finite(self, delta):
        with pytest.raises(ConfigError, match="delta"):
            find_breaking_datum(delta=delta)
