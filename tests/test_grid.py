"""Grid, spectral operators, and the one-sided exponential kernels.

The expensive checks compare against adaptive quadrature of the continuum
kernels; the cheap ones are closed forms. Tolerances for the marching
convolution follow its measured fourth-order convergence.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import chbreak
from chbreak import (
    DissipationProfile,
    EdgeDecayError,
    Field,
    Grid,
    InitialDatum,
    NumericsError,
    RunConfig,
    band_limit,
    check_edge_decay,
    conv_P_minus,
    conv_P_plus,
    deriv,
    h1_norm_sq,
    interp,
    run,
    smoothed_edge_decay,
    tail_fraction,
)
from chbreak.grid import _exp_march, _exp_moments, _point_phases, from_spectrum
from chbreak.model import _nonlinear_spectra
from reference import helmholtz_inverse, second_deriv

L = 30.0

# decaying, asymmetric, infinitely smooth; used wherever the continuum
# kernel integrals are the reference
def _bump(y):
    return np.exp(-0.5 * y * y) * (1.0 + 0.3 * np.sin(2.0 * y))


def _plus_oracle(x0):
    val, _ = quad(lambda y: 0.5 * math.exp(y - x0) * _bump(y), -np.inf, x0,
                  epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def _minus_oracle(x0):
    val, _ = quad(lambda y: 0.5 * math.exp(x0 - y) * _bump(y), x0, np.inf,
                  epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def _band_noise(grid, seed=7, amplitude=1.0):
    rng = np.random.default_rng(seed)
    coef = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    coef[1:grid.kc + 1] = rng.standard_normal(grid.kc) + 1j * rng.standard_normal(grid.kc)
    u = from_spectrum(grid, coef)
    return Field(grid, amplitude * u.values / u.max_abs)


def _resample(f, n_new):
    # exact trigonometric resampling onto a finer grid: the interp reference
    coeffs = np.fft.rfft(f.values)
    out = np.zeros(n_new // 2 + 1, dtype=complex)
    out[: coeffs.size] = coeffs
    n_old = f.grid.n_points
    return Field(Grid(f.grid.half_length, n_new), np.fft.irfft(out, n_new) * (n_new / n_old))


class TestGridBasics:
    def test_geometry(self):
        g = Grid(L, 1024)
        assert g.dx * g.n_points == pytest.approx(2.0 * L)
        assert g.x[0] == -L
        assert g.x[-1] == pytest.approx(L - g.dx)
        assert np.allclose(np.diff(g.wavenumbers), np.pi / L)
        assert g.kc == 341

    @pytest.mark.parametrize("n_bad", [0, 8, 12, 24, 100, 1000, -256])
    def test_rejects_bad_sizes(self, n_bad):
        with pytest.raises(ValueError):
            Grid(L, n_bad)

    @pytest.mark.parametrize("n_ok", [16, 32, 256, 4096])
    def test_accepts_powers_of_two(self, n_ok):
        Grid(L, n_ok)

    @pytest.mark.parametrize("half_length", [0.0, -3.0, math.inf, math.nan])
    def test_rejects_bad_lengths(self, half_length):
        with pytest.raises(ValueError):
            Grid(half_length, 256)

    @pytest.mark.parametrize("name", ["x", "wavenumbers", "helmholtz_multiplier",
                                      "_conv_weights", "_march_tables"])
    def test_cached_arrays_are_read_only(self, name):
        # every field on a Grid reads the same caches, so one write through
        # them would shift every later datum and kernel on that instance
        g = Grid(30.0, 64)
        cache = getattr(g, name)
        assert getattr(g, name) is cache
        for array in cache if isinstance(cache, tuple) else (cache,):
            with pytest.raises(ValueError):
                array[0] = 5.0


class TestDerivatives:
    @pytest.mark.parametrize("j", [1, 5, 113])
    def test_single_mode_exact(self, j):
        g = Grid(L, 512)
        k = np.pi * j / L
        s = Field(g, np.sin(k * g.x))
        c = Field(g, np.cos(k * g.x))
        assert np.allclose(deriv(s).values, k * c.values, atol=1e-11)
        assert np.allclose(deriv(c).values, -k * s.values, atol=1e-11)
        assert np.allclose(second_deriv(s).values, -k * k * s.values, atol=1e-9)

    def test_helmholtz_inverse_single_mode(self):
        g = Grid(L, 512)
        j = 9
        k = np.pi * j / L
        s = Field(g, np.sin(k * g.x))
        assert np.allclose(helmholtz_inverse(s).values, s.values / (1.0 + k * k),
                           atol=1e-14)

    def test_identity_on_band_limited_noise(self):
        # (1 - d_xx) o helmholtz_inverse must be the identity on the band
        g = Grid(L, 1024)
        u = _band_noise(g)
        inv = helmholtz_inverse(u)
        back = inv + (-1.0) * second_deriv(inv)
        rel = np.max(np.abs(back.values - u.values)) / u.max_abs
        assert rel < 1e-10

    def test_h1_norm_closed_form(self):
        g = Grid(L, 512)
        j = 11
        s = Field(g, np.sin(np.pi * j * g.x / L))
        exact = L * (1.0 + (np.pi * j / L) ** 2)
        assert h1_norm_sq(s) == pytest.approx(exact, rel=1e-12)

    def test_h1_norm_zero(self):
        g = Grid(L, 256)
        assert h1_norm_sq(Field(g, np.zeros(256))) == 0.0


def _raw_noise(grid):
    # not band-limited, so the Nyquist mode is far from zero
    return Field(grid, np.random.default_rng(3).standard_normal(grid.n_points))


class TestCachedSymbols:
    """deriv and build_aux's uxx read Grid.ik and Grid.minus_k2; each gives
    what the symbol built inline gives, bit for bit."""

    @pytest.mark.parametrize("make", [_band_noise, _raw_noise])
    def test_deriv_matches_the_inline_symbol(self, make):
        u = make(Grid(L, 1024))
        coeffs = np.fft.rfft(u.values)
        coeffs *= 1j * u.grid.wavenumbers
        coeffs[-1] = 0.0
        assert deriv(u).values.tobytes() == np.fft.irfft(coeffs, 1024).tobytes()

    @pytest.mark.parametrize("make", [_band_noise, _raw_noise])
    def test_second_deriv_matches_the_inline_symbol(self, make):
        u = make(Grid(L, 1024))
        got = from_spectrum(u.grid, np.fft.rfft(u.values) * u.grid.minus_k2)
        assert got.values.tobytes() == second_deriv(u).values.tobytes()

    @pytest.mark.parametrize("name", ["ik", "minus_k2"])
    def test_symbols_are_cached_and_read_only(self, name):
        g = Grid(L, 64)
        symbol = getattr(g, name)
        assert getattr(g, name) is symbol
        with pytest.raises(ValueError):
            symbol[1] = 0.0

    def test_ik_zeroes_the_nyquist_mode(self):
        g = Grid(L, 64)
        assert g.ik[-1] == 0.0
        assert np.array_equal(g.ik[:-1].imag, g.wavenumbers[:-1])

    def test_only_the_grid_module_builds_fourier_symbols(self):
        texts = {path.name: path.read_text(encoding="utf-8")
                 for path in Path(chbreak.__file__).parent.glob("*.py")}
        offenders = sorted(name for name, text in texts.items() if name != "grid.py"
                           and ("wavenumbers" in text or re.search(r"\b1j\b", text)))
        assert offenders == []


# absolute error of the marching kernels against adaptive quadrature of the
# continuum integrals; fourth-order in dx
CONV_TOLERANCES = {128: 1e-3, 256: 8e-5, 512: 5e-6, 1024: 5e-7}


class TestOneSidedKernels:
    # probe points shared by every grid in the table (multiples of 60/128)
    probes = (-1.875, 0.46875, 2.8125)

    @pytest.mark.parametrize("n", sorted(CONV_TOLERANCES))
    def test_against_quadrature(self, n):
        g = Grid(L, n)
        u = Field(g, _bump(g.x))
        p = conv_P_plus(u, 1e-5)
        m = conv_P_minus(u, 1e-5)
        worst = 0.0
        for x0 in self.probes:
            j = int(round((x0 + L) / g.dx))
            assert g.x[j] == pytest.approx(x0, abs=1e-12)
            worst = max(worst,
                        abs(p.values[j] - _plus_oracle(x0)),
                        abs(m.values[j] - _minus_oracle(x0)))
        assert worst < CONV_TOLERANCES[n]

    def test_fourth_order_convergence(self):
        errs = []
        for n in (128, 256, 512):
            g = Grid(L, n)
            u = Field(g, _bump(g.x))
            p = conv_P_plus(u, 1e-5)
            j = int(round((0.46875 + L) / g.dx))
            errs.append(abs(p.values[j] - _plus_oracle(0.46875)))
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0

    def test_sum_matches_helmholtz_inverse(self):
        # two routes to P * f: one-sided marching vs the Fourier multiplier
        g = Grid(L, 1024)
        u = Field(g, _bump(g.x))
        total = conv_P_plus(u, 1e-5) + conv_P_minus(u, 1e-5)
        assert np.max(np.abs(total.values - helmholtz_inverse(u).values)) < 1e-6

    def test_difference_matches_derivative(self):
        g = Grid(L, 1024)
        u = Field(g, _bump(g.x))
        diff = conv_P_minus(u, 1e-5) + (-1.0) * conv_P_plus(u, 1e-5)
        ref = deriv(helmholtz_inverse(u))
        assert np.max(np.abs(diff.values - ref.values)) < 1e-6

    def test_quarter_square_lower_bound(self):
        # P+- * (u^2 + ux^2/2) >= u^2/4 pointwise, the coercivity that makes
        # the one-sided kernels control the local amplitude
        g = Grid(L, 1024)
        u = Field(g, np.exp(-0.5 * (g.x - 1.0) ** 2) * np.cos(1.3 * g.x))
        f2 = Field(g, u.values ** 2 + 0.5 * deriv(u).values ** 2)
        for conv in (conv_P_plus, conv_P_minus):
            slack = conv(f2, 1e-5).values - 0.25 * u.values ** 2
            assert np.min(slack) > -1e-12

    def test_rejects_non_decaying_input(self):
        g = Grid(L, 256)
        with pytest.raises(EdgeDecayError):
            conv_P_plus(Field(g, np.cos(np.pi * g.x / L)), 1e-8)

    @pytest.mark.parametrize("first,second", [(conv_P_plus, conv_P_minus),
                                              (conv_P_minus, conv_P_plus)])
    def test_each_kernel_rejects_non_decaying_input(self, first, second):
        # the smoothed edge values are cached per field; each kernel must
        # still check them, alone or after the other kernel
        g = Grid(L, 256)
        f = Field(g, np.cos(np.pi * g.x / L))
        for conv in (first, second):
            with pytest.raises(EdgeDecayError):
                conv(f, 1e-8)

    def test_exp_moments_match_quadrature(self):
        for z in (0.6, -0.6, 0.0586, -0.0586, 1e-3):
            mom = _exp_moments(z)
            for p in range(4):
                ref, _ = quad(lambda t: t ** p * math.exp(z * t), 0.0, 1.0,
                              epsabs=1e-15)
                assert mom[p] == pytest.approx(ref, abs=1e-14)


class TestExpMarch:
    # the numpy march against scipy's direct-form filter for the same
    # recurrence, relative to the largest reference value
    @pytest.mark.parametrize("half_length,n,chunks", [
        (30.0, 8192, 1), (30.0, 16384, 1),
        (300.0, 4096, 2),              # the one chunk boundary is mid-array
        (400.0, 4096, 3), (400.0, 16384, 3),   # e^(2L) overflows: chunks needed
        (3000.0, 16, 16),              # dx > 300: one node per chunk
    ])
    def test_matches_lfilter(self, half_length, n, chunks):
        from scipy.signal import lfilter

        g = Grid(half_length, n)
        assert -(-n // g._march_tables[0].size) == chunks
        c = np.random.default_rng(5).standard_normal(n)
        ref = lfilter([1.0], [1.0, -math.exp(-g.dx)], c)
        assert np.max(np.abs(_exp_march(g, c) - ref)) <= 1e-13 * np.max(np.abs(ref))


def _kernel_values(u, name):
    """Node values of one of the kernel's Galerkin products of u."""
    return np.fft.irfft(getattr(_nonlinear_spectra(u.grid, u.values), name),
                        u.grid.n_points)


def _kernel_square(u):
    return Field(u.grid, _kernel_values(u, "sq"))


def _two_sines(g, k1, k2):
    return Field(g, np.sin(np.pi * k1 * g.x / L) + np.sin(np.pi * k2 * g.x / L))


def _cos(g, k):
    return np.cos(np.pi * k * g.x / L)


class TestDealiasing:
    """The kernel's products P(u^2) and P(u u_x) on the N grid."""

    def test_product_trig_identity_inside_band(self):
        # u = sin a + sin b: u^2 = 1 - (cos 2a + cos 2b)/2 + cos(b - a) - cos(b + a)
        g = Grid(L, 1024)
        k1, k2 = 50, 120
        expect = (1.0 - 0.5 * (_cos(g, 2 * k1) + _cos(g, 2 * k2))
                  + _cos(g, k2 - k1) - _cos(g, k2 + k1))
        got = _kernel_values(_two_sines(g, k1, k2), "sq")
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_product_drops_out_of_band_sum(self):
        # 2 k2 and k1 + k2 beyond the cutoff: only the in-band modes
        # survive, with no aliased contamination anywhere in the band
        g = Grid(L, 1024)
        k1, k2 = 100, 300
        expect = 1.0 - 0.5 * _cos(g, 2 * k1) + _cos(g, k2 - k1)
        got = _kernel_values(_two_sines(g, k1, k2), "sq")
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_integration_by_parts_cancellation(self):
        # sum of u * (u u_x) dx vanishes exactly for band-limited u; this
        # cancellation is what the conservation of the quadratic energy
        # rests on
        g = Grid(L, 1024)
        u = _band_noise(g)
        adv = _kernel_values(u, "advect")
        assert abs(np.sum(u.values * adv)) * g.dx < 1e-13

    def test_band_limit_is_projection(self):
        g = Grid(L, 512)
        u = Field(g, _bump(g.x))
        once = band_limit(u)
        twice = band_limit(once)
        assert np.allclose(once.values, twice.values, atol=1e-15)
        coef = np.fft.rfft(once.values)
        assert np.max(np.abs(coef[g.kc + 1:])) < 1e-13 * u.max_abs


class TestInterpAndResample:
    def test_nodal_exactness(self):
        g = Grid(L, 512)
        u = _band_noise(g, seed=11)
        for j in (0, 7, 255, 511):
            assert interp(u, g.x[j]) == pytest.approx(u.values[j], abs=1e-12)

    def test_matches_fine_resample_off_grid(self):
        g = Grid(L, 512)
        u = _band_noise(g, seed=11)
        fine = _resample(u, 4096)
        for j in (5, 1003, 4001):
            assert interp(u, fine.grid.x[j]) == pytest.approx(fine.values[j],
                                                              abs=1e-8)

    def test_periodic_wrap(self):
        g = Grid(L, 256)
        u = _band_noise(g, seed=5)
        assert interp(u, -L) == pytest.approx(interp(u, L), abs=1e-10)


def _interp_weights(grid):
    """interp's one-sided weights: interior modes count twice."""
    weights = np.full(grid.n_points // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    return weights


# Float64 bound on the phase error, fixed before measuring: theta*k is at
# most 2 pi * 8192 ~ 5.1e4 at N = 16384, so each rounded argument is off by
# up to half an ulp, 3.6e-12. The phase tables and the direct route each take
# one exponential of such an argument per entry.
PHASE_TOL = 1e-11


def _check_direct_route(u, pts):
    """interp at pts against e^(i theta k) @ weighted rfft, within PHASE_TOL
    of the spectrum's absolute sum."""
    g = u.grid
    coeffs = _interp_weights(g) * np.fft.rfft(u.values)
    theta = (pts[:, None] + L) * (np.pi / L)
    direct = (np.exp(1j * theta * np.arange(coeffs.size)) @ coeffs).real / g.n_points
    bound = PHASE_TOL * np.sum(np.abs(coeffs)) / g.n_points
    assert np.max(np.abs(interp(u, pts) - direct)) < bound


class TestInterpSpectrumCache:
    def test_two_table_phases_match_direct_exponentials(self):
        g = Grid(L, 16384)
        half = g.n_points // 2
        pts = np.random.default_rng(3).uniform(-L, L, 40)
        fine, pairs, nyquist = _point_phases(g.half_length, g.n_points, tuple(pts.tolist()))
        fine, coarse = fine[:, 0, 0, :, 0], pairs[:, 0, 0, :].view(complex)
        assert fine.shape == (pts.size, 64) and 64 * coarse.shape[1] >= half
        theta = np.array([(p + L) * (np.pi / L) for p in pts])[:, None]
        # the coarse table holds e^(-i theta 64 a), conjugated up front
        for table, order in ((fine, np.arange(64)), (coarse, -64.0 * np.arange(coarse.shape[1]))):
            assert np.array_equal(table, np.exp(1j * theta * order))
        assert np.array_equal(nyquist, np.exp(1j * theta * half).real)
        rebuilt = (np.conj(coarse)[:, :, None] * fine[:, None, :]).reshape(pts.size, -1)[:, :half]
        assert np.max(np.abs(rebuilt - np.exp(1j * theta * np.arange(half)))) < PHASE_TOL

    def test_cached_spectrum_is_weighted_rfft_bit_for_bit(self):
        # the tiles hold modes 0..N/2-1 over N; the Nyquist mode comes apart
        for n_points in (1024, 8192):
            g = Grid(L, n_points)
            half = g.n_points // 2
            # white noise, so the Nyquist mode (counted once) is nonzero
            u = Field(g, np.random.default_rng(4).standard_normal(g.n_points))
            expect = _interp_weights(g) * np.fft.rfft(u.values) / g.n_points
            tiles, nyquist = u.spectrum_tiles
            assert tiles.shape[0] == 1 and tiles.shape[2:] == (32, 64)
            assert np.array_equal(tiles.reshape(-1)[:half], expect[:half])
            assert not np.any(tiles.reshape(-1)[half:])   # zero padding
            assert expect[-1].imag == 0.0 and expect[-1].real != 0.0
            assert np.array_equal(nyquist, [expect[-1].real])

    def test_spectrum_transformed_once_per_field(self, monkeypatch):
        g = Grid(L, 512)
        u = _band_noise(g, seed=6)
        calls = []
        real_rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft",
                            lambda *a, **k: calls.append(1) or real_rfft(*a, **k))
        for q in (0.1, -2.0, np.array([0.3, 4.5])):
            interp(u, q)
        assert len(calls) == 1

    def test_matches_direct_exponential_route(self):
        # the route interp used before the phase tables, kept as reference
        g = Grid(L, 16384)
        _check_direct_route(_band_noise(g, seed=9), np.random.default_rng(5).uniform(-L, L, 25))

    @pytest.mark.parametrize("n_points", [16, 32, 64, 4096, 8192, 16384])
    @pytest.mark.parametrize("n_pts", [1, 9])
    def test_tiles_match_direct_exponential_route(self, n_points, n_pts):
        # up to N = 64 the modes fill less than one row of a tile; from
        # N = 4096 on the modes below the Nyquist mode fill whole tiles
        g = Grid(L, n_points)
        pts = np.random.default_rng(n_points + n_pts).uniform(-L, L, n_pts)
        _check_direct_route(_band_noise(g, seed=20), pts)

    def test_scalar_point_matches_the_array_route_bit_for_bit(self):
        g = Grid(L, 2048)
        u, v = _band_noise(g, seed=12), _band_noise(g, seed=13)
        for q in (0.0, -7.25, 3.1e-3, g.x[100], np.float64(12.5)):
            _point_phases.cache_clear()
            fresh = interp(u, q)
            cached_same_field = interp(u, q)
            cached_other_field = interp(v, q)
            assert fresh == cached_same_field == interp(u, np.array([q]))[0]
            assert cached_other_field == interp(v, np.array([q]))[0]
        # a 0-d array takes the array route and keeps its shape
        assert interp(u, np.array(0.5)).shape == (1,)

    def test_scalar_point_is_the_float_of_a_one_point_list(self):
        g = Grid(L, 1024)
        u = _band_noise(g, seed=18)
        for q in (0.0, -7.25, g.x[3], np.float64(12.5), 2):
            got = interp(u, q)
            assert type(got) is float
            assert got == interp(u, [q])[0]

    @pytest.mark.parametrize("other", [Grid(20.0, 1024), Grid(L, 512), Grid(20.0, 512)],
                             ids=["other_L", "other_N", "other_L_and_N"])
    def test_grids_queried_in_turn_get_their_own_phases(self, other):
        g = Grid(L, 1024)
        u, w = _band_noise(g, seed=14), _band_noise(other, seed=15)
        q = 1.7
        expect_u = interp(u, np.array([q]))[0]
        expect_w = interp(w, np.array([q]))[0]
        for _ in range(2):
            assert interp(u, q) == expect_u
            assert interp(w, q) == expect_w

    def test_points_array_matches_scalar_points_bit_for_bit(self, phase_builds):
        g = Grid(L, 2048)
        u, v = _band_noise(g, seed=16), _band_noise(g, seed=17)
        pts = np.array([0.0, -7.25, 3.1e-3, g.x[100], 12.5, -L])
        want_u = [interp(u, float(p)) for p in pts]
        want_v = [interp(v, float(p)) for p in pts]

        def read():
            got_u, got_v = interp(u, pts), interp(v, pts)
            assert got_u.tolist() == want_u and got_v.tolist() == want_v

        # the second field reuses the first one's rows: one build for all points
        assert phase_builds(read) == 1
        hits = _point_phases.cache_info().hits
        interp(u, pts.copy())
        assert _point_phases.cache_info().hits == hits + 1

    def test_cached_row_is_read_only(self):
        # the three phase tables of a point set, and the field's spectrum
        for n_points in (256, 16384):
            g = Grid(L, n_points)
            u = _band_noise(g)
            interp(u, 0.4)
            hits = _point_phases.cache_info().hits
            tables = _point_phases(g.half_length, g.n_points, (0.4,))
            assert _point_phases.cache_info().hits == hits + 1
            assert len(tables) == 3
            for table in (*tables, *u.spectrum_tiles):
                with pytest.raises(ValueError):
                    table[(0,) * table.ndim] = 0.0

    @pytest.mark.parametrize("n_points", [16, 1024, 4096, 8192, 16384])
    def test_no_tile_holds_only_the_nyquist_mode(self, n_points):
        # modes 0..N/2-1 fill N/4096 whole tiles from N = 4096 on, one below
        tiles, nyquist = _band_noise(Grid(L, n_points)).spectrum_tiles
        assert tiles.shape == (1, max(1, n_points // 4096), 32, 64)
        assert nyquist.shape == (1,)

    @pytest.mark.parametrize("n_points", [1024, 8192, 16384])
    def test_exact_at_the_nodes_of_white_noise(self, n_points):
        # white noise has a nonzero Nyquist mode, which the tiles leave out
        g = Grid(L, n_points)
        u = Field(g, np.random.default_rng(n_points).standard_normal(n_points))
        assert u.spectrum_tiles[1][0] != 0.0
        nodes = np.concatenate((np.arange(0, n_points, 97), [1, n_points - 1]))
        coeffs = _interp_weights(g) * np.fft.rfft(u.values)
        bound = PHASE_TOL * np.sum(np.abs(coeffs)) / n_points
        assert np.max(np.abs(interp(u, g.x[nodes]) - u.values[nodes])) < bound
        assert abs(interp(u, float(g.x[1])) - u.values[1]) < bound

    @pytest.mark.parametrize("n_points", [1024, 8192])
    def test_paired_reads_equal_single_reads_bit_for_bit(self, n_points, phase_builds):
        g = Grid(L, n_points)
        fields = [_band_noise(g, seed=s) for s in (21, 22, 23)]
        pts = np.array([0.0, -7.25, 3.1e-3, g.x[100], 12.5, -L])
        single = [interp(f, pts) for f in fields]
        got = []
        # one phase build serves every field of the call
        assert phase_builds(lambda: got.append(interp(tuple(fields), pts))) == 1
        assert got[0].shape == (3, pts.size)
        for row, want in zip(got[0], single):
            assert row.tobytes() == want.tobytes()
        for q in (0.4, g.x[7]):
            assert interp((fields[2], fields[0]), q) == [interp(fields[2], q),
                                                          interp(fields[0], q)]

    def test_paired_reads_need_one_grid(self):
        u, v = _band_noise(Grid(L, 512)), _band_noise(Grid(20.0, 512))
        with pytest.raises(ValueError, match="different grids"):
            interp((u, v), 0.3)

    def test_runs_on_other_grids_between_leave_tracks_unchanged(self):
        def tracks(grid):
            cfg = RunConfig(
                grid=grid,
                datum=InitialDatum("gaussian_derivative", amplitude=0.8, width=1.3,
                                   center=0.7),
                profile=DissipationProfile.constant(0.1), t_end=0.2,
                seeds=(0.5, -1.0, 0.5))
            return repr(run(cfg).tracks)

        first = tracks(Grid(L, 512))
        tracks(Grid(25.0, 256))
        assert tracks(Grid(L, 512)) == first

    def test_values_are_read_only(self):
        g = Grid(L, 256)
        raw = np.exp(-0.5 * g.x ** 2)
        u = Field(g, raw)
        with pytest.raises(ValueError):
            u.values[0] = 1.0
        assert raw.flags.writeable   # the caller's own array is left alone
        assert not (2.0 * u).values.flags.writeable   # so are derived fields


class TestSpectralMassAndEdges:
    def test_tail_fraction_two_modes(self):
        g = Grid(L, 1024)
        spec = np.zeros(g.n_points // 2 + 1, dtype=complex)
        spec[2] = 3.0
        spec[g.kc - 1] = 1.0   # inside the top octave [kc//2, kc]
        u = from_spectrum(g, spec)
        assert tail_fraction(u) == pytest.approx(0.1, rel=1e-12)

    def test_tail_fraction_low_band_zero(self):
        g = Grid(L, 1024)
        spec = np.zeros(g.n_points // 2 + 1, dtype=complex)
        spec[3] = 1.0
        assert tail_fraction(from_spectrum(g, spec)) < 1e-30

    def test_raw_edge_check(self):
        g = Grid(L, 512)
        good = Field(g, np.exp(-0.5 * g.x ** 2))
        assert check_edge_decay(good, 1e-8)
        shifted = Field(g, np.exp(-0.5 * (g.x + L - 3.0) ** 2))
        assert not check_edge_decay(shifted, 1e-8)

    def test_smoothed_check_forgives_band_edge_ripple(self):
        # a tiny ripple at the band edge fails the raw test but carries no
        # low-frequency mass; the smoothed test must see through it
        g = Grid(L, 1024)
        ripple = 1e-7 * np.cos(np.pi * g.kc * g.x / L)
        u = Field(g, np.exp(-0.5 * g.x ** 2) + ripple)
        assert not check_edge_decay(u, 1e-8)
        assert smoothed_edge_decay(u, 1e-8)

    def test_smoothed_check_still_sees_real_mass(self):
        g = Grid(L, 1024)
        u = Field(g, np.exp(-0.5 * (g.x + L - 3.0) ** 2))
        assert not smoothed_edge_decay(u, 1e-8)

    def test_smoothed_values_are_cached_helmholtz_inverse(self, fft_lengths):
        g = Grid(L, 512)
        u = _band_noise(g, seed=8)
        expect = np.fft.irfft(np.fft.rfft(u.values) * g.helmholtz_multiplier, g.n_points)
        fft_lengths.clear()
        smoothed_edge_decay(u, 1e-8)
        smoothed_edge_decay(u, 1e-3)
        assert np.array_equal(helmholtz_inverse(u).values, expect)
        assert len(fft_lengths) == 2
        assert not u.smoothed_values.flags.writeable


class TestFieldAlgebra:
    def test_linear_ops(self):
        g = Grid(L, 256)
        a = _band_noise(g, seed=1)
        b = _band_noise(g, seed=2)
        assert np.allclose((a + b).values, a.values + b.values)
        assert np.allclose((a - b).values, a.values - b.values)
        assert np.allclose((2.5 * a).values, 2.5 * a.values)
        assert np.allclose((a * 2.5).values, 2.5 * a.values)
        assert a.max_abs == np.max(np.abs(a.values))

    def test_grid_mismatch_rejected(self):
        a = _band_noise(Grid(L, 256), seed=1)
        b = _band_noise(Grid(L, 512), seed=1)
        with pytest.raises(ValueError):
            a + b

    def test_values_of_another_length_rejected(self):
        with pytest.raises(ValueError,
                           match=r"values shape \(128,\) does not match grid with N=256"):
            Field(Grid(L, 256), np.zeros(128))

    @pytest.mark.parametrize("op", [deriv, conv_P_plus, conv_P_minus],
                             ids=lambda op: op.__name__)
    def test_non_finite_input_rejected(self, op):
        g = Grid(L, 256)
        v = np.exp(-g.x ** 2)
        v[3] = np.nan
        with pytest.raises(NumericsError, match=f"non-finite values in {op.__name__} input"):
            op(Field(g, v))


@settings(max_examples=25, deadline=None)
@given(shift=st.integers(min_value=-512, max_value=512),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_translation_equivariance(shift, seed):
    """Shifting by whole cells commutes with every Fourier-side operator."""
    g = Grid(L, 512)
    u = _band_noise(g, seed=seed)
    moved = Field(g, np.roll(u.values, shift))
    for op in (deriv, second_deriv, helmholtz_inverse, _kernel_square):
        direct = op(moved).values
        rolled = np.roll(op(u).values, shift)
        assert np.max(np.abs(direct - rolled)) < 1e-10
