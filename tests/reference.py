"""Reference routes the tests check the package against.

Some are built from numpy alone, so they are a second route: second_deriv's
inline symbol and the 3N/2-padded Galerkin products. The others compose the
package's own private steps, so that tests can read B, the slope law and
criterion 2 at a given point while the package carries no code that only
tests call.
"""

import numpy as np

from chbreak import Field, deriv, h1_norm_sq, interp
from chbreak.criteria import _assess
from chbreak.grid import from_spectrum
from chbreak.model import _bounded_forcing_hat, _nonlinear_spectra, _slope_rhs_from

# float64 roundoff of a few length-N transforms, fixed before measuring
NATIVE_GRID_TOL = 1e-13


def second_deriv(f):
    """d^2/dx^2 with the symbol -k^2 built inline."""
    coeffs = np.fft.rfft(f.values)
    k = f.grid.wavenumbers
    coeffs *= -(k * k)
    return Field(f.grid, np.fft.irfft(coeffs, f.grid.n_points))


def helmholtz_inverse(f):
    """(1 - d_xx)^(-1) f: the array smoothed_edge_decay reads."""
    return Field(f.grid, f.smoothed_values)


def bounded_forcing(u):
    """B = u^2 + h(u) - P * (u^2 + u_x^2/2 + h(u)), from one kernel pass."""
    grid = u.grid
    return from_spectrum(grid, _bounded_forcing_hat(_nonlinear_spectra(grid, u.values)))


def slope_rhs(u, t, profile):
    """Time derivative of u_x, -ux^2/2 - u u_xx + B(u) - lambda(t) ux."""
    return _slope_rhs_from(u.grid, _nonlinear_spectra(u.grid, u.values), profile.rate(t))


def slope_law_at_argmin(u, lam: float) -> tuple[float, float]:
    """(d/dt m, H) at the slope argmin of u under damping rate lam.

    With m = min u_x and B the bounded forcing there, the convective term
    drops and d/dt m = -m^2/2 - lam m + B. H = B + lam^2/2 is the forcing
    felt by the completed square m + lam, bounded by forcing_constant(E0) +
    delta^2/2 while the solution is smooth. Ties resolve to the smallest
    grid point.
    """
    ux = deriv(u)
    j = int(np.argmin(ux.values))
    m, b = float(ux.values[j]), float(bounded_forcing(u).values[j])
    return -0.5 * m * m - lam * m + b, b + 0.5 * lam * lam


def criterion2_at(u0, delta: float, point: float):
    """The two-sided criterion read at an arbitrary point, where
    check_criterion2 reads the grid node minimizing u0' + |u0|."""
    ux = deriv(u0)
    energy = h1_norm_sq(u0, ux)
    point = float(point)
    return _assess("mixed", delta, energy, point, interp(ux, point), interp(u0, point))


def _padded_product(grid, a_hat, b_hat):
    """Reference Galerkin product: both spectra zero-extended onto the 3N/2
    grid, multiplied there, truncated back to |k| <= kc."""
    n = grid.n_points
    m = 3 * n // 2

    def fine(coeffs):
        padded = np.zeros(m // 2 + 1, dtype=complex)
        padded[: n // 2 + 1] = coeffs
        return np.fft.irfft(padded, m) * (m / n)

    prod = np.fft.rfft(fine(a_hat) * fine(b_hat)) * (n / m)
    out = np.zeros(n // 2 + 1, dtype=complex)
    out[: grid.kc + 1] = prod[: grid.kc + 1]
    return out


def padded_reference(u, lam):
    """Every kernel spectrum, rhs and slope_rhs by the 3N/2-padded route."""
    grid = u.grid
    k = grid.wavenumbers
    u_hat = np.fft.rfft(u.values)
    ux_hat = u_hat * (1j * k)
    ux_hat[-1] = 0.0
    sq = _padded_product(grid, u_hat, u_hat)
    slopesq = _padded_product(grid, ux_hat, ux_hat)
    local = _padded_product(grid, sq, u_hat) - 0.5 * sq
    flux = local + 0.5 * slopesq
    spectra = {"u": u_hat, "ux": ux_hat, "advect": _padded_product(grid, u_hat, ux_hat),
               "sq": sq, "slopesq": slopesq, "local": local, "flux": flux}
    grad_conv = flux * grid.helmholtz_multiplier * (1j * k)
    grad_conv[-1] = 0.0
    rhs_ref = np.fft.irfft(-spectra["advect"] - grad_conv, grid.n_points) - lam * u.values
    bend = _padded_product(grid, u_hat, -u_hat * (k * k))
    slope_hat = (-0.5 * slopesq - bend + local - flux * grid.helmholtz_multiplier
                 - lam * ux_hat)
    return spectra, rhs_ref, np.fft.irfft(slope_hat, grid.n_points)


def rel_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))
