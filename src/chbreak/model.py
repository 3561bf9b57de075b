"""The evolution law, dissipation profiles, and initial data.

The equation is the nonlocal form of a Camassa-Holm-type shallow water
model with a cubic correction and time-dependent linear damping:

    u_t + u u_x + d_x (1 - d_xx)^(-1) [ u^2 + u_x^2/2 + h(u) ] + lambda(t) u = 0
    h(u) = u^3 - (3/2) u^2

Damping multiplies the H^1 energy by exp(-2 int_0^t lambda); everything else
conserves it. The same kernel pass gives the slope equation, obtained by
differentiating in x, and its bounded forcing B, since the minimum slope
drives wave breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError, EdgeDecayError, SearchError
from .grid import (
    DEFAULT_EDGE_TOL,
    Field,
    Grid,
    band_limit,
    band_spectrum,
    band_values,
    check_edge_decay,
    from_spectrum,
)

if TYPE_CHECKING:
    from .criteria import BreakingSearchResult

DATUM_FAMILIES = ("gaussian_derivative", "sech_squared", "antisym_peak", "samples")
# the InitialDatum fields each family takes; a config needs all but center
DATUM_KEYS = {family: ("values",) if family == "samples" else ("amplitude", "width", "center")
              for family in DATUM_FAMILIES}
PROFILE_KINDS = ("constant", "linear_ramp", "sinusoidal", "piecewise")
MIXED_SAMPLE_INTERVALS = 8192
WIDTH_SCAN_POINTS = 96   # widths find_breaking_datum tries, geometrically spaced
WIDTH_RANGE = (0.04, 1.0)   # over this range, widest first
SEARCH_MARGIN = 0.10   # the criterion margin the found datum reaches


# ---------------------------------------------------------------------------
# Dissipation


@dataclass(frozen=True)
class DissipationProfile:
    """Continuous damping coefficient lambda(t) with a certified ceiling.

    delta_sup must dominate lambda on the horizon of interest; the blow-up
    criteria are stated in terms of this ceiling, so it is supplied rather
    than estimated. Every value is checked once, on construction.
    """

    kind: str
    params: tuple[float, ...]
    delta_sup: float
    knot_times: tuple[float, ...] = ()
    knot_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(f"profile kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        ts, vs = self.knot_times, self.knot_values
        if not all(math.isfinite(v) for v in (*self.params, self.delta_sup, *ts, *vs)):
            raise ConfigError(f"{self.kind} profile values and delta_sup must be finite")
        if self.kind == "sinusoidal" and self.params[2] == 0.0:
            raise ConfigError("sinusoidal profile needs omega != 0")
        if self.kind == "piecewise":
            if len(ts) != len(vs) or len(ts) < 2:
                raise ConfigError(
                    "piecewise profile needs matching times/values, at least two knots")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ConfigError("piecewise profile times must be strictly increasing")

    @classmethod
    def constant(cls, value: float, delta_sup: float | None = None) -> "DissipationProfile":
        if delta_sup is None:
            delta_sup = value
        return cls("constant", (float(value),), float(delta_sup))

    @classmethod
    def linear_ramp(cls, start: float, ramp_rate: float, delta_sup: float) -> "DissipationProfile":
        return cls("linear_ramp", (float(start), float(ramp_rate)), float(delta_sup))

    @classmethod
    def sinusoidal(cls, offset: float, amplitude: float, omega: float,
                   delta_sup: float | None = None) -> "DissipationProfile":
        if delta_sup is None:
            delta_sup = offset + abs(amplitude)
        return cls("sinusoidal", (float(offset), float(amplitude), float(omega)), float(delta_sup))

    @classmethod
    def piecewise(cls, times, values, delta_sup: float | None = None) -> "DissipationProfile":
        vs = tuple(float(v) for v in values)
        if delta_sup is None:
            delta_sup = max(vs, default=0.0)   # no knots fails the knot check
        return cls("piecewise", (), float(delta_sup), tuple(float(t) for t in times), vs)

    def rate(self, t: float) -> float:
        """lambda(t). Piecewise profiles are linear between knots and held
        at the first and last knot's value before and after them."""
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "linear_ramp":
            start, ramp = self.params
            return start + ramp * t
        if self.kind == "sinusoidal":
            offset, amp, omega = self.params
            return offset + amp * math.sin(omega * t)
        return float(np.interp(t, self.knot_times, self.knot_values))

    def integral(self, t: float) -> float:
        """int_0^t lambda, exact for every kind."""
        if self.kind == "constant":
            return self.params[0] * t
        if self.kind == "linear_ramp":
            start, ramp = self.params
            return start * t + 0.5 * ramp * t * t
        if self.kind == "sinusoidal":
            offset, amp, omega = self.params
            return offset * t + (amp / omega) * (1.0 - math.cos(omega * t))
        # lambda is linear between breakpoints, so the trapezoid rule is exact
        times = self._breakpoints(t)
        return float(np.trapezoid(np.interp(times, self.knot_times, self.knot_values), times))

    def _breakpoints(self, t: float) -> list[float]:
        """0, the knots strictly inside (0, t), and t, in order."""
        return [0.0, *(k for k in self.knot_times if 0.0 < k < t), t]

    def _extremes(self, t_end: float) -> tuple[float, float]:
        """Exact (inf, sup) of lambda on [0, t_end].

        lambda is monotone between the candidates checked here: the
        breakpoints (the endpoints and the interior knots of a piecewise
        profile), and the crest and trough phases of a sinusoid.
        """
        values = [self.rate(t) for t in self._breakpoints(t_end)]
        if self.kind == "sinusoidal":
            offset, amp, omega = self.params
            lo, hi = sorted((0.0, omega * t_end))
            for sign, phase in ((1.0, 0.5 * math.pi), (-1.0, 1.5 * math.pi)):
                # is some phase + 2 pi k inside [lo, hi]?
                turns = (lo - phase) / (2.0 * math.pi), (hi - phase) / (2.0 * math.pi)
                if math.ceil(turns[0]) <= math.floor(turns[1]):
                    values.append(offset + sign * amp)
        return min(values), max(values)

    def validate_horizon(self, t_end: float) -> None:
        """Certify delta_sup >= lambda on [0, t_end]."""
        peak = self._extremes(t_end)[1]
        if self.delta_sup < peak - 1e-9 * max(1.0, abs(peak)):
            raise ConfigError(
                f"delta_sup={self.delta_sup} is below max lambda = {peak:.6g} on [0, {t_end}]")

    def is_dissipative(self, t_end: float) -> bool:
        """True when lambda stays nonnegative on [0, t_end]; the decay-based
        amplitude and localization bounds assume this."""
        return self._extremes(t_end)[0] >= -1e-12


# ---------------------------------------------------------------------------
# Initial data


@dataclass(frozen=True)
class InitialDatum:
    """A one-parameter family member used to seed runs.

    width is the sole shape parameter (the Gaussian sigma or the sech
    width); amplitude scales the profile. The `samples` family carries raw
    node values instead, and takes no other field.
    """

    family: str
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in DATUM_FAMILIES:
            raise ConfigError(f"unknown datum family {self.family!r}")
        for f in fields(self):
            # a value the family ignores would be lost by emit_config
            if f.name not in ("family", *DATUM_KEYS[self.family]) \
                    and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name} does not apply to datum family {self.family!r}")
        if not all(math.isfinite(v) for v in (self.amplitude, self.width, self.center,
                                               *self.values)):
            raise ConfigError("datum amplitude, width, center and values must be finite")
        if self.family != "samples" and self.width <= 0.0:
            raise ConfigError("datum width must be positive")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        a = self.amplitude
        if self.family == "gaussian_derivative":
            return -a * self.width * z * np.exp(-0.5 * z * z)
        z = np.clip(z, -350.0, 350.0)   # sech^2 underflows to 0 long before
        if self.family == "sech_squared":
            return a / np.cosh(z) ** 2
        if self.family == "antisym_peak":
            return -a * z / np.cosh(z) ** 2
        raise ConfigError("samples datum has no off-grid evaluation")

    def derivative(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        if self.family != "gaussian_derivative":
            z = np.clip(z, -350.0, 350.0)
        a = self.amplitude
        if self.family == "gaussian_derivative":
            return -a * (1.0 - z * z) * np.exp(-0.5 * z * z)
        if self.family == "sech_squared":
            return -(2.0 * a / self.width) * np.tanh(z) / np.cosh(z) ** 2
        if self.family == "antisym_peak":
            sech2 = 1.0 / np.cosh(z) ** 2
            return -(a / self.width) * sech2 * (1.0 - 2.0 * z * np.tanh(z))
        raise ConfigError("samples datum has no off-grid derivative")

    def analytic_min_slope(self) -> tuple[float, float] | None:
        """(location, value) of the global slope minimum, when closed-form."""
        a, w, c = self.amplitude, self.width, self.center
        if a <= 0.0:
            return None
        if self.family == "gaussian_derivative":
            return c, -a
        if self.family == "sech_squared":
            z_star = math.atanh(1.0 / math.sqrt(3.0))
            return c + w * z_star, -(4.0 / (3.0 * math.sqrt(3.0))) * a / w
        if self.family == "antisym_peak":
            return c, -a / w
        return None

    def reach(self) -> float:
        """Half-width of the interval outside which the profile is negligible."""
        if self.family == "gaussian_derivative":
            return 13.0 * self.width
        return 25.0 * self.width

    def energy(self) -> float:
        """H^1 energy of the line profile, in closed form.

        With z = (x - center)/width, u^2 and u_x^2 integrate over the line
        to moments of e^(-z^2) or of sech^4(z) times powers of z and
        tanh(z), each known exactly. They match the dense quadrature over
        reach() to roundoff, since the tails beyond it are below double
        precision.
        """
        a, w = self.amplitude, self.width
        if self.family == "gaussian_derivative":
            return a * a * math.sqrt(math.pi) * (0.5 * w ** 3 + 0.75 * w)
        if self.family == "sech_squared":
            return a * a * (4.0 * w / 3.0 + 16.0 / (15.0 * w))
        if self.family == "antisym_peak":
            pi2 = math.pi * math.pi
            return a * a * ((pi2 - 6.0) * w / 9.0 + 4.0 * pi2 / (45.0 * w))
        raise ConfigError("samples datum energy requires a grid; use h1_norm_sq")


def make_datum(datum: InitialDatum, grid: Grid, edge_tol: float = DEFAULT_EDGE_TOL) -> Field:
    """Sample the datum on the grid, band-limit it, and vet edge decay."""
    if datum.family == "samples":
        v = np.asarray(datum.values, dtype=float)
        if v.shape != (grid.n_points,):
            raise ConfigError(
                f"samples datum has {v.shape[0] if v.ndim == 1 else 'bad'} values, grid wants {grid.n_points}")
        raw = Field(grid, v)
    else:
        if datum.reach() > grid.half_length:
            raise EdgeDecayError(
                f"datum with width {datum.width:g} does not fit in [-{grid.half_length:g}, {grid.half_length:g})")
        raw = Field(grid, datum.evaluate(grid.x))
    out = band_limit(raw)
    if not check_edge_decay(out, edge_tol):
        raise EdgeDecayError("initial datum does not decay at the domain edges")
    return out


# ---------------------------------------------------------------------------
# Evolution operators


class NonlinearSpectra(NamedTuple):
    """Spectra of one state and its band-limited nonlinear terms."""

    u: np.ndarray         # u
    ux: np.ndarray        # u_x
    advect: np.ndarray    # u u_x
    sq: np.ndarray        # u^2
    slopesq: np.ndarray   # u_x^2
    local: np.ndarray     # u^2 + h(u)
    flux: np.ndarray      # F = u^2 + u_x^2/2 + h(u)
    conv: np.ndarray      # P * F = (1 - d_xx)^(-1) F
    drift: np.ndarray     # -(P * F)_x = (P+ - P-) * F


def _nonlinear_spectra(grid: Grid, v: np.ndarray) -> NonlinearSpectra:
    """The one place F, u^2 + h(u) and the kernel's action on F are
    assembled, for a state vector: exact Galerkin products on the N grid
    (grid module docstring), the cube as P(P(u^2) u). The u and ux spectra
    are v's own, not projected."""
    u_hat = np.fft.rfft(v)
    ux_hat = u_hat * grid.ik
    u_band = band_values(grid, u_hat)
    ux_band = band_values(grid, ux_hat)
    sq = band_spectrum(grid, u_band * u_band)
    slopesq = band_spectrum(grid, ux_band * ux_band)
    advect = band_spectrum(grid, u_band * ux_band)
    cube = band_spectrum(grid, band_values(grid, sq) * u_band)
    local = cube - 0.5 * sq
    flux = local + 0.5 * slopesq
    conv = flux * grid.helmholtz_multiplier
    return NonlinearSpectra(u_hat, ux_hat, advect, sq, slopesq, local, flux, conv,
                            -(conv * grid.ik))


def _rhs_from(u: Field, s: NonlinearSpectra, lam: float) -> Field:
    """rhs of u from its kernel spectra s, at damping rate lam."""
    grid = u.grid
    out = np.fft.irfft(s.drift - s.advect, grid.n_points)
    out -= lam * u.values
    return Field(grid, out)


def rhs(u: Field, t: float, profile: DissipationProfile) -> Field:
    """Time derivative of u in the nonlocal form."""
    return _rhs_from(u, _nonlinear_spectra(u.grid, u.values), profile.rate(t))


def _bounded_forcing_hat(s: NonlinearSpectra) -> np.ndarray:
    """Spectrum of B = u^2 + h(u) - P * (u^2 + u_x^2/2 + h(u)), from the
    kernel spectra s of u.

    This is the portion of the slope dynamics that stays bounded by the
    initial energy (|B| <= K) while the slope itself diverges.
    """
    return s.local - s.conv


def _slope_rhs_from(grid: Grid, s: NonlinearSpectra, lam: float) -> Field:
    """Time derivative of u_x, -ux^2/2 - u u_xx + B(u) - lam ux, from the
    kernel spectra s of u.

    Identical to deriv(rhs(u)) up to roundoff; its own u u_xx product keeps
    it a separate route, so the slope dynamics can be cross-checked against
    the direct one.
    """
    bend_hat = band_spectrum(
        grid, band_values(grid, s.u) * band_values(grid, s.u * grid.minus_k2))
    out_hat = -0.5 * s.slopesq - bend_hat + _bounded_forcing_hat(s) - lam * s.ux
    return from_spectrum(grid, out_hat)


# ---------------------------------------------------------------------------
# Supercritical datum search


def _mixed_extreme(datum: InitialDatum) -> tuple[float, float, float]:
    """(x1, u0'(x1), u0(x1)) at the dense-sample argmin of u0' + |u0| over
    the datum's support."""
    r = datum.reach()
    xs = np.linspace(datum.center - r, datum.center + r, MIXED_SAMPLE_INTERVALS + 1)
    du, u = datum.derivative(xs), datum.evaluate(xs)
    j = int(np.argmin(du + np.abs(u)))
    # odd profiles pin the minimum to the center kink; snap when adjacent
    if (datum.family in ("gaussian_derivative", "antisym_peak")
            and abs(xs[j] - datum.center) <= (xs[1] - xs[0]) * 1.5):
        at_c = np.array([datum.center])
        du_c, u_c = float(datum.derivative(at_c)[0]), float(datum.evaluate(at_c)[0])
        if du_c + abs(u_c) <= du[j] + abs(u[j]) + 1e-12:
            return datum.center, du_c, u_c
    return float(xs[j]), float(du[j]), float(u[j])


def find_breaking_datum(
    family: str = "gaussian_derivative",
    delta: float = 0.0,
    criterion: str = "slope_only",
    amplitude: float = 2.0,
) -> BreakingSearchResult:
    """Scan the family's width for a datum that satisfies a blow-up criterion.

    Widths are scanned geometrically from wide to narrow; narrowing lowers
    the energy (hence the threshold) faster than it costs slope, so the
    first hit is the widest, best-resolved qualifying datum. The result is
    the criterion's report on the line profile. Raises SearchError when no
    width in WIDTH_RANGE reaches SEARCH_MARGIN.
    """
    from .criteria import BreakingSearchResult, _assess

    if criterion not in ("slope_only", "mixed"):
        raise ConfigError(f"unknown criterion {criterion!r}")
    if family == "samples":
        raise ConfigError("the width search needs an analytic family")
    if not math.isfinite(delta):
        raise ConfigError(f"delta must be finite, got {delta}")
    if criterion == "slope_only" and not amplitude > 0.0:
        raise ConfigError(f"the slope-only search needs amplitude > 0, got {amplitude}")
    lo, hi = WIDTH_RANGE
    best_fail = None
    for w in np.geomspace(hi, lo, WIDTH_SCAN_POINTS):
        datum = InitialDatum(family, amplitude=amplitude, width=float(w))
        if criterion == "slope_only":
            point, slope = datum.analytic_min_slope()
            amp = float(datum.evaluate(np.array([point]))[0])
        else:
            point, slope, amp = _mixed_extreme(datum)
        report = _assess(criterion, delta, datum.energy(), point, slope, amp)
        if report.margin >= SEARCH_MARGIN:
            return BreakingSearchResult(**vars(report), datum=datum)
        if best_fail is None or report.margin > best_fail:
            best_fail = report.margin
    raise SearchError(
        f"no {family} width in [{lo:g}, {hi:g}] meets the {criterion} criterion "
        f"at delta={delta:g}, amplitude={amplitude:g} "
        f"(best margin {best_fail:.3f} < {SEARCH_MARGIN:g})")
