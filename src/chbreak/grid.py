"""Periodic spectral grid, fields, and the nonlocal kernel operations.

The real line is truncated to the periodic interval [-L, L). Derivatives and
the Helmholtz solve (1 - d_xx)^(-1) are Fourier multipliers. The one-sided
smoothing kernels (the two halves of the decaying exponential that the
Helmholtz solve convolves with) have no periodic analogue, so they are
integrated by a marching product-integration rule that treats the
exponential weight exactly on every cell.

Every nonlinear product in the evolution is a Galerkin product: factors in
the band |k| <= kc, kc = N//3 (2/3 rule), multiplied at the N nodes and
projected back to the band. Their modes reach 2kc, whose aliases k - N have
|k - N| >= N - 2kc > kc, so the product is exact, and so is the discrete
energy identity that rests on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EdgeDecayError, NumericsError

DEFAULT_EDGE_TOL = 1e-8

# cubic Lagrange basis on nodes tau = -1, 0, 1, 2; row i holds the
# coefficients of tau^0..tau^3 for the polynomial that is 1 at node i
_LAGRANGE = np.array([
    [0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],
    [1.0, -0.5, -1.0, 0.5],
    [0.0, 1.0, 0.5, -0.5],
    [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0],
])


def _read_only(a: np.ndarray) -> np.ndarray:
    """a itself, with in-place writes switched off."""
    a.flags.writeable = False
    return a


def _exp_moments(z: float) -> np.ndarray:
    """Moments I_p = integral_0^1 tau^p e^(z tau) dtau for p = 0..3.

    The forward recurrence I_p = (e^z - p I_(p-1))/z loses digits for small z,
    so a short series is used there instead.
    """
    out = np.empty(4)
    if abs(z) >= 0.25:
        ez = np.exp(z)
        out[0] = np.expm1(z) / z
        for p in range(1, 4):
            out[p] = (ez - p * out[p - 1]) / z
    else:
        for p in range(4):
            term = 1.0 / (p + 1)
            total = term
            z_pow = 1.0
            factorial = 1.0
            for j in range(1, 40):
                z_pow *= z
                factorial *= j
                term = z_pow / (factorial * (p + j + 1))
                total += term
                if abs(term) <= 1e-20 * abs(total):
                    break
            out[p] = total
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-half_length, half_length).

    Every cached array is read-only: one Grid serves every field on it.
    """

    half_length: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.half_length > 0.0 and np.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        if self.n_points < 16 or self.n_points & (self.n_points - 1) != 0:
            raise ValueError(f"n_points must be a power of two and >= 16, got {self.n_points}")

    @cached_property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(-self.half_length + self.dx * np.arange(self.n_points))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # rfft wavenumbers for period 2L: k_j = pi j / L
        return _read_only((np.pi / self.half_length) * np.arange(self.n_points // 2 + 1))

    @cached_property
    def kc(self) -> int:
        """Largest retained mode index under the 2/3 rule."""
        return self.n_points // 3

    @cached_property
    def ik(self) -> np.ndarray:
        """Symbol of d/dx. Its Nyquist entry is 0 so the derivative matrix
        stays skew-symmetric, which the discrete energy identity relies on."""
        s = 1j * self.wavenumbers
        s[-1] = 0.0
        return _read_only(s)

    @cached_property
    def minus_k2(self) -> np.ndarray:
        """Symbol of d^2/dx^2."""
        k = self.wavenumbers
        return _read_only(-(k * k))

    @cached_property
    def helmholtz_multiplier(self) -> np.ndarray:
        k = self.wavenumbers
        return _read_only(1.0 / (1.0 + k * k))

    @cached_property
    def _conv_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact-exponential cell weights for the one-sided convolutions.

        Returns (w_right, w_left): w_right integrates a cell against
        e^(-(h-s)) (evaluation at the right node), w_left against e^(-s),
        with the integrand's cubic interpolant through the cell's node and
        its three neighbours.
        """
        h = self.dx
        w_right = h * np.exp(-h) * (_LAGRANGE @ _exp_moments(h))
        w_left = h * (_LAGRANGE @ _exp_moments(-h))
        return _read_only(w_right), _read_only(w_left)

    @cached_property
    def _march_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """e^(j dx) and e^(-j dx) over one chunk of _exp_march (a span of at
        most 300), the second one entry longer: it ends in the carry's decay."""
        j = self.dx * np.arange(min(self.n_points, int(300.0 / self.dx) + 1) + 1)
        return _read_only(np.exp(j[:-1])), _read_only(np.exp(-j))


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar field sampled on a Grid.

    A Field is a value: its `values` are a read-only view and are never
    mutated in place, and every operation returns a new Field. That is what
    lets spectra derived from the values be computed once per instance and
    cached (spectrum_tiles). Fields hash by identity, so interp can cache a stack.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError(f"values shape {v.shape} does not match grid with N={self.grid.n_points}")
        object.__setattr__(self, "values", _read_only(v.view()))

    def _match(self, other: "Field") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._match(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._match(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def spectrum_tiles(self) -> tuple[np.ndarray, np.ndarray]:
        """What interp sums, as a stack of this one field, read-only: the rfft
        of the values over N, interior modes doubled, with modes 0..N/2-1 in
        zero-padded 32 x 64 tiles, shape (1, tiles, 32, 64), and the real
        Nyquist mode apart, shape (1,). Computed once and cached on this instance.
        """
        coeffs = np.fft.rfft(self.values) * (2.0 / self.grid.n_points)
        coeffs[0] *= 0.5
        tiles = np.zeros(_tile_count(coeffs.size - 1) * _TILE, dtype=complex)
        tiles[:coeffs.size - 1] = coeffs[:-1]
        return (_read_only(tiles).reshape(1, -1, _TILE_ROWS, _FINE),
                _read_only(0.5 * coeffs[-1:].real))

    @cached_property
    def smoothed_values(self) -> np.ndarray:
        """(1 - d_xx)^(-1) of the values, read-only, cached like spectrum_tiles."""
        spectrum = np.fft.rfft(self.values) * self.grid.helmholtz_multiplier
        return _read_only(np.fft.irfft(spectrum, self.grid.n_points))


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericsError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Fourier multiplier operations


def from_spectrum(grid: Grid, coeffs: np.ndarray) -> Field:
    return Field(grid, np.fft.irfft(coeffs, grid.n_points))


def deriv(f: Field) -> Field:
    """Spectral first derivative, Nyquist mode zeroed (Grid.ik). Rejects
    non-finite input."""
    _require_finite(f.values, "deriv input")
    coeffs = np.fft.rfft(f.values)
    coeffs *= f.grid.ik
    return from_spectrum(f.grid, coeffs)


def band_spectrum(grid: Grid, values: np.ndarray) -> np.ndarray:
    """rfft of node values with the modes above kc zeroed."""
    coeffs = np.fft.rfft(values)
    coeffs[grid.kc + 1:] = 0.0
    return coeffs


def band_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Node values of the band |k| <= kc of an rfft spectrum."""
    return np.fft.irfft(coeffs[: grid.kc + 1], grid.n_points)


def band_limit(f: Field) -> Field:
    """Project onto the retained band |k| <= kc (2/3 rule)."""
    return from_spectrum(f.grid, band_spectrum(f.grid, f.values))


def tail_fraction(f: Field) -> float:
    """Energy share of the top octave of the retained band.

    Near zero for well-resolved fields; grows toward O(1) as a front falls
    to the grid scale. Used by the solver to decide when the Eulerian field
    stops being trustworthy.
    """
    power = np.abs(np.fft.rfft(f.values)) ** 2
    kc = f.grid.kc
    total = float(np.sum(power[1: kc + 1]))
    if total <= 0.0:
        return 0.0
    top = float(np.sum(power[kc // 2: kc + 1]))
    return top / total


# ---------------------------------------------------------------------------
# One-sided exponential convolutions (line kernels on the truncated domain)


def check_edge_decay(f: Field, edge_tol: float = DEFAULT_EDGE_TOL) -> bool:
    """True when the field's raw values at the domain edges are negligible.

    Right for vetting initial data. For evolving states near breaking prefer
    smoothed_edge_decay: a sharp interior front rings at the band edge, and
    those sinc tails decay only polynomially in x, so they pollute raw edge
    values at an amplitude that says nothing about boundary mass.
    """
    return _edges_negligible(f.values, edge_tol)


def _edges_negligible(v: np.ndarray, edge_tol: float) -> bool:
    """The two nodes at each end are within edge_tol of the peak magnitude."""
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return True
    edge = max(float(np.max(np.abs(v[:2]))), float(np.max(np.abs(v[-2:]))))
    return edge <= edge_tol * peak


def smoothed_edge_decay(f: Field, edge_tol: float = DEFAULT_EDGE_TOL) -> bool:
    """Edge-decay test on the Helmholtz smoothing of f.

    The 1/(1 + k^2) multiplier suppresses band-edge ringing by orders of
    magnitude while leaving genuine (low-frequency) mass transported to the
    boundary intact, so this is the right monitor while a front sharpens.
    """
    return _edges_negligible(f.smoothed_values, edge_tol)


def _exp_march(grid: Grid, c: np.ndarray) -> np.ndarray:
    """I_j = e^(-dx) I_(j-1) + c_j from I_(-1) = 0, as e^(-j dx) sum_(i<=j) e^(i dx) c_i
    over chunks short enough for e^(j dx) to stay finite, each going on from the last."""
    grow, shrink = grid._march_tables
    out = np.zeros(c.size)
    for start in range(0, c.size, grow.size):
        part = c[start:start + grow.size] * grow[:c.size - start]
        part[0] += shrink[1] * out[start - 1]   # out[-1] is still 0 on the first chunk
        out[start:start + part.size] = np.cumsum(part) * shrink[:part.size]
    return out


def _one_sided_march(f: Field, edge_tol: float, left_weights: bool,
                     name: str) -> np.ndarray:
    """Running integrals of a one-sided kernel, marched over the cells from
    its open end, after checking its preconditions (finite input, edge
    decay)."""
    _require_finite(f.values, f"{name} input")
    if not smoothed_edge_decay(f, edge_tol):
        raise EdgeDecayError(f"{name}: field does not decay at the domain edges")
    w_right, w_left = f.grid._conv_weights
    w = w_left if left_weights else w_right
    v = f.values
    # cell j spans [x_j, x_{j+1}); its cubic uses nodes j-1..j+2 with
    # periodic wrap, which the edge-decay precondition makes harmless
    cells = (
        w[0] * np.roll(v, 1)
        + w[1] * v
        + w[2] * np.roll(v, -1)
        + w[3] * np.roll(v, -2)
    )
    order = -1 if left_weights else 1
    return _exp_march(f.grid, cells[::order])[::order]


def conv_P_plus(f: Field, edge_tol: float = DEFAULT_EDGE_TOL) -> Field:
    """Left-sided kernel: (1/2) e^(-x) integral_(-inf)^x e^y f(y) dy.

    Marches the exact recurrence I(x_(j+1)) = e^(-dx) I(x_j) + cell_j with
    fourth-order product-integration cells. Requires edge decay (of the
    smoothed field: wrap-around contamination of the march is a
    low-frequency effect, and band-edge ringing is harmless at this
    tolerance because the kernel weights it by at most one).
    """
    running = _one_sided_march(f, edge_tol, False, "conv_P_plus")
    return Field(f.grid, 0.5 * np.concatenate(([0.0], running[:-1])))


def conv_P_minus(f: Field, edge_tol: float = DEFAULT_EDGE_TOL) -> Field:
    """Right-sided kernel: (1/2) e^x integral_x^inf e^(-y) f(y) dy."""
    return Field(f.grid, 0.5 * _one_sided_march(f, edge_tol, True, "conv_P_minus"))


# ---------------------------------------------------------------------------
# Interpolation and norms


# interp splits each mode index as k = _FINE * a + b with b < _FINE, and a
# field's spectrum into tiles of _TILE_ROWS values of a by _FINE of b. The
# tile size keeps BLAS on one thread: OpenBLAS (0.3.31) runs zgemv on two
# threads once m * n >= 4096, and a 32 x 64 tile has 2048 entries. One
# 64 x 64 or 128 x 64 product per point, at N = 8192 or 16384, crosses that
# line: on two cores it takes twice its wall time in CPU time.
_FINE = 64
_TILE_ROWS = 32
_TILE = _TILE_ROWS * _FINE


def _tile_count(count: int) -> int:
    """Tiles that hold modes k = 0..count-1."""
    return -(-count // _TILE)


@lru_cache(maxsize=None)
def _phase_exponents(n_points: int) -> np.ndarray:
    """i k for each entry of a point's phase table, read-only: b < _FINE (fine),
    -_FINE a for each tile row a (coarse, conjugated up front) and N/2 (Nyquist)."""
    a = np.arange(_TILE_ROWS * _tile_count(n_points // 2))
    return _read_only(1j * np.concatenate((np.arange(_FINE), -_FINE * a, [n_points // 2])))


@lru_cache(maxsize=1)
def _point_phases(half_length: float, n_points: int,
                  points: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """interp's read-only tables for a tuple of points of [-L, L), views of one
    table of e^(i theta k), one exponential per entry of _phase_exponents: the
    fine one, the coarse one as (real, imaginary) pairs, and Re e^(i theta N/2)."""
    theta = np.array([(p + half_length) * (np.pi / half_length) for p in points])
    table = _read_only(np.exp(np.multiply.outer(theta, _phase_exponents(n_points))))
    pairs = table[:, _FINE:-1].view(float)
    return table[:, None, None, :_FINE, None], pairs[:, None, None, :], table[:, -1:].real


@lru_cache(maxsize=1)
def _stacked_spectra(fields: tuple[Field, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Field.spectrum_tiles of fields on one grid, stacked, read-only."""
    for other in fields[1:]:
        fields[0]._match(other)
    tiles, nyquist = zip(*(f.spectrum_tiles for f in fields))
    return _read_only(np.concatenate(tiles)), _read_only(np.concatenate(nyquist))


def interp(f: Field | tuple[Field, ...], points) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant at arbitrary points.

    Scalar in, scalar out; array in, array out; exact at the nodes. A
    point's value is Re sum_a coarse_a (tile_a @ fine) over the cached tiles
    of modes 0..N/2-1 (Field.spectrum_tiles), one stacked matmul and one dot
    product, plus the Nyquist term; its phases are one exponential each, and
    the previous call's table (_point_phases) is reused when L, N and the
    points match. For a tuple of fields on one grid, one phase lookup and one
    stacked matmul give one row per field, each bit for bit that field's own
    call. Each point is summed on its own, so its value does not depend on
    which other points came with it.
    """
    grid = (f[0] if isinstance(f, tuple) else f).grid
    scalar = isinstance(points, (int, float, np.number))
    key = (float(points),) if scalar else tuple(np.asarray(points, dtype=float).ravel().tolist())
    fine, pairs, nyquist = _point_phases(grid.half_length, grid.n_points, key)
    tiles, top = _stacked_spectra(f) if isinstance(f, tuple) else f.spectrum_tiles
    inner = np.matmul(tiles, fine).view(float).reshape(len(key), top.size, -1, 1)
    rows = (np.matmul(pairs, inner)[:, :, 0, 0] + nyquist * top).T
    rows = rows[:, 0].tolist() if scalar else rows
    return rows if isinstance(f, tuple) else rows[0]


def h1_norm_sq(f: Field, fx: Field | None = None) -> float:
    """Squared H^1 norm: integral of f^2 + (f')^2 by the (exact) node rule.

    fx, when given, is deriv(f) already computed; otherwise it is taken here.
    """
    if fx is None:
        fx = deriv(f)
    return float(f.grid.dx * np.sum(f.values * f.values + fx.values * fx.values))
