"""Flow-map tracks and the transport identities checked along them.

A track follows one material point q' = u(q, t). Along it the field and its
slope obey closed pointwise laws:

    d/dt u(q)   = (P+ - P-) * F (q) - lambda u(q)
    d/dt u_x(q) = -u_x^2/2 + u^2 + h(u) - (P+ + P-) * F (q) - lambda u_x(q)

with F = u^2 + u_x^2/2 + h(u). Each sample stores these right-hand sides by
two independent routes: the one-sided quadrature kernels above, and the
spectral evolution operators plus the advective correction. Their agreement
and the finite-difference residual of the stored series are the evidence
that the discrete flow map realizes the transport structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import Field, conv_P_minus, conv_P_plus, from_spectrum, interp
from .model import DissipationProfile, _nonlinear_spectra, _rhs_from, _slope_rhs_from
from .riccati import rk4

SLOPE_RELIABLE_LIMIT = 1.0e5


@dataclass(frozen=True)
class TrackAux:
    """Per-step fields shared by every track: computed once, interpolated many."""

    t: float
    lam: float
    u: Field
    ux: Field
    uxx: Field
    conv_sum: Field    # (P+ + P-) * F by the quadrature kernels
    conv_diff: Field   # (P+ - P-) * F by the quadrature kernels
    rhs_field: Field
    slope_field: Field


def build_aux(u: Field, t: float, profile: DissipationProfile) -> TrackAux:
    """Every per-step field the tracks read, from one pass of the kernel.

    ux and rhs_field equal deriv and rhs of u bit for bit; they only share
    that pass. uxx is u's spectrum times Grid.minus_k2, and slope_field is
    the slope law model._slope_rhs_from.
    """
    grid = u.grid
    lam = profile.rate(t)
    s = _nonlinear_spectra(grid, u.values)
    flux = from_spectrum(grid, s.flux)
    plus = conv_P_plus(flux)
    minus = conv_P_minus(flux)
    return TrackAux(
        t=t,
        lam=lam,
        u=u,
        ux=from_spectrum(grid, s.ux),
        uxx=from_spectrum(grid, s.u * grid.minus_k2),
        conv_sum=plus + minus,
        conv_diff=plus - minus,
        rhs_field=_rhs_from(u, s, lam),
        slope_field=_slope_rhs_from(grid, s, lam),
    )


@dataclass
class CharacteristicTrack:
    """Sample series along one characteristic, with dual-route rhs channels."""

    seed: float
    times: list = dataclass_field(default_factory=list)
    positions: list = dataclass_field(default_factory=list)
    u_vals: list = dataclass_field(default_factory=list)
    ux_vals: list = dataclass_field(default_factory=list)
    rhs_u: list = dataclass_field(default_factory=list)
    rhs_ux: list = dataclass_field(default_factory=list)
    rhs_u_alt: list = dataclass_field(default_factory=list)
    rhs_ux_alt: list = dataclass_field(default_factory=list)
    reliable: list = dataclass_field(default_factory=list)
    edge_contaminated: bool = False
    stopped_at: float | None = None   # last sample's time, when the run outlasted the track

    @property
    def n_samples(self) -> int:
        return len(self.times)


_CHANNELS = ("positions", "u_vals", "ux_vals", "rhs_u", "rhs_ux", "rhs_u_alt", "rhs_ux_alt")


def _append_samples(tracks: list[CharacteristicTrack], grid, t: float, *channels) -> None:
    """Store one sample per track: channels hold one entry per track, in
    _CHANNELS order. The edge and slope limits decide each sample's
    reliability."""
    rows = zip(*(np.asarray(c).tolist() for c in channels))
    edge = grid.half_length - 2.0 * grid.dx
    for track, row in zip(tracks, rows):
        track.edge_contaminated |= abs(row[0]) > edge
        track.times.append(t)
        for name, value in zip(_CHANNELS, row):
            getattr(track, name).append(value)
        track.reliable.append(not track.edge_contaminated and abs(row[2]) < SLOPE_RELIABLE_LIMIT)


def _append_pde_samples(tracks: list[CharacteristicTrack], q: np.ndarray, aux: TrackAux) -> None:
    uq = interp(aux.u, q)
    wq = interp(aux.ux, q)
    lam = aux.lam
    # u^2 + h(u) at the point itself, so this route stays off the spectral
    # kernel; the cube is Python's, which rounds unlike numpy's x ** 3
    local = uq * uq + (np.array([x ** 3 for x in uq.tolist()]) - 1.5 * uq * uq)
    _append_samples(
        tracks, aux.u.grid, aux.t, q, uq, wq,
        interp(aux.conv_diff, q) - lam * uq,
        -0.5 * wq * wq + local - interp(aux.conv_sum, q) - lam * wq,
        interp(aux.rhs_field, q) + uq * wq,
        interp(aux.slope_field, q) + uq * interp(aux.uxx, q))


def start_track(seed: float, aux: TrackAux) -> CharacteristicTrack:
    track = CharacteristicTrack(seed=float(seed))
    _append_pde_samples([track], np.array([track.seed]), aux)
    return track


def advance(tracks: list[CharacteristicTrack], aux_before: TrackAux, aux_after: TrackAux) -> None:
    """One Heun step of q' = u(q, t) for every track at once, then sample
    the new state's fields. Each point's interp sum is its own, so every
    track gets what a step of it alone would give, bit for bit."""
    dt = aux_after.t - aux_before.t
    q = np.array([tr.positions[-1] for tr in tracks])
    v0 = interp(aux_before.u, q)
    v1 = interp(aux_after.u, q + dt * v0)
    _append_pde_samples(tracks, q + 0.5 * dt * (v0 + v1), aux_after)


def advance_frozen(track: CharacteristicTrack, t_start: float, dt: float,
                   drift: Field, forcing: Field, profile: DissipationProfile,
                   k1: np.ndarray | None = None) -> np.ndarray:
    """One RK4 step of the closed track system against frozen fields.

    Past the resolvability horizon the Eulerian fields stop moving but the
    track still obeys its own proven ODEs: q' = v, v' = drift(q) - lambda v,
    w' = -w^2/2 + forcing(q) - lambda w, with drift = (P+ - P-) * F and
    forcing = u^2 + h(u) - P * F evaluated at the freeze time. The state is
    one (q, v, w) vector; each stage reads drift and forcing at q in one
    interp call. The laws are written once, in the stage f: the new sample's
    rhs_u and rhs_ux are entries 1 and 2 of f at the new state, which is
    returned; handed back as k1, it is the next step's first stage.
    """
    def f(t, state):
        q, v, w = state
        lam = profile.rate(t)
        d, b = interp((drift, forcing), q)
        return np.array([v, d - lam * v, -0.5 * w * w + b - lam * w])

    y = np.array([track.positions[-1], track.u_vals[-1], track.ux_vals[-1]])
    y = rk4(f, t_start, y, dt, k1)
    t_new = t_start + dt
    k = f(t_new, y)
    # the spectral route needs live fields; no second route while frozen
    _append_samples([track], drift.grid, t_new,
                    *np.array([*y, k[1], k[2], math.nan, math.nan])[:, None])
    return k


@dataclass(frozen=True)
class LemmaResidual:
    """Consistency of a track's stored series with its transport laws.

    All four numbers are normalized by max(1, |channel value|) sample by
    sample: for smooth tracks that is the absolute residual, while on a
    blowing-up track it stays meaningful (the raw finite-difference error
    grows like the cube of the slope while the channel grows like its
    square).
    """

    max_resid_u: float     # |d/dt u(q) - stored rhs| by 3-point differencing
    max_resid_ux: float
    route_gap_u: float     # quadrature route vs spectral route
    route_gap_ux: float
    n_checked: int


def lemma_residual(track: CharacteristicTrack) -> LemmaResidual:
    ts, us, ws, ru, rw, rua, rwa = (np.asarray(getattr(track, name), dtype=float) for name in (
        "times", "u_vals", "ux_vals", "rhs_u", "rhs_ux", "rhs_u_alt", "rhs_ux_alt"))
    ok = np.asarray(track.reliable, dtype=bool)
    # 3-point derivative at each interior sample whose neighbours are reliable too
    i = np.flatnonzero(ok[:-2] & ok[1:-1] & ok[2:]) + 1
    t0, t1, t2 = ts[i - 1], ts[i], ts[i + 1]
    d0 = (t1 - t2) / ((t0 - t1) * (t0 - t2))
    d1 = 1.0 / (t1 - t0) + 1.0 / (t1 - t2)
    d2 = (t1 - t0) / ((t2 - t0) * (t2 - t1))
    gap = ok & np.isfinite(rua)

    def worst(diff, scale):
        # NaN terms are skipped, so they never raise the maximum
        return float(np.fmax.reduce(np.abs(diff) / np.fmax(1.0, np.abs(scale)), initial=0.0))

    return LemmaResidual(
        worst(us[i - 1] * d0 + us[i] * d1 + us[i + 1] * d2 - ru[i], ru[i]),
        worst(ws[i - 1] * d0 + ws[i] * d1 + ws[i + 1] * d2 - rw[i], rw[i]),
        worst(ru[gap] - rua[gap], ru[gap]),
        worst(rw[gap] - rwa[gap], rw[gap]),
        i.size)


def diffeo_factor(track: CharacteristicTrack) -> np.ndarray:
    """exp of the running time integral of u_x along the track.

    This is dq/dseed for the flow map; positive and finite exactly while
    the track stays ahead of breaking.
    """
    ts = np.asarray(track.times)
    ws = np.asarray(track.ux_vals)
    if ts.size == 0:
        return np.empty(0)
    steps = 0.5 * (ws[1:] + ws[:-1]) * np.diff(ts)
    return np.exp(np.concatenate(([0.0], np.cumsum(steps))))
