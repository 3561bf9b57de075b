"""Time integration, breaking detection, and the certified slope continuation.

A run has two phases. While the front is resolvable the band-limited
Galerkin system is integrated with RK4 under speed, slope and damping step
caps. No fixed grid can follow the slope minimum to -1e6: the front's width
shrinks like 1/m^2, so the Eulerian phase ends when spectral mass reaches
the top octave of the band. At that moment the run checks a certificate:
the measured minimum slope must already be past the supercritical threshold
computed from the *current* energy, which pins the remaining dynamics to
the monotone slope collapse m' = -m^2/2 - lambda m + B with B bounded.
Certified runs then integrate that closed law (and each track's own closed
system) against the frozen fields until the stop threshold, which is where
the blow-up time and rate are read off. An uncertified loss of resolution
is flagged, never silently continued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .characteristics import (
    CharacteristicTrack,
    TrackAux,
    advance,
    advance_frozen,
    build_aux,
    start_track,
)
from .criteria import forcing_constant, slope_threshold
from .diagnostics import DiagnosticsRecord
from .errors import EdgeDecayError, NumericsError
from .grid import (
    Field,
    Grid,
    deriv,
    from_spectrum,
    h1_norm_sq,
    interp,
    smoothed_edge_decay,
    tail_fraction,
)
from .model import (
    DissipationProfile,
    InitialDatum,
    _bounded_forcing_hat,
    _nonlinear_spectra,
    make_datum,
    rhs,
)
from .riccati import rk4

# largest max|lambda| * dt of a live step; RK4's error in exp(-2 lambda dt)
# is (lambda dt)^5 / 60 per step, 5.3e-11 here
DAMPING_STEP = 0.02
TAIL_TOL = 1.0e-6   # top-octave spectral mass past which the front is unresolved
# the switch level is this times the supercritical threshold: at least 1,
# or the frozen law would be continued without a certificate
COLLAPSE_MARGIN = 1.05
DT_MIN = 1.0e-12    # a halved step below this is an underflow


@dataclass(frozen=True)
class RunConfig:
    """One run: grid, datum, damping, horizon and the step controls.

    Every value is checked here, on construction, so a config file with a
    bad value is rejected when it is read. The checks are written so that
    NaN fails them. The number fields are a config file's [solver] keys.
    """

    grid: Grid
    datum: InitialDatum
    profile: DissipationProfile
    t_end: float
    cfl_factor: float = 0.3
    c_m: float = 0.2    # dt <= c_m / max(1, |min slope|)
    m_stop: float = -1.0e6   # the slope level that ends a run
    seeds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be finite and >= 0")
        if not (0.0 < self.cfl_factor <= 1.0):
            raise ValueError("cfl_factor must lie in (0, 1]")
        if not (self.c_m > 0.0 and math.isfinite(self.c_m)):
            raise ValueError("c_m must be finite and > 0")
        if not self.m_stop < 0.0:
            raise ValueError("m_stop must be negative")
        half = self.grid.half_length
        if not all(-half <= s < half for s in self.seeds):
            raise ValueError(f"seeds must be finite and lie in [-L, L), L = {half:g}")
        if not -half <= self.datum.center < half:
            # a datum centred outside samples as zeros, which pass every edge check
            raise ValueError(f"datum center must lie in [-L, L), L = {half:g}")
        if self.datum.family == "samples" and len(self.datum.values) != self.grid.n_points:
            raise ValueError(f"samples datum has {len(self.datum.values)} values, "
                             f"grid wants {self.grid.n_points}")
        self.profile.validate_horizon(self.t_end)

    def with_refinement(self) -> RunConfig:
        """Same run with twice the grid points. Every other value, the CFL
        number included, is kept, so dt scales with dx."""
        return replace(self, grid=Grid(self.grid.half_length, 2 * self.grid.n_points))


@dataclass
class SolverState:
    t: float
    u: Field
    step_index: int = 0
    last_dt: float = 0.0
    halvings: int = 0    # dt halvings over all accepted steps


@dataclass
class RunOutcome:
    kind: str
    t_final: float
    records: list
    tracks: list
    energy0: float
    dissipative: bool
    t_switch: float | None = None
    m_switch: float | None = None
    frozen_forcing: float | None = None   # scalar forcing of the continued slope law
    resolution_degraded: bool = False
    live_steps: int = 0         # accepted RK4 steps of the band-limited system
    dt_halvings: int = 0        # halvings inside those accepted steps
    continued_steps: int = 0    # steps of the frozen-field continuation


def _rk4(u: Field, t: float, dt: float, profile: DissipationProfile,
         k1: Field | None = None) -> Field:
    return rk4(lambda s, v: rhs(v, s, profile), t, u, dt, k1)


def step(state: SolverState, cfg: RunConfig, aux: TrackAux | None = None) -> SolverState:
    """One accepted RK4 step.

    dt = min(cfl dx / sup|u|, c_m / max(1, |m|), DAMPING_STEP / max|lambda|,
    horizon), where max|lambda| is the exact max(|inf lambda|, |sup lambda|)
    on [0, t_end], so a negative lambda is capped too. The zero state steps
    cfl dx. A step producing non-finite values is rejected and retried at
    dt/2; underflow past DT_MIN raises NumericsError. A step that lands on
    a horizon closer than DT_MIN is no underflow, but its halvings can be.

    aux, when given, is build_aux of this state at its time. Its ux gives m
    and its rhs_field is RK4's first stage, for every try at this state:
    both equal what the step would compute, bit for bit, so the step returns
    the same state without its own deriv and first rhs.
    """
    u = state.u
    halvings = state.halvings
    grid = u.grid
    sup = u.max_abs
    ux, k1 = (deriv(u), None) if aux is None else (aux.ux, aux.rhs_field)
    m = float(np.min(ux.values))
    lam_max = max(map(abs, cfg.profile._extremes(cfg.t_end)))
    dt = min(
        cfg.cfl_factor * grid.dx / (sup if sup > 0.0 else 1.0),
        cfg.c_m / max(1.0, abs(m)),
        DAMPING_STEP / lam_max if lam_max > 0.0 else math.inf,
        cfg.t_end - state.t,
    )
    while True:
        if dt < min(DT_MIN, cfg.t_end - state.t):
            raise NumericsError(f"time step underflow at t={state.t:.6g}")
        candidate = _rk4(u, state.t, dt, cfg.profile, k1)
        if np.all(np.isfinite(candidate.values)):
            return SolverState(state.t + dt, candidate, state.step_index + 1, dt, halvings)
        dt *= 0.5
        halvings += 1


def _record(state_t, energy, m, x_at, sup, dt, profile) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        t=state_t, energy=energy, min_slope=m, x_at_min=x_at,
        sup_abs=sup, dt=dt, lam_integral=profile.integral(state_t))


def _measure(u: Field, aux: TrackAux | None = None) -> tuple[float, int, float]:
    """(minimum slope, its grid index, H^1 energy) of a live state.

    aux, when given, is build_aux of u: its ux is deriv(u) bit for bit, so
    the numbers are the same. Without one, h1_norm_sq still takes its own
    deriv, so the untracked live step keeps its pinned transform count
    (ROADMAP item 1).
    """
    ux = deriv(u) if aux is None else aux.ux
    j = int(np.argmin(ux.values))
    return float(ux.values[j]), j, h1_norm_sq(u, None if aux is None else ux)


def run(cfg: RunConfig, sink=None) -> RunOutcome:
    """Integrate to the horizon or through certified breaking.

    sink, when given, is called as sink(record, live) for each
    DiagnosticsRecord as it is produced; live is the state at the record's
    time, or None once the run has switched to the frozen-field continuation.
    """
    profile = cfg.profile
    u = make_datum(cfg.datum, cfg.grid)
    records: list[DiagnosticsRecord] = []
    tracks: list[CharacteristicTrack] = []
    aux = None   # build_aux of the current state, in a run with tracks
    if cfg.seeds:
        aux = build_aux(u, 0.0, profile)
        tracks = [start_track(s, aux) for s in cfg.seeds]
    m, j, energy = _measure(u, aux)
    outcome = RunOutcome(
        kind="reached_horizon", t_final=0.0, records=records, tracks=tracks,
        energy0=energy, dissipative=profile.is_dissipative(cfg.t_end))

    def emit(t, energy, m, x_at, sup, dt, live) -> None:
        rec = _record(t, energy, m, x_at, sup, dt, profile)
        records.append(rec)
        if sink is not None:
            sink(rec, live)

    def emit_live(state, m, j, energy) -> None:
        emit(state.t, energy, m, float(cfg.grid.x[j]), state.u.max_abs, state.last_dt, state.u)

    state = SolverState(0.0, u)
    emit_live(state, m, j, energy)
    stop = None
    while stop is None and state.t < cfg.t_end * (1.0 - 1e-14):
        try:
            state = step(state, cfg, aux)
        except NumericsError:
            stop = "dt_underflow"
            break
        u = state.u
        aux_new = None
        if not smoothed_edge_decay(u):
            stop = "edge_decay_lost"
        elif aux is not None:
            try:
                aux_new = build_aux(u, state.t, profile)
            except EdgeDecayError:
                # the track channels need the one-sided kernels; once their
                # input stops decaying the tracks end, and the run goes on
                # as it would have without them
                for track in tracks:
                    track.stopped_at = track.times[-1]
            else:
                advance(tracks, aux, aux_new)
        aux = aux_new   # None from here on once the tracks have ended
        m, j, energy = _measure(u, aux)
        if stop is None and m <= cfg.m_stop:
            stop = "breaking_detected"
        if stop is None and tail_fraction(u) > TAIL_TOL:
            certified_level = COLLAPSE_MARGIN * slope_threshold(
                profile.delta_sup, forcing_constant(energy))
            if m < certified_level:
                stop = "collapse"    # certified: continue against the frozen fields
            else:
                outcome.resolution_degraded = True
        emit_live(state, m, j, energy)

    t_final = state.t
    outcome.live_steps, outcome.dt_halvings = state.step_index, state.halvings
    if stop == "collapse":
        stop, t_final = _continue_collapse(cfg, outcome, emit, state, m, j, energy)
    elif stop is None:
        stop = "reached_horizon"   # horizon reached in the Eulerian phase
    outcome.kind, outcome.t_final = stop, t_final
    return outcome


def _continue_collapse(cfg: RunConfig, outcome: RunOutcome, emit, state: SolverState,
                       m: float, j: int, energy_sw: float) -> tuple[str, float]:
    """Integrate the closed slope law against the frozen fields.

    Entered only under the certificate: the slope minimum is supercritical
    for the current energy, so it decreases monotonically to -inf and the
    bounded forcing stays bounded by the (frozen) forcing_constant. Returns
    the outcome kind and the final time. The tracks that have not ended
    (stopped_at is None) go on: once the final time is known, each marches
    to it alone (_march_frozen), so its steps follow its own slope and its
    bits do not depend on the others.
    """
    profile = cfg.profile
    outcome.t_switch = state.t
    outcome.m_switch = m
    u_frozen = state.u
    grid = cfg.grid
    s = _nonlinear_spectra(grid, u_frozen.values)
    b_field = from_spectrum(grid, _bounded_forcing_hat(s))
    b_at_front = float(b_field.values[j])
    outcome.frozen_forcing = b_at_front
    xi = float(grid.x[j])
    sup_frozen = u_frozen.max_abs
    lam_int_sw = profile.integral(state.t)

    def m_rate(t, y):
        return -0.5 * y * y - profile.rate(t) * y + b_at_front

    t = state.t
    while m > cfg.m_stop and t < cfg.t_end * (1.0 - 1e-14):
        dt = min(cfg.c_m / max(1.0, abs(m)), cfg.t_end - t)
        m = rk4(m_rate, t, m, dt)
        # front location rides the frozen velocity field
        v_xi = interp(u_frozen, xi)
        xi = xi + dt * 0.5 * (v_xi + interp(u_frozen, xi + dt * v_xi))
        t += dt
        outcome.continued_steps += 1
        law_energy = math.exp(-2.0 * (profile.integral(t) - lam_int_sw)) * energy_sw
        emit(t, law_energy, m, xi, sup_frozen, dt, None)
    marching = [track for track in outcome.tracks if track.stopped_at is None]
    if marching:
        drift = from_spectrum(grid, s.drift)   # (P+ - P-) * F
        for track in marching:
            _march_frozen(track, state.t, t, drift, b_field, cfg)
    return ("breaking_detected" if m <= cfg.m_stop else "reached_horizon"), t


def _march_frozen(track: CharacteristicTrack, t: float, t_final: float, drift: Field,
                  forcing: Field, cfg: RunConfig) -> None:
    """March one track alone to t_final in steps c_m / max(1, |w|) of its own
    slope w, handing each stage on; w at m_stop or not finite ends it (stopped_at)."""
    k1 = None
    while t < t_final * (1.0 - 1e-14):
        if not track.ux_vals[-1] > cfg.m_stop:
            track.stopped_at = track.times[-1]
            return
        dt = min(cfg.c_m / max(1.0, abs(track.ux_vals[-1])), t_final - t)
        k1 = advance_frozen(track, t, dt, drift, forcing, cfg.profile, k1)
        t += dt
