"""Whole-system acceptance checks, one verdict line per numbered item.

Heavy fixtures (width searches, refinement ladders) build once per module
and are shared across items. Verdict lines go through the terminal
reporter, bypassing capture, so the per-item summary is visible in any
run:

    acceptance  4 PASS: slope-criterion data break before the certified bound
"""

import math
import sys
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import pytest

from chbreak import (
    DissipationProfile,
    Field,
    Grid,
    InitialDatum,
    RunConfig,
    check_criterion2,
    conv_P_minus,
    conv_P_plus,
    deriv,
    diffeo_factor,
    emit_config,
    estimate_blowup,
    find_breaking_datum,
    forcing_constant,
    lemma_residual,
    make_datum,
    omega_bound,
    run,
    solve_omega,
    track_rate,
)
from chbreak.cli import main as cli_main
from reference import criterion2_at, helmholtz_inverse, second_deriv, slope_law_at_argmin

FINE = Grid(30.0, 4096)     # narrow search widths need this
EXTRA = Grid(30.0, 8192)    # the hand-picked mixed datum is narrower still

SLOPE_CASES = (
    ("gaussian_derivative", 0.0, 2.0),
    ("gaussian_derivative", 0.1, 2.0),
    ("gaussian_derivative", 0.5, 2.0),
    ("antisym_peak", 0.0, 1.0),
    ("antisym_peak", 0.1, 1.0),
)

RATE_BAND = (-2.2, -1.8)


_TERMINAL = None


@pytest.fixture(autouse=True)
def _grab_terminal(request):
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")


def _verdict(item: int, label: str, problems: list) -> None:
    line = f"acceptance {item:2d} {'PASS' if not problems else 'FAIL'}: {label}"
    if _TERMINAL is not None:
        _TERMINAL.write_line(line)
    else:
        print(line, file=sys.__stderr__)
    assert not problems, problems


@dataclass
class EnvelopeAudit:
    """Worst-case slope-law margins accumulated record by record."""

    k0: float = math.nan
    worst_slope_excess: float = -math.inf   # max of d/dt m minus its ceiling
    worst_forcing_ratio: float = 0.0        # max |H| over K0 + delta^2/2
    worst_b_ratio: float = 0.0              # max |B| over K0
    n_live: int = 0


def _audited_run(cfg: RunConfig):
    profile = cfg.profile
    delta = profile.delta_sup
    audit = EnvelopeAudit()

    def sink(rec, live):
        if math.isnan(audit.k0):
            audit.k0 = forcing_constant(rec.energy)
        if live is None:
            return
        envelope = (-profile.rate(rec.t) * rec.min_slope
                    - 0.5 * rec.min_slope ** 2 + audit.k0)
        m_rate, forcing = slope_law_at_argmin(live, profile.rate(rec.t))
        audit.worst_slope_excess = max(audit.worst_slope_excess, m_rate - envelope)
        audit.worst_forcing_ratio = max(
            audit.worst_forcing_ratio,
            abs(forcing) / (audit.k0 + 0.5 * delta * delta))
        lam = profile.rate(rec.t)
        audit.worst_b_ratio = max(audit.worst_b_ratio,
                                  abs(forcing - 0.5 * lam * lam) / audit.k0)
        audit.n_live += 1

    # the frozen slope ODE runs past the stop threshold by design; its
    # overflow to -inf on the last track samples is expected
    with np.errstate(over="ignore", invalid="ignore"):
        outcome = run(cfg, sink=sink)
    return outcome, audit


@dataclass
class BreakingCase:
    label: str
    delta: float
    t_bound: float
    levels: list = dataclass_field(default_factory=list)  # (cfg, outcome, est, audit)


@pytest.fixture(scope="module")
def slope_suite():
    started = time.perf_counter()
    cases = []
    for family, delta, amplitude in SLOPE_CASES:
        res = find_breaking_datum(family, delta, "slope_only", amplitude=amplitude)
        case = BreakingCase(f"{family}/delta={delta}", delta, res.t_bound)
        cfg = RunConfig(grid=FINE, datum=res.datum,
                        profile=DissipationProfile.constant(delta), t_end=4.0)
        for _ in range(3):
            outcome, audit = _audited_run(cfg)
            case.levels.append((cfg, outcome, estimate_blowup(outcome.records),
                                audit))
            cfg = cfg.with_refinement()
        cases.append(case)
    return cases, time.perf_counter() - started


@dataclass
class MixedCase:
    label: str
    report: object
    outcome: object
    estimate: object
    audit: EnvelopeAudit

    @property
    def track(self):
        return self.outcome.tracks[0]


@pytest.fixture(scope="module")
def mixed_suite():
    specs = [
        ("search", "gaussian_derivative", 0.0, 2.0, FINE, None),
        ("search", "antisym_peak", 0.1, 1.0, FINE, None),
        ("hand", "sech_squared", 0.0, None, EXTRA,
         InitialDatum(family="sech_squared", amplitude=0.2, width=0.05)),
    ]
    cases = []
    for origin, family, delta, amplitude, grid, datum in specs:
        if origin == "search":
            res = find_breaking_datum(family, delta, "mixed", amplitude=amplitude)
            datum = res.datum
            report = criterion2_at(make_datum(datum, grid), delta, res.point)
        else:
            report = check_criterion2(make_datum(datum, grid), delta)
        cfg = RunConfig(grid=grid, datum=datum,
                        profile=DissipationProfile.constant(delta), t_end=4.0,
                        seeds=(report.point,))
        outcome, audit = _audited_run(cfg)
        cases.append(MixedCase(f"{family}/delta={delta}", report, outcome,
                               estimate_blowup(outcome.records), audit))
    return cases


@pytest.fixture(scope="module")
def smooth_suite():
    grid = Grid(30.0, 1024)
    datum = InitialDatum(family="gaussian_derivative", amplitude=0.8, width=1.3)
    specs = (
        ("constant damping", DissipationProfile.constant(1.0),
         lambda t: t, 1e-7),
        ("no damping", DissipationProfile.constant(0.0),
         lambda t: 0.0, 1e-8),
        ("sinusoidal damping", DissipationProfile.sinusoidal(0.0, 1.0, 1.0),
         lambda t: 1.0 - math.cos(t), 1e-7),
    )
    out = []
    for label, profile, lam_integral, tol in specs:
        cfg = RunConfig(grid=grid, datum=datum, profile=profile, t_end=1.0)
        outcome, audit = _audited_run(cfg)
        out.append((label, outcome, audit, lam_integral, tol))
    return out


@pytest.fixture(scope="module")
def chars_suite():
    grid = Grid(30.0, 2048)
    datum = InitialDatum(family="gaussian_derivative", amplitude=0.8,
                         width=1.3, center=0.7)
    profile = DissipationProfile.sinusoidal(0.2, 0.2, 1.5)
    runs = []
    for cfl in (0.3, 0.15):
        cfg = RunConfig(grid=grid, datum=datum, profile=profile, t_end=0.5,
                        cfl_factor=cfl, seeds=(0.5, -1.0))
        outcome, audit = _audited_run(cfg)
        runs.append((outcome, audit))
    return runs


def test_01_energy_decay_law(smooth_suite):
    problems = []
    for label, outcome, _audit, lam_integral, tol in smooth_suite:
        if outcome.kind != "reached_horizon":
            problems.append(f"{label}: ended {outcome.kind}")
            continue
        worst = max(
            abs(r.energy - outcome.energy0 * math.exp(-2.0 * lam_integral(r.t)))
            / outcome.energy0 for r in outcome.records)
        if worst >= tol:
            problems.append(f"{label}: residual {worst:.3e} >= {tol:.0e}")
    _verdict(1, "energy follows the exact dissipation law", problems)


def test_02_helmholtz_and_split_kernels():
    problems = []
    grid = Grid(30.0, 1024)
    rng = np.random.default_rng(7)
    spec = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    spec[1:grid.kc] = rng.normal(size=grid.kc - 1) + 1j * rng.normal(size=grid.kc - 1)
    vals = np.fft.irfft(spec, n=grid.n_points)
    noise = Field(grid, vals / np.max(np.abs(vals)))

    inv = helmholtz_inverse(noise)
    recon = inv.values - second_deriv(inv).values
    rel = np.max(np.abs(recon - noise.values)) / np.max(np.abs(noise.values))
    if rel >= 1e-10:
        problems.append(f"helmholtz inverse identity off by {rel:.3e}")

    y = grid.x
    decaying = Field(grid, np.exp(-0.5 * y * y) * (1.0 + 0.3 * np.sin(2.0 * y)))
    plus = conv_P_plus(decaying)
    minus = conv_P_minus(decaying)
    whole = helmholtz_inverse(decaying)
    gap_sum = np.max(np.abs(plus.values + minus.values - whole.values))
    gap_diff = np.max(np.abs(minus.values - plus.values - deriv(whole).values))
    if gap_sum >= 1e-6:
        problems.append(f"split-kernel sum off by {gap_sum:.3e}")
    if gap_diff >= 1e-6:
        problems.append(f"split-kernel difference off by {gap_diff:.3e}")
    _verdict(2, "helmholtz inverse and one-sided kernels agree", problems)


def test_03_breaking_signature(slope_suite, mixed_suite):
    cases, _elapsed = slope_suite
    runs = [(f"{case.label}/N={cfg.grid.n_points}", outcome)
            for case in cases for cfg, outcome, _est, _audit in case.levels]
    runs += [(case.label, case.outcome) for case in mixed_suite]
    problems = []
    for label, outcome in runs:
        if outcome.kind != "breaking_detected":
            problems.append(f"{label}: ended {outcome.kind}")
            continue
        if outcome.records[-1].min_slope > -1e6:
            problems.append(f"{label}: final slope {outcome.records[-1].min_slope:.3e}")
        amp_cap = math.sqrt(2.0) / 2.0 * math.sqrt(outcome.energy0) + 1e-3
        worst_sup = max(r.sup_abs for r in outcome.records)
        if worst_sup > amp_cap:
            problems.append(f"{label}: sup {worst_sup:.6f} above cap {amp_cap:.6f}")
    _verdict(3, "slope diverges while the amplitude stays under the energy cap",
             problems)


def test_04_slope_criterion_and_bound(slope_suite):
    cases, elapsed = slope_suite
    problems = []
    if len(cases) < 5:
        problems.append(f"only {len(cases)} search data")
    for case in cases:
        stars = []
        for cfg, outcome, est, _audit in case.levels:
            if est is None:
                problems.append(f"{case.label}/N={cfg.grid.n_points}: no fit")
                continue
            stars.append(est.t_star)
            if est.t_star > case.t_bound * 1.02:
                problems.append(
                    f"{case.label}/N={cfg.grid.n_points}: t*={est.t_star:.4f} "
                    f"above bound {case.t_bound:.4f}")
        for a, b in zip(stars, stars[1:]):
            if abs(b - a) / stars[-1] >= 0.01:
                problems.append(f"{case.label}: refinement moved t* by "
                                f"{abs(b - a) / stars[-1]:.2%}")
    if elapsed > 600.0:
        problems.append(f"suite took {elapsed:.0f}s")
    _verdict(4, "slope-criterion data break before the certified bound", problems)


def test_05_blowup_rate(slope_suite):
    cases, _elapsed = slope_suite
    problems = []
    for case in cases:
        for cfg, _outcome, est, _audit in case.levels:
            label = f"{case.label}/N={cfg.grid.n_points}"
            if not RATE_BAND[0] <= est.rate <= RATE_BAND[1]:
                problems.append(f"{label}: rate {est.rate:.4f}")
            span = est.window[1] - est.window[0]
            if est.fit_residual >= 0.05 * span:
                problems.append(f"{label}: fit residual {est.fit_residual:.3e} "
                                f"vs window span {span:.3e}")
    _verdict(5, "blow-up rate is -2 with a tight reciprocal fit", problems)


def test_06_mixed_criterion(mixed_suite):
    problems = []
    if len(mixed_suite) < 3:
        problems.append(f"only {len(mixed_suite)} mixed data")
    for case in mixed_suite:
        ux = np.asarray(case.track.ux_vals, dtype=float)
        finite = ux[np.isfinite(ux)]
        if finite.size == 0 or finite.min() > -1e6:
            problems.append(f"{case.label}: track slope never diverged")
        if case.estimate.t_star > case.report.t_bound * 1.02:
            problems.append(f"{case.label}: t*={case.estimate.t_star:.4f} above "
                            f"bound {case.report.t_bound:.4f}")
        lo, hi = case.report.location
        x_final = case.outcome.records[-1].x_at_min
        if not lo <= x_final <= hi:
            problems.append(f"{case.label}: breaking at {x_final:.4f} outside "
                            f"[{lo:.4f}, {hi:.4f}]")
        fit = track_rate(case.track.times, case.track.ux_vals)
        if fit is None or not RATE_BAND[0] <= fit.rate <= RATE_BAND[1]:
            problems.append(f"{case.label}: track rate "
                            f"{None if fit is None else fit.rate}")
    _verdict(6, "mixed-criterion tracks break in the certified window and place",
             problems)


def test_07_comparison_principle(slope_suite):
    cases, _elapsed = slope_suite
    problems = []
    for case in cases:
        for cfg, outcome, _est, _audit in case.levels:
            ts = np.array([r.t for r in outcome.records])
            ms = np.array([r.min_slope for r in outcome.records])
            traj = solve_omega(case.delta, forcing_constant(outcome.energy0),
                               ms[0], t_max=5.0)
            # nan past the march's last sample, where omega has blown up
            omega = np.interp(ts, traj.ts, traj.values, left=np.nan, right=np.nan)
            fin = np.isfinite(omega)
            worst = float(np.max(ms[fin] - omega[fin]))
            if worst > 1e-3:
                problems.append(f"{case.label}/N={cfg.grid.n_points}: "
                                f"slope above comparison by {worst:.3e}")
    _verdict(7, "minimum slope stays below the scalar comparison solution",
             problems)


def test_08_riccati_suite():
    problems = []
    base = solve_omega(0.0, 0.0, -1.0)
    if not base.blew_up or abs(base.t_blowup - 2.0) > 1e-4:
        problems.append(f"pure-quadratic case blew at {base.t_blowup}")

    for delta in (0.0, 0.1, 0.25, 0.5, 1.0):
        for forcing in (0.0, 0.5, 1.0, 2.0, 4.0):
            root = -delta - math.sqrt(delta * delta + 2.0 * forcing)
            for offset in (0.1, 0.5, 2.0, 8.0):
                w0 = root - offset
                traj = solve_omega(delta, forcing, w0, t_max=30.0)
                bound = omega_bound(delta, forcing, w0)
                if not traj.blew_up:
                    problems.append(f"({delta},{forcing},{w0:.2f}) did not blow")
                elif traj.t_blowup > bound + 1e-3:
                    problems.append(f"({delta},{forcing},{w0:.2f}) at "
                                    f"{traj.t_blowup:.5f} above {bound:.5f}")

    # f' = f^2 - 1 from f0 = 2 maps onto the scalar problem via omega = -2f
    equality = solve_omega(0.0, 2.0, -4.0)
    target = 0.5 * math.log(3.0)
    if abs(equality.t_blowup - target) > 1e-3:
        problems.append(f"equality case blew at {equality.t_blowup:.5f} "
                        f"vs {target:.5f}")
    _verdict(8, "comparison problems respect their closed-form bounds", problems)


def test_09_characteristic_residuals(chars_suite):
    (coarse, _a0), (fine, _a1) = chars_suite
    problems = []
    for outcome, label in ((coarse, "coarse"), (fine, "fine")):
        if outcome.kind != "reached_horizon":
            problems.append(f"{label} run ended {outcome.kind}")
    for tr_c, tr_f in zip(coarse.tracks, fine.tracks):
        res_c, res_f = lemma_residual(tr_c), lemma_residual(tr_f)
        for channel, worse, better in (("u", res_c.max_resid_u, res_f.max_resid_u),
                                       ("ux", res_c.max_resid_ux, res_f.max_resid_ux)):
            if worse / better < 3.5:
                problems.append(f"track {tr_c.seed}: {channel} residual ratio "
                                f"{worse / better:.2f}")
    for outcome in (coarse, fine):
        for tr in outcome.tracks:
            factors = diffeo_factor(tr)
            if not (np.all(np.isfinite(factors)) and np.all(factors > 0.0)):
                problems.append(f"track {tr.seed}: flow-map factor degenerate")
    _verdict(9, "track dynamics residuals converge and the flow map stays "
                "a diffeomorphism", problems)


def test_10_slope_law_everywhere(slope_suite, mixed_suite, smooth_suite,
                                 chars_suite):
    cases, _elapsed = slope_suite
    audited = [(f"{case.label}/N={cfg.grid.n_points}", outcome, audit)
               for case in cases for cfg, outcome, _est, audit in case.levels]
    audited += [(case.label, case.outcome, case.audit) for case in mixed_suite]
    audited += [(label, outcome, audit)
                for label, outcome, audit, _li, _tol in smooth_suite]
    audited += [(f"chars/{i}", outcome, audit)
                for i, (outcome, audit) in enumerate(chars_suite)]
    problems = []
    for label, outcome, audit in audited:
        if audit.n_live == 0:
            problems.append(f"{label}: no live records audited")
            continue
        if audit.worst_slope_excess > 1e-6:
            problems.append(f"{label}: slope law violated by "
                            f"{audit.worst_slope_excess:.3e}")
        if audit.worst_forcing_ratio > 1.0 + 1e-6:
            problems.append(f"{label}: completed-square forcing at "
                            f"{audit.worst_forcing_ratio:.6f} of its ceiling")
        if outcome.frozen_forcing is not None and \
                abs(outcome.frozen_forcing) > audit.k0 * (1.0 + 1e-6):
            problems.append(f"{label}: frozen forcing {outcome.frozen_forcing:.4f} "
                            f"above {audit.k0:.4f}")
    _verdict(10, "slope derivative inequality and forcing ceiling hold at "
                 "every record", problems)


def test_11_deterministic_outputs(slope_suite, tmp_path_factory):
    cases, _elapsed = slope_suite
    base = tmp_path_factory.mktemp("accept")
    smooth_cfg = RunConfig(
        grid=Grid(30.0, 1024),
        datum=InitialDatum(family="gaussian_derivative", amplitude=0.8, width=1.3),
        profile=DissipationProfile.sinusoidal(0.0, 1.0, 1.0), t_end=1.0)
    breaking_cfg = cases[0].levels[0][0]
    problems = []
    for name, cfg in (("smooth", smooth_cfg), ("breaking", breaking_cfg)):
        ini = base / f"{name}.ini"
        ini.write_text(emit_config(cfg))
        replicas = []
        for tag in ("a", "b"):
            records = base / f"{name}_{tag}.csv"
            summary = base / f"{name}_{tag}.json"
            code = cli_main(["simulate", str(ini), "--records-csv", str(records),
                             "--summary-json", str(summary)])
            if code != 0:
                problems.append(f"{name}/{tag}: exit code {code}")
            replicas.append((records.read_bytes(), summary.read_bytes()))
        if replicas[0] != replicas[1]:
            problems.append(f"{name}: reruns differ")
    _verdict(11, "reruns reproduce byte-identical records and summaries",
             problems)


def test_forcing_constant_is_far_from_sharp_on_the_slope_suite(slope_suite):
    """K0 = forcing_constant(E0) bounds the slope forcing |B| from above, so a
    K that is too small shows only where some live state has |B| near K0.

    Over the 15 slope-suite runs (5 cases at N = 4096, 8192 and 16384) the
    largest |B| / K0 at the slope argmin is about 0.084 (gaussian_derivative,
    delta = 0.5), 0.052 for antisym_peak, and the largest |H| / (K0 +
    delta^2/2) is about 0.098. So the acceptance verdicts cannot see a
    factor-2 error in forcing_constant: half of K0 still bounds every B they
    read. Only test_criteria.py's test_forcing_constant_frozen guards the
    formula. This test fails once the suite's data come within a factor 2 of
    the ceiling, where that statement stops holding.
    """
    cases, _elapsed = slope_suite
    ratios = {f"{case.label}/N={cfg.grid.n_points}": audit.worst_b_ratio
              for case in cases for cfg, _outcome, _est, audit in case.levels}
    assert len(ratios) == 15 and all(r > 0.0 for r in ratios.values())
    assert max(ratios.values()) < 0.5, ratios
