"""Command line front end.

Subcommands: simulate (one run from a config file), criteria (evaluate the
breaking criteria for a config's datum), riccati (the comparison problems
standalone), sweep (a batch of runs over datum cells), version.

Exit codes: 0 success, 2 configuration error or unwritable output, 3 run
failure (step underflow, loss of edge decay, failed search, a riccati march
past its step cap, any failed sweep cell, or running out of memory).
Machine outputs are deterministic: CSV floats use repr (shortest round-trip
form), JSON is sorted and newline-terminated, and wall-clock time goes to
the console only, never into files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .characteristics import diffeo_factor, lemma_residual
from .config import emit_config, load_config
from .criteria import check_criterion1, check_criterion2
from .diagnostics import estimate_blowup, track_rate
from .errors import ChbreakError, ConfigError
from .model import DissipationProfile, make_datum
from .riccati import omega_bound, solve_coupled, solve_omega, two_sided_bound
from .solver import RunConfig, run
from .svg import Series, write_line_chart

CSV_COLUMNS = ("t", "E", "m", "x_argmin", "sup_abs_u", "dt", "lambda_int")
# run outcomes that make simulate, or a sweep cell, fail
FAILED_OUTCOMES = ("dt_underflow", "edge_decay_lost")
# glibc mallopt parameters (malloc.h) and the values main() sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20   # glibc's ceiling on 64-bit hosts
_TRIM_THRESHOLD = 64 << 20


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@contextlib.contextmanager
def _writable(path: str):
    """Report an output path that cannot be written as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False)
    with _writable(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _csv_cell(value) -> str:
    """One CSV cell: None is empty, a bool lowercase, a float its repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _record_row(rec) -> list:
    return [_csv_cell(v) for v in (rec.t, rec.energy, rec.min_slope, rec.x_at_min,
                                   rec.sup_abs, rec.dt, rec.lam_integral)]


def _run_summary(cfg: RunConfig, outcome, est) -> dict:
    report1, report2 = _criteria_reports(cfg)
    t_star = None if est is None else est.t_star

    def within(bound):
        return None if t_star is None or bound is None else bool(t_star <= bound)

    location_check = None
    if report2.satisfied and report2.location is not None and outcome.records:
        lo, hi = report2.location
        x_final = outcome.records[-1].x_at_min
        location_check = {"interval": report2.location, "x_argmin_final": x_final,
                          "inside": bool(lo <= x_final <= hi)}
    return {
        "version": __version__,
        "outcome": outcome.kind,
        "t_final": outcome.t_final,
        "t_switch": outcome.t_switch,
        "m_switch": outcome.m_switch,
        "frozen_forcing": outcome.frozen_forcing,
        "resolution_degraded": outcome.resolution_degraded,
        "dissipative": outcome.dissipative,
        "energy0": outcome.energy0,
        "n_records": len(outcome.records),
        "steps": {"live": outcome.live_steps, "dt_halvings": outcome.dt_halvings,
                  "continued": outcome.continued_steps, "records": len(outcome.records)},
        "grid": {"half_length": cfg.grid.half_length, "n_points": cfg.grid.n_points},
        "t_end": cfg.t_end,
        "criterion1": report1,
        "criterion2": report2,
        "blowup": est,
        "bound_checks": {"t_star": t_star, "t1_bound": report1.t_bound,
                         "t2_bound": report2.t_bound,
                         "t_star_le_t1": within(report1.t_bound),
                         "t_star_le_t2": within(report2.t_bound)},
        "location_check": location_check,
        "tracks": [
            {"seed": tr.seed, "n_samples": tr.n_samples,
             "edge_contaminated": tr.edge_contaminated, "stopped_at": tr.stopped_at,
             "final_position": tr.positions[-1], "final_slope": tr.ux_vals[-1],
             "evidence": lemma_residual(tr), "min_flow_factor": np.min(diffeo_factor(tr)),
             "blowup": track_rate(tr.times, tr.ux_vals)}
            for tr in outcome.tracks
        ],
        "config": emit_config(cfg),
    }


def _criteria_reports(cfg: RunConfig):
    """Both breaking criteria for the config's gridded datum."""
    u0 = make_datum(cfg.datum, cfg.grid)
    delta = cfg.profile.delta_sup
    return check_criterion1(u0, delta), check_criterion2(u0, delta)


def _write_plots(plots_dir: str, outcome, est) -> None:
    os.makedirs(plots_dir, exist_ok=True)
    ts = tuple(r.t for r in outcome.records)
    ms = tuple(r.min_slope for r in outcome.records)
    es = tuple(r.energy for r in outcome.records)
    law = tuple(math.exp(-2.0 * r.lam_integral) * outcome.energy0 for r in outcome.records)
    write_line_chart(
        os.path.join(plots_dir, "slope_min.svg"),
        "minimum slope", "t", "m(t)", [Series("m", ts, ms)])
    recip = tuple(-1.0 / m if m < 0 else math.nan for m in ms)
    series = [Series("-1/m", ts, recip)]
    if est is not None:
        line = tuple((est.t_star - t) / (-est.rate) for t in ts)
        series.append(Series("fit", ts, line, dashed=True))
    write_line_chart(
        os.path.join(plots_dir, "reciprocal_slope.svg"),
        "reciprocal slope and linear fit", "t", "-1/m", series)
    write_line_chart(
        os.path.join(plots_dir, "energy_law.svg"),
        "energy vs decay law", "t", "E(t)",
        [Series("measured", ts, es), Series("law", ts, law, dashed=True)])


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sink = None
    csv_fh = None
    if args.records_csv:
        with _writable(args.records_csv):
            csv_fh = open(args.records_csv, "w", encoding="utf-8", newline="")
        writer = csv.writer(csv_fh)
        writer.writerow(CSV_COLUMNS)
        sink = lambda rec, _live: writer.writerow(_record_row(rec))
    started = time.perf_counter()
    try:
        outcome = run(cfg, sink=sink)
    finally:
        if csv_fh is not None:
            csv_fh.close()
    elapsed = time.perf_counter() - started
    est = estimate_blowup(outcome.records)
    if args.summary_json:
        _write_json(args.summary_json, _run_summary(cfg, outcome, est))
    if args.plots_dir:
        with _writable(args.plots_dir):
            _write_plots(args.plots_dir, outcome, est)
    print(f"outcome: {outcome.kind}")
    print(f"t_final: {outcome.t_final!r}")
    if outcome.t_switch is not None:
        print(f"t_switch: {outcome.t_switch!r}  m_switch: {outcome.m_switch!r}")
    if outcome.resolution_degraded:
        print("warning: resolution degraded without a breaking certificate")
    if est is not None:
        print(f"t_star: {est.t_star!r}  rate: {est.rate!r}  "
              f"fit_residual: {est.fit_residual!r}")
    print(f"elapsed: {elapsed:.3f} s ({len(outcome.records)} records)")
    if outcome.kind in FAILED_OUTCOMES:
        print(f"error: run ended with {outcome.kind}", file=sys.stderr)
        return 3
    return 0


def _cmd_criteria(args) -> int:
    cfg = load_config(args.config)
    r1, r2 = _criteria_reports(cfg)
    for rep in (r1, r2):
        verdict = "satisfied" if rep.satisfied else "not satisfied"
        print(f"{rep.kind}: {verdict}")
        print(f"  energy: {rep.energy!r}  forcing_bound: {rep.forcing_bound!r}")
        print(f"  threshold: {rep.threshold!r}  extreme: {rep.extreme!r}  "
              f"margin: {rep.margin!r}")
        if rep.t_bound is not None:
            print(f"  t_bound: {rep.t_bound!r}")
        if rep.location is not None:
            print(f"  location: [{rep.location[0]!r}, {rep.location[1]!r}]")
    if args.json:
        _write_json(args.json, {"criterion1": r1, "criterion2": r2,
                                "version": __version__})
    return 0


def _cmd_riccati(args) -> int:
    for flag, values in (("--delta", [args.delta]), ("--forcing", [args.forcing]),
                         ("--omega0", args.omega0), ("--rising0", [args.rising0]),
                         ("--falling0", [args.falling0])):
        _need_values(flag, values)
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{flag} must be finite")
    if args.delta * args.delta + 2.0 * args.forcing < 0.0:
        raise ConfigError("--forcing must be at least -delta^2/2: below that the "
                          "comparison problem has no threshold")
    if not (args.t_max > 0.0 and math.isfinite(args.t_max)):
        raise ConfigError("--t-max must be finite and > 0")
    rows = []
    if args.coupled:
        traj = solve_coupled(args.delta, args.forcing, args.rising0, args.falling0,
                             t_max=args.t_max)
        g0 = math.sqrt(-args.rising0 * args.falling0)
        bound = two_sided_bound(args.delta, args.forcing, g0)
        rows.append(("coupled", args.falling0, traj.blew_up, traj.t_blowup, bound,
                     traj.g_margin))
    else:
        for w0 in args.omega0:
            traj = solve_omega(args.delta, args.forcing, w0, t_max=args.t_max)
            bound = omega_bound(args.delta, args.forcing, w0)
            rows.append(("scalar", w0, traj.blew_up, traj.t_blowup, bound, None))
    lines = [["case", "start", "blew_up", "t_numeric", "t_bound", "g_margin"]]
    lines += [[_csv_cell(v) for v in row] for row in rows]
    for line in lines:
        print(",".join(line))
    if args.csv:
        with _writable(args.csv), open(args.csv, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(lines)
    return 0


SWEEP_COLUMNS = ("index", "family", "amplitude", "width", "delta", "energy",
                 "forcing_bound", "threshold", "min_slope", "criterion1",
                 "t_bound", "outcome", "t_final", "t_switch", "t_star", "rate",
                 "status")


def _sweep_cell(packed):
    index, template, amplitude, width, delta = packed
    try:
        datum = dataclasses.replace(template.datum, amplitude=amplitude, width=width)
        profile = template.profile
        if delta is not None:
            profile = DissipationProfile.constant(delta)
        cfg = dataclasses.replace(template, datum=datum, profile=profile)
        rep = check_criterion1(make_datum(datum, cfg.grid), profile.delta_sup)
        outcome = run(cfg)
        est = estimate_blowup(outcome.records)
        return {
            "index": index, "family": datum.family, "amplitude": amplitude,
            "width": width, "delta": profile.delta_sup, "energy": rep.energy,
            "forcing_bound": rep.forcing_bound, "threshold": rep.threshold,
            "min_slope": rep.slope_at_point, "criterion1": rep.satisfied,
            "t_bound": rep.t_bound, "outcome": outcome.kind,
            "t_final": outcome.t_final, "t_switch": outcome.t_switch,
            "t_star": None if est is None else est.t_star,
            "rate": None if est is None else est.rate,
            "status": f"failed: {outcome.kind}" if outcome.kind in FAILED_OUTCOMES else "ok",
        }
    except ChbreakError as exc:
        row = dict.fromkeys(SWEEP_COLUMNS)
        row.update(index=index, family="", amplitude=amplitude, width=width,
                   delta=delta, status=f"error: {exc}")
        return row


def _workers(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    if hasattr(os, "sched_getaffinity"):   # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_sweep(args) -> int:
    for flag, values in (("--amplitudes", args.amplitudes), ("--widths", args.widths),
                         ("--deltas", args.deltas)):
        _need_values(flag, values)

    def constant_template(profile):   # each cell's RunConfig checks its own profile
        if profile.kind != "constant":
            raise ConfigError("--deltas requires a constant dissipation profile")
        return DissipationProfile.constant(*profile.params)
    cfg = load_config(args.config, constant_template if args.deltas else None)
    if cfg.datum.family == "samples":
        raise ConfigError("sweep needs an analytic datum family as the template")
    deltas = args.deltas if args.deltas else [None]
    cells = []
    index = 0
    for delta in deltas:
        for amplitude in args.amplitudes:
            for width in args.widths:
                cells.append((index, cfg, amplitude, width, delta))
                index += 1
    # a fork pool starts all its workers at the first submit
    workers = max(1, min(_workers(args.workers), len(cells)))
    started = time.perf_counter()
    if workers == 1:
        rows = [_sweep_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    elapsed = time.perf_counter() - started

    with _writable(args.csv or "<stdout>"), (
            open(args.csv, "w", encoding="utf-8", newline="") if args.csv
            else contextlib.nullcontext(sys.stdout)) as out_fh:
        writer = csv.writer(out_fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in SWEEP_COLUMNS])
    n_bad = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} cells, {n_bad} failed, {elapsed:.3f} s",
          file=sys.stderr)
    return 0 if n_bad == 0 else 3


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _need_values(flag: str, values: list[float] | None) -> None:
    """An empty list option would run nothing and still exit 0."""
    if values == []:
        raise ConfigError(f"{flag} needs at least one value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbreak",
        description="Spectral laboratory for wave breaking in a damped "
                    "Camassa-Holm-type equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured simulation")
    p_sim.add_argument("config")
    p_sim.add_argument("--records-csv", default=None)
    p_sim.add_argument("--summary-json", default=None)
    p_sim.add_argument("--plots-dir", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cri = sub.add_parser("criteria", help="evaluate the breaking criteria")
    p_cri.add_argument("config")
    p_cri.add_argument("--json", default=None)
    p_cri.set_defaults(func=_cmd_criteria)

    p_ric = sub.add_parser("riccati", help="solve the comparison problems")
    p_ric.add_argument("--delta", type=float, default=0.0)
    p_ric.add_argument("--forcing", type=float, required=True)
    p_ric.add_argument("--omega0", type=_float_list, default=[-3.0])
    p_ric.add_argument("--t-max", type=float, default=20.0)
    p_ric.add_argument("--coupled", action="store_true")
    p_ric.add_argument("--rising0", type=float, default=3.0,
                       help="start of the positive (u - u_x) component")
    p_ric.add_argument("--falling0", type=float, default=-3.0,
                       help="start of the negative (u + u_x) component")
    p_ric.add_argument("--csv", default=None)
    p_ric.set_defaults(func=_cmd_riccati)

    p_swp = sub.add_parser("sweep", help="batch runs over datum cells")
    p_swp.add_argument("config")
    p_swp.add_argument("--amplitudes", type=_float_list, required=True)
    p_swp.add_argument("--widths", type=_float_list, required=True)
    p_swp.add_argument("--deltas", type=_float_list, default=None)
    p_swp.add_argument("--workers", type=int, default=None,
                       help="cell parallelism (default: the CPUs this process may use)")
    p_swp.add_argument("--csv", default=None)
    p_swp.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("version", help="print the version")
    p_ver.set_defaults(func=lambda args: (print(f"chbreak {__version__}"), 0)[1])

    return parser


def _keep_arrays_on_the_heap() -> bool:
    """Stop glibc from handing the heap top back to the OS after every call.

    At N = 16384 each real array and each rfft spectrum is about 128 KiB,
    glibc's default mmap threshold, and one kernel call keeps about 1.5 MB of
    them alive. glibc's dynamic rule then leaves the trim threshold near
    264 KiB, so the heap shrinks after each call and the next call faults it
    back in. Fixing both thresholds (setting either one switches the dynamic
    rule off) keeps those pages. Only main() calls this: the CLI owns its
    process, sweep's forked workers inherit the setting, and library calls
    leave the allocator alone. Returns whether both settings took effect.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1])


def main(argv=None) -> int:
    _keep_arrays_on_the_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
