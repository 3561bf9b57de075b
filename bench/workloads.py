"""The workloads: inputs made from a seed, the operations, and their gates.

Set-up (`prepare`) imports chbreak, builds the data, and writes one ini
file per operation plus `inputs.json`. Operations go through
`chbreak.cli.main` only. Gates reuse the tolerances of
tests/test_acceptance.py and compare each run against the certified
bounds, the other levels and the other iterations of the same invocation,
never against stored output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import replace
from pathlib import Path

WHY = {
    "ladder": "simulate on the slope-only acceptance datum at N=4096/8192/16384 "
              "refined by with_refinement(): the spectral kernel and the step "
              "count do nearly all the work",
    "tracked": "simulate at N=8192 with the default CFL and 9 characteristic "
               "tracks: mostly the characteristics layer, which the other "
               "workloads never touch",
    "sweep": "chbreak sweep of 18 short N=4096 cells on 2 workers: fixed "
             "per-cell costs and the process pool, where large-N kernel gains "
             "do not help",
}

HALF_LENGTH = 30.0
DELTA = 0.1
AMPLITUDE = 2.0
JITTER = 0.02            # seeds other than 0 scale widths, amplitudes, track seeds by up to 2%
TRACK_SEEDS = (-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4)
SWEEP_AMPLITUDES = (1.5, 2.0, 2.5)
SWEEP_WIDTHS = (0.1, 0.2, 0.5)
SWEEP_DELTAS = (0.0, 0.5)
SWEEP_WORKERS = 2
# first-level grid size per workload and ladder depth. "tiny" is for the
# smoke test: N=4096 is the coarsest grid that resolves these data.
SCALES = {
    "full": {"ladder": 4096, "ladder_levels": 3, "tracked": 8192, "sweep": 4096},
    "tiny": {"ladder": 4096, "ladder_levels": 2, "tracked": 4096, "sweep": 4096},
}

# gates, as in tests/test_acceptance.py
RATE_BAND = (-2.2, -1.8)
BOUND_SLACK = 1.02          # T* <= 1.02 * certified bound
REFINE_TOL = 0.01           # T* moves < 1% between ladder levels
T_STAR_REF = 1.0342         # ladder T* at N=16384 for the acceptance datum
FRONT_SLOPE = -1.0e6
FAILED_OUTCOMES = ("dt_underflow", "edge_decay_lost")


def _write_ini(path: Path, cfg) -> str:
    from chbreak import emit_config

    path.write_text(emit_config(cfg), encoding="utf-8")
    return str(path)


def prepare(workload: str, seed: int, scale: str, out_dir: Path) -> dict:
    """Build the inputs for one workload and write them under out_dir."""
    import chbreak.model
    from chbreak import (DissipationProfile, Grid, InitialDatum, RunConfig,
                         check_criterion1, make_datum)

    rng = random.Random(seed)

    def jitter(value: float) -> float:
        return value if seed == 0 else value * (1.0 + rng.uniform(-JITTER, JITTER))

    out_dir.mkdir(parents=True, exist_ok=True)
    n = SCALES[scale][workload]
    profile = DissipationProfile.constant(DELTA)
    inputs = {"workload": workload, "seed": seed, "scale": scale, "gates": {}}
    if workload == "sweep":
        template = RunConfig(
            grid=Grid(HALF_LENGTH, n), profile=profile, t_end=2.0,
            datum=InitialDatum("gaussian_derivative", amplitude=AMPLITUDE, width=0.1))
        ini = _write_ini(out_dir / "sweep.ini", template)
        argv = ["sweep", ini,
                "--amplitudes", " ".join(repr(jitter(a)) for a in SWEEP_AMPLITUDES),
                "--widths", " ".join(repr(jitter(w)) for w in SWEEP_WIDTHS),
                "--deltas", " ".join(repr(d) for d in SWEEP_DELTAS),
                "--workers", str(SWEEP_WORKERS)]
        cells = len(SWEEP_AMPLITUDES) * len(SWEEP_WIDTHS) * len(SWEEP_DELTAS)
        inputs["ops"] = [{"name": "sweep", "n": n, "argv": argv, "cells": cells}]
        inputs["workers"] = SWEEP_WORKERS
    else:
        res = chbreak.model.find_breaking_datum(
            "gaussian_derivative", DELTA, "slope_only", amplitude=AMPLITUDE)
        datum = replace(res.datum, width=jitter(res.datum.width))
        cfg = RunConfig(grid=Grid(HALF_LENGTH, n), datum=datum, profile=profile,
                        t_end=4.0)
        report = check_criterion1(make_datum(datum, cfg.grid), DELTA)
        if workload == "ladder":
            cfgs = []
            for _ in range(SCALES[scale]["ladder_levels"]):
                cfgs.append(cfg)
                cfg = cfg.with_refinement()
        else:
            seeds = tuple(s if s == 0.0 else jitter(s) for s in TRACK_SEEDS)
            cfgs = [replace(cfg, seeds=seeds)]
        inputs["ops"] = [
            {"name": f"N{c.grid.n_points}", "n": c.grid.n_points, "cells": 1,
             "argv": ["simulate", _write_ini(out_dir / f"N{c.grid.n_points}.ini", c)]}
            for c in cfgs]
        inputs["gates"] = {"t_bound": report.t_bound,
                           "t_star_ref": T_STAR_REF if scale == "full" else None}
    (out_dir / "inputs.json").write_text(json.dumps(inputs, indent=1), encoding="utf-8")
    return inputs


def execute(op: dict, out_dir: Path, captured: list) -> dict:
    """Run one operation through chbreak.cli.main, outputs written to out_dir."""
    from chbreak import cli

    out_dir.mkdir(parents=True)
    argv = list(op["argv"])
    if argv[0] == "simulate":
        files = {"records": out_dir / "records.csv", "summary": out_dir / "summary.json"}
        argv += ["--records-csv", str(files["records"]),
                 "--summary-json", str(files["summary"]),
                 "--plots-dir", str(out_dir / "plots")]
    else:
        files = {"sweep": out_dir / "sweep.csv"}
        argv += ["--csv", str(files["sweep"])]
    captured.clear()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:    # a crash is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {"op": op, "dir": out_dir, "files": files, "code": code,
            "elapsed": elapsed, "outcome": captured[-1] if captured else None}


def digest(out_dir: Path) -> str:
    """Hash of every file an operation wrote, for the rerun gate."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _in_band(rate) -> bool:
    return rate is not None and RATE_BAND[0] <= rate <= RATE_BAND[1]


def _simulate_summary(result: dict, problems: list):
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}")
        return None
    summary = json.loads(result["files"]["summary"].read_text(encoding="utf-8"))
    if summary["outcome"] != "breaking_detected":
        problems.append(f"ended {summary['outcome']}")
    return summary


def check_ladder(results: list, gates: dict) -> list[list[str]]:
    problems = [[] for _ in results]
    stars = []
    for result, probs in zip(results, problems):
        summary = _simulate_summary(result, probs)
        if summary is None:
            continue
        fit = summary["blowup"] or {}
        t_star, rate = fit.get("t_star"), fit.get("rate")
        if t_star is None:
            probs.append("no blow-up fit")
            continue
        stars.append(t_star)
        if t_star > BOUND_SLACK * gates["t_bound"]:
            probs.append(f"t*={t_star:.5f} above bound {gates['t_bound']:.5f}")
        if not _in_band(rate):
            probs.append(f"rate {rate}")
        cap = math.sqrt(2.0) / 2.0 * math.sqrt(summary["energy0"]) + 1e-3
        with open(result["files"]["records"], encoding="utf-8", newline="") as fh:
            sup = max(float(row["sup_abs_u"]) for row in csv.DictReader(fh))
        if sup > cap:
            probs.append(f"sup|u| {sup:.6f} above energy cap {cap:.6f}")
    if len(stars) == len(results):
        for i in range(1, len(stars)):
            moved = abs(stars[i] - stars[i - 1]) / stars[-1]
            if moved >= REFINE_TOL:
                problems[i].append(f"refinement moved t* by {moved:.2%}")
        ref = gates.get("t_star_ref")
        if ref is not None and abs(stars[-1] - ref) / ref >= REFINE_TOL:
            problems[-1].append(f"t*={stars[-1]:.5f} not within 1% of {ref}")
    return problems


def check_tracked(results: list, gates: dict) -> list[list[str]]:
    import numpy as np
    from chbreak import track_rate

    problems = [[] for _ in results]
    for result, probs in zip(results, problems):
        if _simulate_summary(result, probs) is None:
            continue
        outcome = result["outcome"]
        front = [tr for tr in outcome.tracks if tr.seed == 0.0] if outcome else []
        if not front:
            probs.append("no track seeded at the front")
            continue
        ux = np.asarray(front[0].ux_vals, dtype=float)
        finite = ux[np.isfinite(ux)]
        if finite.size == 0 or finite.min() > FRONT_SLOPE:
            probs.append("front track slope never diverged")
        fit = track_rate(front[0].times, front[0].ux_vals)
        if fit is None or not _in_band(fit.rate):
            probs.append(f"front track rate {None if fit is None else fit.rate}")
    return problems


def check_sweep(results: list, gates: dict) -> list[list[str]]:
    """One list of problems per cell. Cells ending edge_decay_lost or
    dt_underflow fail even though `chbreak sweep` marks them ok."""
    problems = []
    for result in results:
        path = result["files"]["sweep"]
        rows = []
        if path.exists():
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        cells = [[] for _ in range(result["op"]["cells"])]
        if len(rows) != len(cells):
            for probs in cells:
                probs.append(f"exit code {result['code']}, {len(rows)} rows")
            problems += cells
            continue
        for row, probs in zip(rows, cells):
            label = f"cell {row['index']}"
            if row["status"] != "ok":
                probs.append(f"{label}: {row['status']}")
            if row["outcome"] in FAILED_OUTCOMES:
                probs.append(f"{label}: ended {row['outcome']}")
            breaking = row["outcome"] == "breaking_detected"
            if breaking and not _in_band(float(row["rate"]) if row["rate"] else None):
                probs.append(f"{label}: rate {row['rate']}")
            if row["criterion1"] == "true":
                t_bound = float(row["t_bound"])
                if not breaking or not row["t_star"] \
                        or float(row["t_star"]) > BOUND_SLACK * t_bound:
                    probs.append(f"{label}: criterion 1 holds but no break by "
                                 f"{t_bound:.5f}")
        if result["code"] != 0 and not any(cells):
            for probs in cells:
                probs.append(f"exit code {result['code']}")
        problems += cells
    return problems


CHECKS = {"ladder": check_ladder, "tracked": check_tracked, "sweep": check_sweep}
