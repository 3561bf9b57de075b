"""End-to-end command line checks, run in process through main()."""

import csv
import ctypes
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import chbreak
import chbreak.cli
from chbreak import diffeo_factor, lemma_residual, load_config, run, track_rate
from chbreak.cli import CSV_COLUMNS, SWEEP_COLUMNS, _workers, main
from chbreak.riccati import solve_coupled, two_sided_bound

SRC = os.path.dirname(os.path.dirname(chbreak.__file__))

SMOOTH = """\
[grid]
half_length = 30.0
n_points = 512

[datum]
family = sech_squared
amplitude = 0.4
width = 1.0

[dissipation]
kind = constant
value = 0.2

[solver]
t_end = 0.3
"""

# breaks: the live phase hands over to the certified continuation
BREAKING = """\
[grid]
half_length = 30.0
n_points = 4096

[datum]
family = gaussian_derivative
amplitude = 2.0
width = 0.1

[dissipation]
kind = constant
value = 0.2

[solver]
t_end = 4.0
"""

# decays like e^-8 at the near edge: datum passes admission, the first
# step's nonlocal term does not
EDGE_LOSS = """\
[grid]
half_length = 30.0
n_points = 1024

[datum]
family = sech_squared
amplitude = 0.5
width = 0.4
center = 22.0

[dissipation]
kind = constant
value = 0.0

[solver]
t_end = 1.0
"""

# the one-sided kernels reject the flux after 4 live steps and the run loses
# edge decay 3 steps later: the seeded track ends before the run does
TRACKS_END = """\
[grid]
half_length = 30.0
n_points = 2048

[datum]
family = gaussian_derivative
amplitude = 2.0
width = 0.2

[dissipation]
kind = constant
value = 0.0

[solver]
t_end = 4.0

[characteristics]
seeds = 0.0
"""


@pytest.fixture
def smooth_cfg(tmp_path):
    p = tmp_path / "smooth.ini"
    p.write_text(SMOOTH)
    return str(p)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _summary_tracks_and_run(tmp_path, text, code):
    """simulate's summary tracks for a config, and run() of the same config."""
    p = tmp_path / "seeded.ini"
    p.write_text(text)
    summary = tmp_path / "summary.json"
    assert main(["simulate", str(p), "--summary-json", str(summary)]) == code
    with open(summary) as fh:
        return json.load(fh)["tracks"], run(load_config(str(p)))


def _library_evidence(track):
    """A track's evidence keys as the library computes them, in JSON's types."""
    fit = track_rate(track.times, track.ux_vals)
    return {"evidence": dataclasses.asdict(lemma_residual(track)),
            "min_flow_factor": float(np.min(diffeo_factor(track))),
            "blowup": None if fit is None else {**dataclasses.asdict(fit),
                                                 "window": list(fit.window)}}


def _summary_evidence(entry):
    return {key: entry[key] for key in ("evidence", "min_flow_factor", "blowup")}


class TestSimulate:
    def test_outputs_and_exit_code(self, smooth_cfg, tmp_path, capsys):
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.json"
        code = main(["simulate", smooth_cfg, "--records-csv", str(records),
                     "--summary-json", str(summary)])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome: reached_horizon" in out
        assert "elapsed:" in out

        rows = _read_csv(records)
        assert tuple(rows[0]) == CSV_COLUMNS
        assert float(rows[1][0]) == 0.0
        for row in rows[1:]:
            assert all(math.isfinite(float(cell)) for cell in row)

        with open(summary) as fh:
            payload = json.load(fh)
        assert payload["version"] == chbreak.__version__
        assert payload["outcome"] == "reached_horizon"
        assert payload["t_switch"] is None
        assert payload["blowup"] is None
        assert payload["bound_checks"]["t_star"] is None
        assert payload["n_records"] == len(rows) - 1
        assert payload["criterion1"]["satisfied"] is False
        assert payload["tracks"] == []
        # wall time never lands in machine output
        assert "elapsed" not in summary.read_text()

    def test_horizon_shorter_than_dt_min_is_reached(self, tmp_path, capsys):
        # the one step lands on the horizon: shorter than DT_MIN, but no underflow
        path = tmp_path / "short.ini"
        path.write_text(SMOOTH.replace("t_end = 0.3", "t_end = 1e-13"))
        assert main(["simulate", str(path)]) == 0
        assert "outcome: reached_horizon" in capsys.readouterr().out

    def test_piecewise_lambda_integral_column_holds_numbers(self, tmp_path):
        # lambda = 0.2 + t/10 on [-1, 1]: a knot before t = 0
        p = tmp_path / "piecewise.ini"
        p.write_text(SMOOTH.replace("kind = constant\nvalue = 0.2",
                                    "kind = piecewise\ntimes = -1.0, 1.0\nvalues = 0.1, 0.3"))
        records = tmp_path / "records.csv"
        assert main(["simulate", str(p), "--records-csv", str(records)]) == 0
        rows = _read_csv(records)
        for row in rows[1:]:
            assert all(math.isfinite(float(cell)) for cell in row), row
        t, lam_int = float(rows[-1][0]), float(rows[-1][CSV_COLUMNS.index("lambda_int")])
        assert t == pytest.approx(0.3)
        assert lam_int == pytest.approx(0.2 * t + 0.05 * t * t, rel=1e-12)

    def test_step_counts_in_summary(self, tmp_path):
        p = tmp_path / "breaking.ini"
        p.write_text(BREAKING)
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.json"
        assert main(["simulate", str(p), "--records-csv", str(records),
                     "--summary-json", str(summary)]) == 0
        with open(summary) as fh:
            payload = json.load(fh)
        assert payload["outcome"] == "breaking_detected"
        steps = payload["steps"]
        assert sorted(steps) == ["continued", "dt_halvings", "live", "records"]
        assert steps["live"] > 0 and steps["continued"] > 0
        assert steps["dt_halvings"] == 0
        assert steps["records"] == payload["n_records"] == len(_read_csv(records)) - 1
        # the datum plus one record per step of either phase
        assert steps["records"] == 1 + steps["live"] + steps["continued"]

    def test_config_echo_roundtrip(self, smooth_cfg, tmp_path):
        summary = tmp_path / "summary.json"
        main(["simulate", smooth_cfg, "--summary-json", str(summary)])
        with open(summary) as fh:
            payload = json.load(fh)
        echoed = chbreak.parse_config(payload["config"])
        assert echoed == chbreak.load_config(smooth_cfg)

    def test_reruns_byte_identical(self, smooth_cfg, tmp_path):
        pair = []
        for tag in ("a", "b"):
            records = tmp_path / f"{tag}.csv"
            summary = tmp_path / f"{tag}.json"
            assert main(["simulate", smooth_cfg, "--records-csv", str(records),
                         "--summary-json", str(summary)]) == 0
            pair.append((records.read_bytes(), summary.read_bytes()))
        assert pair[0] == pair[1]

    def test_paths_from_config_file(self, tmp_path, capsys):
        # output paths come from the flags only: [outputs] is an unknown section
        p = tmp_path / "with_outputs.ini"
        p.write_text(SMOOTH + f"\n[outputs]\nrecords_csv = {tmp_path}/r.csv\n")
        assert main(["simulate", str(p)]) == 2
        line = len(SMOOTH.splitlines()) + 2
        assert capsys.readouterr().err == f"error: {p}:{line}: unknown section [outputs]\n"
        assert not (tmp_path / "r.csv").exists()

    def test_plots_written(self, smooth_cfg, tmp_path):
        plots = tmp_path / "plots"
        assert main(["simulate", smooth_cfg, "--plots-dir", str(plots)]) == 0
        for name in ("slope_min.svg", "reciprocal_slope.svg", "energy_law.svg"):
            ET.parse(plots / name)

    def test_breaking_plot_draws_the_dashed_fit(self, tmp_path):
        p = tmp_path / "breaking.ini"
        p.write_text(BREAKING)
        plots = tmp_path / "plots"
        assert main(["simulate", str(p), "--plots-dir", str(plots)]) == 0
        svg = "{http://www.w3.org/2000/svg}"
        root = ET.parse(plots / "reciprocal_slope.svg").getroot()
        dashes = [pl.get("stroke-dasharray") for pl in root.iter(f"{svg}polyline")]
        assert dashes == [None, "6,4"]
        assert [t.text for t in root.iter(f"{svg}text")][-2:] == ["-1/m", "fit"]

    def test_tracks_in_summary(self, smooth_cfg, tmp_path):
        text = SMOOTH + "\n[characteristics]\nseeds = 0.0 1.5\n"
        p = tmp_path / "seeded.ini"
        p.write_text(text)
        summary = tmp_path / "summary.json"
        assert main(["simulate", str(p), "--summary-json", str(summary)]) == 0
        with open(summary) as fh:
            payload = json.load(fh)
        seeds = [tr["seed"] for tr in payload["tracks"]]
        assert seeds == [0.0, 1.5]
        for tr in payload["tracks"]:
            assert tr["n_samples"] > 0
            assert not tr["edge_contaminated"]
            assert tr["stopped_at"] is None   # the tracks lasted the run

    def test_track_that_ends_early_reports_its_last_sample(self, tmp_path):
        p = tmp_path / "tracks_end.ini"
        p.write_text(TRACKS_END)
        summary, records = tmp_path / "summary.json", tmp_path / "records.csv"
        assert main(["simulate", str(p), "--summary-json", str(summary),
                     "--records-csv", str(records)]) == 3
        with open(summary) as fh:
            payload = json.load(fh)
        (track,) = payload["tracks"]
        assert payload["outcome"] == "edge_decay_lost"
        assert track["n_samples"] == 5 < payload["steps"]["live"] + 1
        # the time of the fifth record, one per live step from t = 0
        assert track["stopped_at"] == float(_read_csv(records)[5][0])
        assert track["stopped_at"] < payload["t_final"]

    def test_tracks_report_their_evidence(self, tmp_path):
        # one seed at the front, one off it
        tracks, outcome = _summary_tracks_and_run(
            tmp_path, BREAKING + "\n[characteristics]\nseeds = 0.0 1.0\n", 0)
        assert outcome.kind == "breaking_detected"
        assert [_summary_evidence(e) for e in tracks] == [
            _library_evidence(tr) for tr in outcome.tracks]
        front, off = tracks
        assert -2.2 <= front["blowup"]["rate"] <= -1.8
        assert off["blowup"] is None
        assert front["evidence"]["n_checked"] > 0
        assert 0.0 < front["min_flow_factor"] < off["min_flow_factor"] < 1.0

    def test_track_that_ends_early_reports_its_evidence(self, tmp_path):
        (entry,), outcome = _summary_tracks_and_run(tmp_path, TRACKS_END, 3)
        (track,) = outcome.tracks
        assert track.stopped_at is not None and entry["stopped_at"] == track.stopped_at
        assert _summary_evidence(entry) == _library_evidence(track)
        assert entry["evidence"]["n_checked"] == entry["n_samples"] - 2

    def test_seed_at_the_left_end_is_inside(self, tmp_path):
        p = tmp_path / "seeded.ini"
        p.write_text(SMOOTH + "\n[characteristics]\nseeds = -30.0\n")
        summary = tmp_path / "summary.json"
        assert main(["simulate", str(p), "--summary-json", str(summary)]) == 0
        with open(summary) as fh:
            assert [tr["seed"] for tr in json.load(fh)["tracks"]] == [-30.0]

    def test_run_failure_exit_code(self, tmp_path, capsys):
        p = tmp_path / "edge.ini"
        p.write_text(EDGE_LOSS)
        assert main(["simulate", str(p)]) == 3
        assert "edge_decay_lost" in capsys.readouterr().err

    @pytest.mark.parametrize("text,shown", [
        ("Unable to allocate 8.00 TiB for an array", "Unable to allocate 8.00 TiB for an array"),
        ("", "an allocation failed")], ids=["numpy", "bare"])
    def test_out_of_memory_exit_code(self, smooth_cfg, capsys, monkeypatch, text, shown):
        def no_memory(cfg, sink=None):
            raise MemoryError(text)
        monkeypatch.setattr(chbreak.cli, "run", no_memory)
        assert main(["simulate", smooth_cfg]) == 3
        assert _one_error_line(capsys) == f"error: out of memory: {shown}\n"

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.ini")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(SMOOTH.replace("kind = constant", "kind = mystery"))
        assert main(["simulate", str(p)]) == 2
        assert "must be one of" in capsys.readouterr().err


class TestCriteria:
    def test_console_report(self, smooth_cfg, capsys):
        assert main(["criteria", smooth_cfg]) == 0
        out = capsys.readouterr().out
        assert "slope_only: not satisfied" in out
        assert "mixed: not satisfied" in out
        assert "margin:" in out

    def test_json_report(self, smooth_cfg, tmp_path):
        dest = tmp_path / "criteria.json"
        assert main(["criteria", smooth_cfg, "--json", str(dest)]) == 0
        with open(dest) as fh:
            payload = json.load(fh)
        assert payload["version"] == chbreak.__version__
        assert payload["criterion1"]["kind"] == "slope_only"
        assert payload["criterion2"]["kind"] == "mixed"
        assert payload["criterion1"]["satisfied"] is False


class TestRiccati:
    def test_scalar_rows(self, capsys):
        assert main(["riccati", "--forcing", "0.0", "--omega0", "-1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "case,start,blew_up,t_numeric,t_bound,g_margin"
        kind, start, blew, t_num, bound, margin = lines[1].split(",")
        assert (kind, start, blew, margin) == ("scalar", "-1.0", "true", "")
        assert abs(float(t_num) - 2.0) < 1e-3
        assert float(bound) == 2.0

    def test_scalar_subcritical_row_empty(self, capsys):
        assert main(["riccati", "--forcing", "0.5",
                     "--omega0", "-3.0 -0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "true"
        assert lines[2].split(",")[2:] == ["false", "", "", ""]

    def test_coupled(self, capsys):
        assert main(["riccati", "--coupled", "--delta", "0.1",
                     "--forcing", "1.0"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        kind, start, blew, t_num, bound, margin = line.split(",")
        assert (kind, start, blew) == ("coupled", "-3.0", "true")
        expected = two_sided_bound(0.1, 1.0, 3.0)
        assert float(bound) == expected
        assert float(t_num) <= expected + 1e-3
        assert float(margin) == solve_coupled(0.1, 1.0, 3.0, -3.0).g_margin

    def test_settled_run_stops_at_the_fixed_point(self, capsys):
        # omega settles at 2 after about 1,650 steps; 1e7 / 0.02 steps would follow
        assert main(["riccati", "--forcing", "2", "--omega0", "0", "--t-max", "1e7"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert line.split(",") == ["scalar", "0.0", "false", "", "", ""]

    def test_unsettled_run_hits_the_step_cap(self, capsys):
        # omega decays like 2/t and never settles
        assert main(["riccati", "--forcing", "0", "--omega0", "0.5",
                     "--t-max", "1e7"]) == 3
        err = _one_error_line(capsys)
        assert f"{chbreak.riccati.MAX_STEPS} steps" in err

    def test_csv_matches_console(self, tmp_path, capsys):
        dest = tmp_path / "riccati.csv"
        assert main(["riccati", "--forcing", "2.0", "--omega0", "-3.0",
                     "--csv", str(dest)]) == 0
        console = capsys.readouterr().out.strip().splitlines()
        file_rows = dest.read_text().strip().replace("\r", "").splitlines()
        assert file_rows == console


class TestSweep:
    def test_serial_sweep(self, smooth_cfg, tmp_path, capsys):
        dest = tmp_path / "sweep.csv"
        code = main(["sweep", smooth_cfg, "--amplitudes", "0.2 0.4",
                     "--widths", "1.0", "--workers", "1", "--csv", str(dest)])
        assert code == 0
        rows = _read_csv(dest)
        assert tuple(rows[0]) == SWEEP_COLUMNS
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            record = dict(zip(SWEEP_COLUMNS, row))
            assert record["status"] == "ok"
            assert record["outcome"] == "reached_horizon"
            assert record["criterion1"] == "false"
            assert float(record["energy"]) > 0.0
        assert [r[2] for r in rows[1:]] == ["0.2", "0.4"]
        assert "2 cells, 0 failed" in capsys.readouterr().err

    def test_sweep_stdout(self, smooth_cfg, capsys):
        code = main(["sweep", smooth_cfg, "--amplitudes", "0.3",
                     "--widths", "1.0", "--workers", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(",".join(SWEEP_COLUMNS))
        assert "1 cells" in captured.err

    def test_sweep_rejects_samples_template(self, tmp_path, capsys):
        vals = " ".join(["0.0"] * 512)
        text = SMOOTH.replace(
            "family = sech_squared\namplitude = 0.4\nwidth = 1.0",
            f"family = samples\nvalues = {vals}")
        p = tmp_path / "samples.ini"
        p.write_text(text)
        assert main(["sweep", str(p), "--amplitudes", "0.3",
                     "--widths", "1.0", "--workers", "1"]) == 2
        assert "analytic datum family" in capsys.readouterr().err

    def test_deltas_need_constant_profile(self, tmp_path, capsys):
        text = SMOOTH.replace(
            "kind = constant\nvalue = 0.2",
            "kind = sinusoidal\noffset = 0.1\namplitude = 0.1\nomega = 1.0\n"
            "delta_sup = 0.2")
        p = tmp_path / "sin.ini"
        p.write_text(text)
        assert main(["sweep", str(p), "--amplitudes", "0.3", "--widths", "1.0",
                     "--deltas", "0.0 0.1", "--workers", "1"]) == 2
        assert "constant dissipation" in capsys.readouterr().err

    def test_deltas_replace_a_template_profile_that_fails_its_horizon(self, tmp_path, capsys):
        # every cell runs under its own --deltas profile, and each cell's
        # RunConfig checks that profile; the template's delta_sup is never used
        p = tmp_path / "low_sup.ini"
        p.write_text(SMOOTH.replace("value = 0.2", "value = 0.2\ndelta_sup = 0.1"))
        dest = tmp_path / "sweep.csv"
        assert main(["sweep", str(p), "--amplitudes", "0.3", "--widths", "1.0",
                     "--deltas", "0.2", "--workers", "1", "--csv", str(dest)]) == 0
        record = dict(zip(SWEEP_COLUMNS, _read_csv(dest)[1]))
        assert (record["status"], record["delta"]) == ("ok", "0.2")
        capsys.readouterr()
        assert main(["sweep", str(p), "--amplitudes", "0.3", "--widths", "1.0",
                     "--workers", "1"]) == 2
        assert _one_error_line(capsys) == (
            f"error: {p}: delta_sup=0.1 is below max lambda = 0.2 on [0, 0.3]\n")

    def test_worker_count_precedence(self, monkeypatch):
        assert _workers(4) == 4
        assert _workers(0) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _workers(None) == 3
        assert _workers(2) == 2

    def test_default_workers_are_the_cpus_this_process_may_use(self, monkeypatch):
        # pinned to one CPU of eight, a default sweep would start 8 workers on it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _workers(None) == 1

    def test_default_workers_without_affinity_fall_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _workers(None) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _workers(None) == 1

    @pytest.mark.parametrize("source", ["flag", "cores"])
    def test_pool_capped_at_cell_count(self, smooth_cfg, monkeypatch, source):
        # a fork pool starts all max_workers processes at the first submit
        sizes = []

        class NoProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(chbreak.cli, "ProcessPoolExecutor", NoProcessPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5000)),
                            raising=False)
        argv = ["sweep", smooth_cfg, "--amplitudes", "0.3 0.35", "--widths", "1.0"]
        assert main(argv + (["--workers", "5000"] if source == "flag" else [])) == 0
        assert sizes == [2]


class TestSweepFailures:
    def test_cells_that_lose_edge_decay_fail(self, tmp_path, capsys):
        p = tmp_path / "edge.ini"
        p.write_text(EDGE_LOSS)
        dest = tmp_path / "sweep.csv"
        code = main(["sweep", str(p), "--amplitudes", "0.5", "--widths", "0.4",
                     "--workers", "1", "--csv", str(dest)])
        assert code == 3
        record = dict(zip(SWEEP_COLUMNS, _read_csv(dest)[1]))
        assert record["status"] == "failed: edge_decay_lost"
        # the failed cell keeps everything it measured
        assert record["outcome"] == "edge_decay_lost"
        assert record["family"] == "sech_squared"
        assert float(record["energy"]) > 0.0
        assert float(record["t_final"]) > 0.0
        assert "1 cells, 1 failed" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("command,flag", [
        ("simulate", "--records-csv"), ("simulate", "--summary-json"),
        ("simulate", "--plots-dir"), ("riccati", "--csv"), ("criteria", "--json"),
    ])
    def test_unwritable_output_path(self, smooth_cfg, tmp_path, capsys, command, flag):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        # a path below a regular file can be neither opened nor created
        target = str(blocker / "out")
        argv = {"simulate": ["simulate", smooth_cfg],
                "riccati": ["riccati", "--forcing", "2.0"],
                "criteria": ["criteria", smooth_cfg]}[command]
        assert main(argv + [flag, target]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("entry", [
        "cfl_factor = 2.0", "c_m = 0.0", "c_m = -0.2", "m_stop = nan",
    ])
    def test_out_of_range_solver_value(self, tmp_path, capsys, command, entry):
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH + entry + "\n")   # SMOOTH ends inside [solver]
        argv = [command, str(path)]
        if command == "sweep":
            argv += ["--amplitudes", "0.3", "--widths", "1.0", "--workers", "1"]
        assert main(argv) == 2
        err = _one_error_line(capsys)
        assert f"error: {path}: " in err and entry.split()[0] in err

    @pytest.mark.parametrize("key,command", [
        pytest.param(key, command, id=command if key == "edge_tol" else f"{key}-{command}")
        for key in ("edge_tol", "tail_tol", "collapse_margin", "dt_min", "record_stride")
        for command in ("simulate", "criteria")])
    def test_edge_tol_is_an_unknown_solver_key(self, tmp_path, capsys, key, command):
        # fixed, not run settings: grid.EDGE_TOL, solver's TAIL_TOL,
        # COLLAPSE_MARGIN and DT_MIN, and a record at every step
        text = SMOOTH + f"{key} = 1\n"   # SMOOTH ends inside [solver]
        path = tmp_path / "fixed.ini"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{len(text.splitlines())}: unknown key '{key}' in [solver]\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("t_end", ["-2.0", "inf"])
    def test_horizon_out_of_range(self, tmp_path, capsys, command, t_end):
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace("t_end = 0.3", f"t_end = {t_end}"))
        out = tmp_path / "out.csv"
        argv = {"simulate": ["simulate", str(path), "--records-csv", str(out)],
                "sweep": ["sweep", str(path), "--amplitudes", "0.3", "--widths", "1.0",
                          "--workers", "1", "--csv", str(out)]}[command]
        assert main(argv) == 2
        err = _one_error_line(capsys)
        assert f"error: {path}: " in err and "t_end" in err
        assert not out.exists()

    def test_riccati_empty_start_list(self, capsys):
        assert main(["riccati", "--forcing", "2", "--omega0", ""]) == 2
        assert "--omega0 needs at least one value" in _one_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--amplitudes", "--widths", "--deltas"])
    def test_sweep_empty_cell_list(self, smooth_cfg, tmp_path, capsys, flag):
        lists = {"--amplitudes": "0.3", "--widths": "1.0", flag: ""}
        dest = tmp_path / "sweep.csv"
        argv = ["sweep", smooth_cfg, "--workers", "1", "--csv", str(dest)]
        assert main(argv + [tok for kv in lists.items() for tok in kv]) == 2
        assert f"{flag} needs at least one value" in _one_error_line(capsys)
        assert not dest.exists()

    def test_riccati_forcing_below_threshold_range(self, capsys):
        assert main(["riccati", "--forcing", "-5", "--omega0", "-3"]) == 2
        assert "--forcing" in _one_error_line(capsys)

    def test_riccati_coupled_start_outside_the_bracket(self, capsys):
        # rejected before the march, which would run to its step cap and exit 3
        assert main(["riccati", "--coupled", "--delta", "0.1", "--forcing", "0",
                     "--rising0", "1", "--falling0", "1", "--t-max", "1e7"]) == 2
        assert "rising0 > 0 > falling0" in _one_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--delta", "--forcing", "--omega0", "--rising0",
                                      "--falling0"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_riccati_non_finite_value(self, capsys, flag, value):
        argv = {"--forcing": ["riccati"]}.get(flag, ["riccati", "--forcing", "2"])
        assert main(argv + [f"{flag}={value}"]) == 2
        assert f"{flag} must be finite" in _one_error_line(capsys)

    @pytest.mark.parametrize("dissipation", [
        "kind = sinusoidal\noffset = 0.2\namplitude = 0.1\nomega = nan",
        "kind = sinusoidal\noffset = 0.2\namplitude = 0.1\nomega = inf",
        "kind = constant\nvalue = 0.2\ndelta_sup = nan",
        "kind = constant\nvalue = nan",
        "kind = constant\nvalue = inf",
    ])
    def test_non_finite_dissipation_value(self, tmp_path, capsys, dissipation):
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace("kind = constant\nvalue = 0.2", dissipation))
        assert main(["simulate", str(path)]) == 2
        assert "must be finite" in _one_error_line(capsys)

    @pytest.mark.parametrize("entry,value", [
        ("amplitude", "nan"), ("amplitude", "inf"), ("width", "nan"),
        ("center", "nan"), ("center", "-inf")])
    def test_non_finite_datum_value(self, tmp_path, capsys, entry, value):
        datum = {"amplitude": "0.4", "width": "1.0", "center": "0.0", entry: value}
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace("amplitude = 0.4\nwidth = 1.0\n",
                                       "".join(f"{k} = {v}\n" for k, v in datum.items())))
        assert main(["simulate", str(path)]) == 2
        assert "must be finite" in _one_error_line(capsys)

    def test_non_finite_sample_value(self, tmp_path, capsys):
        values = ", ".join(["0.0"] * 511 + ["nan"])
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace(
            "family = sech_squared\namplitude = 0.4\nwidth = 1.0",
            f"family = samples\nvalues = {values}"))
        assert main(["simulate", str(path)]) == 2
        assert "must be finite" in _one_error_line(capsys)

    def test_sweep_cell_with_non_finite_width_is_an_error_row(self, smooth_cfg, tmp_path,
                                                                capsys):
        dest = tmp_path / "sweep.csv"
        assert main(["sweep", smooth_cfg, "--amplitudes", "0.3", "--widths", "1.0 nan",
                     "--workers", "1", "--csv", str(dest)]) == 3
        rows = [dict(zip(SWEEP_COLUMNS, row)) for row in _read_csv(dest)[1:]]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error: ") and "finite" in rows[1]["status"]
        assert "2 cells, 1 failed" in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", ["inf", "nan", "0", "-1"])
    def test_riccati_horizon_out_of_range(self, capsys, t_max):
        assert main(["riccati", "--forcing", "2", "--omega0", "0", f"--t-max={t_max}"]) == 2
        assert "--t-max" in _one_error_line(capsys)

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[grid]\nhalf_length = 30\xff\n")
        assert main(["simulate", str(path)]) == 2
        assert f"error: {path}:2: not UTF-8 text" in _one_error_line(capsys)

    @pytest.mark.parametrize("seeds", ["nan", "0.1, inf"])
    def test_non_finite_seed(self, tmp_path, capsys, seeds):
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH + f"\n[characteristics]\nseeds = {seeds}\n")
        summary = tmp_path / "summary.json"
        assert main(["simulate", str(path), "--summary-json", str(summary)]) == 2
        assert f"error: {path}: seeds must be finite" in _one_error_line(capsys)
        assert not summary.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("seed", ["100.0", "-30.000001", "30.0"])
    def test_seed_outside_the_domain(self, tmp_path, capsys, command, seed):
        # [-L, L) is half-open: x = L is the node x = -L again
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH + f"\n[characteristics]\nseeds = 0.0, {seed}\n")
        out = tmp_path / "out"
        argv = {"simulate": ["simulate", str(path), "--summary-json", str(out)],
                "sweep": ["sweep", str(path), "--amplitudes", "0.3", "--widths", "1.0",
                          "--workers", "1", "--csv", str(out)]}[command]
        assert main(argv) == 2
        err = _one_error_line(capsys)
        assert f"error: {path}: seeds must be finite and lie in [-L, L), L = 30" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "criteria", "sweep"])
    def test_datum_center_outside_the_domain(self, tmp_path, capsys, command):
        # the datum would sample as zeros, which pass every edge check
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace("width = 1.0\n", "width = 1.0\ncenter = 100.0\n"))
        out = tmp_path / "out"
        argv = {"simulate": ["simulate", str(path), "--summary-json", str(out)],
                "criteria": ["criteria", str(path), "--json", str(out)],
                "sweep": ["sweep", str(path), "--amplitudes", "0.3", "--widths", "1.0",
                          "--workers", "1", "--csv", str(out)]}[command]
        assert main(argv) == 2
        err = _one_error_line(capsys)
        assert f"error: {path}: datum center must lie in [-L, L), L = 30" in err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,where", [
        ("width = 1.0\n", "width = 1.0\nvalues = 1 2 3\n", "9: [datum] values"),
        ("family = sech_squared\namplitude = 0.4\nwidth = 1.0",
         "family = samples\ncenter = 0.0\nvalues = " + ", ".join(["0.0"] * 512),
         "7: [datum] center"),
        ("value = 0.2\n", "value = 0.2\nomega = 2.0\n", "13: [dissipation] omega"),
        ("value = 0.2\n", "value = 0.2\ntimes = 0 1\n", "13: [dissipation] times"),
        ("value = 0.2\n", "value = 0.2\nramp_rate = 0.1\n", "13: [dissipation] ramp_rate"),
    ], ids=["values_under_analytic", "center_under_samples", "omega_under_constant",
            "times_under_constant", "ramp_rate_under_constant"])
    @pytest.mark.parametrize("command", ["simulate", "criteria"])
    def test_key_that_does_not_apply(self, tmp_path, capsys, command, old, new, where):
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace(old, new))
        assert main([command, str(path)]) == 2
        assert _one_error_line(capsys).startswith(f"error: {path}:{where} does not apply")

    @pytest.mark.parametrize("old,new", [
        ("amplitude = 0.4", "amplitude = nan"),
        ("value = 0.2", "value = inf"),
        ("width = 1.0", "width = -1.0"),
        ("kind = constant\nvalue = 0.2", "kind = sinusoidal\noffset = 0.2\n"
                                          "amplitude = 0.1\nomega = 0"),
    ], ids=["nan_amplitude", "inf_value", "negative_width", "zero_omega"])
    def test_datum_and_profile_errors_name_the_path(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace(old, new))
        records = tmp_path / "records.csv"
        assert main(["simulate", str(path), "--records-csv", str(records)]) == 2
        assert _one_error_line(capsys).startswith(f"error: {path}: ")
        assert not records.exists()

    @pytest.mark.parametrize("command", ["simulate", "criteria"])
    def test_delta_sup_below_lambda_on_the_horizon(self, tmp_path, capsys, command):
        # lambda(t) = t passes delta_sup = 0.1 at t = 0.1: the criteria would
        # certify breaking under a ceiling that the run itself does not have
        path = tmp_path / "ramp.ini"
        path.write_text(BREAKING.replace("width = 0.1", "width = 0.09").replace(
            "kind = constant\nvalue = 0.2",
            "kind = linear_ramp\nstart = 0.0\nramp_rate = 1.0\ndelta_sup = 0.1"))
        out = tmp_path / "out"
        argv = {"simulate": ["simulate", str(path), "--records-csv", str(out)],
                "criteria": ["criteria", str(path), "--json", str(out)]}[command]
        assert main(argv) == 2
        err = _one_error_line(capsys)
        assert err == f"error: {path}: delta_sup=0.1 is below max lambda = 4 on [0, 4.0]\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "criteria"])
    def test_sample_count_checked_when_read(self, tmp_path, capsys, command):
        path = tmp_path / "bad.ini"
        path.write_text(SMOOTH.replace(
            "family = sech_squared\namplitude = 0.4\nwidth = 1.0",
            "family = samples\nvalues = 0.0, 0.0, 0.0"))
        out = tmp_path / "out"
        argv = {"simulate": ["simulate", str(path), "--records-csv", str(out)],
                "criteria": ["criteria", str(path), "--json", str(out)]}[command]
        assert main(argv) == 2
        err = _one_error_line(capsys)
        assert err == f"error: {path}: samples datum has 3 values, grid wants 512\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "criteria"])
    def test_grid_numpy_cannot_address(self, tmp_path, capsys, command):
        # 2**62 points: numpy refuses to size the grid's arrays; nothing is allocated
        path = tmp_path / "huge.ini"
        path.write_text(SMOOTH.replace("n_points = 512", f"n_points = {2 ** 62}"))
        assert main([command, str(path)]) == 2
        err = _one_error_line(capsys)
        assert err.startswith(f"error: {path}: [grid] n_points must be at most ")
        assert err.endswith(f"got {2 ** 62}\n")


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is slow to import, and chbreak needs no part of scipy
    code = "import sys, chbreak.cli; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.strip() == "False"


def test_import_leaves_the_network_stack_unloaded():
    # xml.sax.saxutils would pull in urllib.request, and with it ssl and
    # email, for the escape of a chart label
    code = ("import sys, chbreak.cli\n"
            "print(sorted({'ssl', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.strip() == "[]"


def test_seeded_simulate_loads_no_scipy(tmp_path):
    # the track kernels march in numpy; scipy is a test dependency only
    path = tmp_path / "seeded.ini"
    path.write_text(SMOOTH + "\n[characteristics]\nseeds = -0.5, 0.0, 0.5\n")
    code = ("import sys; from chbreak.cli import main\n"
            f"assert main(['simulate', {str(path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.strip().splitlines()[-1] == "[]"


# One warm-up call, then 8 timed rhs calls on an N = 16384 datum. Without the
# allocator setting each call faults its arrays back in: about 2,560 minor
# faults for the 8 calls.
_RHS_FAULTS = """\
import resource
from chbreak.cli import main
from chbreak.grid import Grid
from chbreak.model import DissipationProfile, InitialDatum, make_datum, rhs
main(["version"])
u = make_datum(InitialDatum("gaussian_derivative", amplitude=2.0, width=0.1),
               Grid(30.0, 16384))
profile = DissipationProfile.constant(0.1)
rhs(u, 0.0, profile)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(8):
    rhs(u, 0.0, profile)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting is glibc's")
def test_main_keeps_large_arrays_on_the_heap():
    # a child process, so that no fixture of this session has applied the setting
    proc = subprocess.run([sys.executable, "-c", _RHS_FAULTS], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert int(proc.stdout.split()[-1]) <= 32


def test_allocator_left_alone_off_glibc(monkeypatch):
    def no_library(*args):
        raise AssertionError("mallopt looked up off glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda *args: ("musl", "1.2"))
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert chbreak.cli._keep_arrays_on_the_heap() is False


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == f"chbreak {chbreak.__version__}"
