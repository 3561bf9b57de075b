"""Span tracing around chbreak's module boundaries, installed from outside.

Wrappers replace functions by name in the namespaces that call them
(chbreak.solver, chbreak.characteristics, chbreak.cli), plus the numpy.fft
and scipy.fft transforms. chbreak itself is not modified. A span is
(id, parent, run, name, start, end, size): `run` identifies one simulate
call or sweep cell, `size` is the transform length for FFT spans. Spans are
kept in memory and written out when the benchmark ends.

Sweep cells run in forked pool workers. The wrapped `_sweep_cell` attaches
the worker's spans to the row it returns, and the wrapped pool executor
strips them off in the parent and adopts them under its own span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("rfft", "irfft", "fft", "ifft")

# Names wrapped, by the namespace that calls them. A span is named after the
# module that defines the function ("model.rhs"), so one function wrapped in
# two namespaces shares a name.
WRAPPED = {
    "chbreak.solver": (
        "step", "_rk4", "rhs", "deriv", "h1_norm_sq", "smoothed_edge_decay",
        "tail_fraction", "interp", "make_datum", "bounded_forcing",
        "forcing_constant", "build_aux", "start_track", "advance",
        "advance_frozen", "_continue_collapse", "_record"),
    "chbreak.characteristics": (
        "interp", "deriv", "second_deriv", "conv_P_plus", "conv_P_minus",
        "from_spectrum", "rhs", "slope_rhs", "_nonlinear_spectra"),
    "chbreak.cli": (
        "main", "run", "load_config", "parse_config", "emit_config",
        "check_criterion1", "check_criterion2", "estimate_blowup",
        "_run_summary", "_record_row", "_write_json", "_write_plots",
        "_sweep_cell"),
    "chbreak.model": ("find_breaking_datum",),
    "chbreak.model.DissipationProfile": ("validate_horizon", "is_dissipative"),
}

# config parsing and SVG output belong to the command-line layer
LAYER_OF_MODULE = {"config": "cli", "svg": "cli"}
LAYERS = ("fft", "grid", "model", "solver", "characteristics", "criteria",
          "diagnostics", "cli")
OUTPUT_SPANS = ("cli.csv_writerow", "cli._record_row", "cli._write_json",
                "cli._write_plots")


class Tracer:
    def __init__(self):
        self.active = False
        self.root_pid = os.getpid()
        self.run = None
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self._next = self.pid * 10**9

    def begin(self) -> tuple[int, int | None, float]:
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, opened, name: str, size: int = 0) -> None:
        sid, parent, start = opened
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, self.run, name, start, end, size))

    def wrap(self, name: str, fn, size_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            opened = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(opened, name, size_of(args, kwargs) if size_of else 0)
        return traced

    def wrap_cell(self, fn):
        """_sweep_cell: runs in a forked worker, ships its spans back in the row."""
        @functools.wraps(fn)
        def cell(packed):
            if not self.active:
                return fn(packed)
            if os.getpid() != self.pid:
                self.reset()
            op = self.run
            self.run = (op, packed[0])
            opened = self.begin()
            try:
                row = fn(packed)
            finally:
                self.end(opened, "cli._sweep_cell")
                self.run = op
            if os.getpid() != self.root_pid:
                row["_spans"], self.spans = self.spans, []
            return row
        return cell

    def adopt(self, spans, parent: int) -> None:
        self.spans.extend(s if s[1] is not None else (s[0], parent) + s[2:]
                          for s in spans)

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "run", "name", "start", "end", "size")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _fft_size(name: str):
    def size_of(args, kwargs):
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        if n is not None:
            return int(n)
        length = numpy.shape(args[0])[-1]
        return 2 * (length - 1) if name == "irfft" else length
    return size_of


def _layer(fn) -> str:
    mod = fn.__module__.rsplit(".", 1)[-1]
    return LAYER_OF_MODULE.get(mod, mod)


def install_fft(tracer: Tracer) -> None:
    """Wrap the transforms; call before chbreak is imported."""
    for modname in FFT_MODULES:
        mod = importlib.import_module(modname)
        for name in FFT_NAMES:
            setattr(mod, name, tracer.wrap(f"fft.{name}", getattr(mod, name),
                                           _fft_size(name)))


def _resolve(target: str):
    """A module, or a class inside one ("chbreak.model.DissipationProfile")."""
    try:
        return importlib.import_module(target)
    except ImportError:
        modname, _, attr = target.rpartition(".")
        return getattr(importlib.import_module(modname), attr, None)


def install(tracer: Tracer) -> None:
    """Wrap chbreak's boundary names; names that no longer exist are recorded."""
    import chbreak.cli

    for target, names in WRAPPED.items():
        owner = _resolve(target)
        for name in names:
            fn = getattr(owner, name, None)
            if fn is None:
                tracer.missing.append(f"{target}.{name}")
                continue
            if name == "_sweep_cell":
                wrapped = tracer.wrap_cell(fn)
            else:
                wrapped = tracer.wrap(f"{_layer(fn)}.{name}", fn)
            setattr(owner, name, wrapped)
    cli = chbreak.cli
    if hasattr(cli, "ProcessPoolExecutor"):
        cli.ProcessPoolExecutor = _traced_pool(tracer)
    else:
        tracer.missing.append("chbreak.cli.ProcessPoolExecutor")
    if hasattr(cli, "csv"):
        cli.csv = _CsvProxy(cli.csv, tracer)
    else:
        tracer.missing.append("chbreak.cli.csv")


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._opened = tracer.begin() if tracer.active else None

        def map(self, fn, *iterables, **kwargs):
            for row in super().map(fn, *iterables, **kwargs):
                spans = row.pop("_spans", None) if isinstance(row, dict) else None
                if spans and self._opened is not None:
                    tracer.adopt(spans, self._opened[0])
                yield row

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._opened is not None:
                tracer.end(self._opened, "cli.pool")
                self._opened = None

    return TracedPool


class _CsvProxy:
    """The csv module as cli sees it, with writerow traced."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def writer(self, *args, **kwargs):
        inner = self._real.writer(*args, **kwargs)
        return _Writer(inner, self._tracer.wrap("cli.csv_writerow", inner.writerow))


class _Writer:
    def __init__(self, inner, writerow):
        self._inner = inner
        self.writerow = writerow

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ---------------------------------------------------------------------------
# Per-layer metrics


# name: (unit, better, wrapped names it needs as "<namespace>.<name>" like
# the WRAPPED keys). A metric whose names have vanished is reported absent.
METRICS = {
    "grid.fft_per_live_step": ("count", "lower", ("solver.step", "cli.run")),
    "grid.fft_points_per_live_step": ("count", "lower", ("solver.step", "cli.run")),
    "grid.interp_calls_per_track_sample": ("count", "lower",
                                           ("solver.advance", "characteristics.interp")),
    "grid.interp_us": ("us", "lower", ("characteristics.interp", "solver.interp")),
    "model.rhs_ms": ("ms", "lower", ("solver.rhs",)),
    "model.rhs_calls_per_live_step": ("count", "lower", ("solver.step", "solver.rhs")),
    "model.find_breaking_datum_s": ("s", "lower", ("model.find_breaking_datum",)),
    "model.profile_checks_ms": ("ms", "lower",
                                ("model.DissipationProfile.validate_horizon",
                                 "model.DissipationProfile.is_dissipative")),
    "solver.live_steps": ("count", "lower", ("solver.step",)),
    "solver.continued_steps": ("count", "lower",
                               ("solver._continue_collapse", "solver._record")),
    "solver.dt_halvings": ("count", "lower", ("solver.step", "solver._rk4")),
    "solver.step_ms": ("ms", "lower", ("solver.step",)),
    "solver.diag_ms_per_step": ("ms", "lower", ("solver.step", "cli.run",
                                                "solver.build_aux", "solver.advance")),
    "solver.continuation_ms": ("ms", "lower", ("solver._continue_collapse",)),
    "solver.accounted_frac": ("frac", "higher",
                              ("solver.step", "cli.run", "solver._continue_collapse")),
    "characteristics.build_aux_ms": ("ms", "lower", ("solver.build_aux",)),
    "characteristics.advance_ms": ("ms", "lower", ("solver.advance",)),
    "characteristics.advance_frozen_ms": ("ms", "lower", ("solver.advance_frozen",)),
    "characteristics.track_samples": ("count", "lower", ("solver.start_track",
                                                         "solver.advance",
                                                         "solver.advance_frozen")),
    "criteria.check_ms": ("ms", "lower", ("cli.check_criterion1", "cli.check_criterion2")),
    "diagnostics.estimate_blowup_ms": ("ms", "lower", ("cli.estimate_blowup",)),
    "cli.output_s": ("s", "lower", ("cli.csv", "cli._record_row", "cli._write_json",
                                    "cli._write_plots")),
    "cli.bytes_written": ("B", "lower", ()),
    "cli.sweep_cell_s": ("s", "lower", ("cli._sweep_cell",)),
    "cli.sweep_cell_max_s": ("s", "lower", ("cli._sweep_cell",)),
    "cli.pool_idle_frac": ("frac", "lower", ("cli._sweep_cell", "cli.ProcessPoolExecutor")),
    **{f"{layer}.self_s": ("s", "lower", ()) for layer in LAYERS},
    "trace.overhead": ("ratio", "lower", ()),
}


def absent_metrics(missing) -> list[str]:
    gone = {m.removeprefix("chbreak.") for m in missing}
    return [name for name, (_u, _b, needs) in METRICS.items() if gone.intersection(needs)]


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus what its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, _run, name, start, end, _size in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - _covered(children.get(sid, ()))
    return out


class _Run:
    """Spans of one simulate call or sweep cell, grouped by name."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict[str, list] = {}
        for span in spans:
            self.by_name.setdefault(span[3], []).append(span)
        self.ids = {span[0]: span for span in spans}

    def get(self, name):
        return self.by_name.get(name, [])

    def durations(self, name):
        return [s[5] - s[4] for s in self.get(name)]

    def total(self, *names) -> float:
        return sum(sum(self.durations(n)) for n in names)

    def count(self, *names) -> int:
        return sum(len(self.get(n)) for n in names)

    def under(self, name, ancestor) -> int:
        """How many spans called `name` have an ancestor called `ancestor`."""
        found = 0
        for span in self.get(name):
            parent = span[1]
            while parent in self.ids:
                if self.ids[parent][3] == ancestor:
                    found += 1
                    break
                parent = self.ids[parent][1]
        return found

    def values(self) -> dict:
        """Counts and times of this run; the live loop runs from the first
        accepted step to the switch (or to the end of the run)."""
        live = self.count("solver.step")
        runs = self.get("solver.run")
        in_window, diag = [], 0.0
        if live and runs:
            collapse = self.get("solver._continue_collapse")
            lo = min(s[4] for s in self.get("solver.step"))
            hi = collapse[0][4] if collapse else runs[0][5]
            in_window = [s for s in self.spans if s[3].startswith("fft.") and lo <= s[4] < hi]
            tracks = sum(s[5] - s[4] for name in ("characteristics.build_aux",
                                                  "characteristics.advance")
                         for s in self.get(name) if lo <= s[4] < hi)
            diag = hi - lo - self.total("solver.step") - tracks
        continuation = self.total("solver._continue_collapse")
        return {
            "simulate": bool(runs),
            "live_steps": live,
            "fft_live": len(in_window),
            "fft_points_live": sum(s[6] for s in in_window),
            "rhs_in_steps": self.under("model.rhs", "solver.step"),
            "halvings": self.count("solver._rk4") - live,
            "continued": self.under("solver._record", "solver._continue_collapse"),
            "diag_s": diag,
            "continuation_s": continuation,
            "accounted_s": self.total("solver.step") + diag + continuation,
            "run_s": self.total("solver.run"),
            "profile_s": self.total("model.validate_horizon", "model.is_dissipative"),
            "criteria_s": self.total("criteria.check_criterion1", "criteria.check_criterion2"),
            "track_samples": self.count("characteristics.start_track",
                                        "characteristics.advance",
                                        "characteristics.advance_frozen"),
            "interp_in_advance": sum(1 for s in self.get("grid.interp") if s[1] in self.ids
                                     and self.ids[s[1]][3] == "characteristics.advance"),
            "advance": self.count("characteristics.advance"),
            "output_s": self.total(*OUTPUT_SPANS),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, focus_ops, setup_spans, workers: int) -> tuple[dict, dict]:
    """Per-layer metrics over the focus operations, plus a per-N breakdown.

    focus_ops maps an operation's run id to its grid size; the metrics cover
    the operations at the largest size. Sweep cells carry run ids
    (op, index) and count toward their sweep.
    """
    by_run: dict[object, list] = {}
    for span in spans:
        by_run.setdefault(span[2], []).append(span)
    runs_by_op: dict[object, list] = {}
    for run_id, run_spans in by_run.items():
        op = run_id[0] if isinstance(run_id, tuple) else run_id
        runs_by_op.setdefault(op, []).append(_Run(run_spans))
    values = {op: [run.values() for run in runs_by_op.get(op, [])] for op in focus_ops}

    breakdown: dict[int, dict] = {}
    for op, n in sorted(focus_ops.items(), key=lambda item: item[1]):
        entry = breakdown.setdefault(n, {"rhs_ms": [], "step_ms": [], "live_steps": 0,
                                         "continued_steps": 0})
        for run, vals in zip(runs_by_op.get(op, []), values[op]):
            entry["rhs_ms"] += [d * 1e3 for d in run.durations("model.rhs")]
            entry["step_ms"] += [d * 1e3 for d in run.durations("solver.step")]
            entry["live_steps"] += vals["live_steps"]
            entry["continued_steps"] += vals["continued"]
    for entry in breakdown.values():
        entry["rhs_calls"] = len(entry["rhs_ms"])
        entry["rhs_ms"] = _median(entry["rhs_ms"])
        entry["step_ms"] = _median(entry["step_ms"])

    top = max(focus_ops.values())
    ops = [op for op, n in focus_ops.items() if n == top]
    runs = [run for op in ops for run in runs_by_op.get(op, [])]
    vals = [v for op in ops for v in values[op]]
    sims = [v for v in vals if v["simulate"]]

    def total(key):
        return sum(v[key] for v in vals)

    def per_op(key):
        return _median(sum(v[key] for v in values[op]) for op in ops)

    def durations(name, scale):
        return [d * scale for run in runs for d in run.durations(name)]

    cells = durations("cli._sweep_cell", 1.0)
    pool_idle = []
    for op in ops:
        pool = sum(r.total("cli.pool") for r in runs_by_op.get(op, []))
        busy = sum(r.total("cli._sweep_cell") for r in runs_by_op.get(op, []))
        if pool:
            pool_idle.append(1.0 - busy / (workers * pool))
    self_per_op = [self_times([s for r in runs_by_op.get(op, []) for s in r.spans])
                   for op in ops]

    metrics = {
        "grid.fft_per_live_step": _ratio(total("fft_live"), total("live_steps")),
        "grid.fft_points_per_live_step": _ratio(total("fft_points_live"),
                                                total("live_steps")),
        "grid.interp_calls_per_track_sample": _ratio(total("interp_in_advance"),
                                                     total("advance")),
        "grid.interp_us": _median(durations("grid.interp", 1e6)),
        "model.rhs_ms": _median(durations("model.rhs", 1e3)),
        "model.rhs_calls_per_live_step": _ratio(total("rhs_in_steps"), total("live_steps")),
        "model.find_breaking_datum_s": sum(s[5] - s[4] for s in setup_spans
                                           if s[3] == "model.find_breaking_datum"),
        "model.profile_checks_ms": _median(v["profile_s"] * 1e3 for v in sims),
        "solver.live_steps": per_op("live_steps"),
        "solver.continued_steps": per_op("continued"),
        "solver.dt_halvings": per_op("halvings"),
        "solver.step_ms": _median(durations("solver.step", 1e3)),
        "solver.diag_ms_per_step": _ratio(total("diag_s") * 1e3, total("live_steps")),
        "solver.continuation_ms": _median(v["continuation_s"] * 1e3 for v in sims
                                          if v["continuation_s"]),
        "solver.accounted_frac": _ratio(total("accounted_s"), total("run_s")),
        "characteristics.build_aux_ms": _median(durations("characteristics.build_aux", 1e3)),
        "characteristics.advance_ms": _median(durations("characteristics.advance", 1e3)),
        "characteristics.advance_frozen_ms": _median(
            durations("characteristics.advance_frozen", 1e3)),
        "characteristics.track_samples": per_op("track_samples"),
        "criteria.check_ms": _median(v["criteria_s"] * 1e3 for v in sims),
        "diagnostics.estimate_blowup_ms": _median(
            durations("diagnostics.estimate_blowup", 1e3)),
        "cli.output_s": per_op("output_s"),
        "cli.sweep_cell_s": _median(cells),
        "cli.sweep_cell_max_s": max(cells, default=0.0),
        "cli.pool_idle_frac": _median(pool_idle),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _median(t[layer] for t in self_per_op)
    return metrics, breakdown
