"""chbreak benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Runs from a checkout and imports chbreak from its src/ directory. With
--trace 0 it reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, ok_frac); with --trace 1 the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object; a fuller
record goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib only at import time)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                   help="grid sizes; 'tiny' is for the smoke test")
    p.add_argument("--prepare", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)   # one timed set-up, run in a child
    return p.parse_args(argv)


def _import_chbreak():
    import chbreak

    origin = Path(chbreak.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: chbreak imported from {origin}, not from {SRC}")


def _timed_setups(args, work: Path) -> tuple[list[float], dict]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter; keep the last inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--prepare", str(out),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up failed with exit code {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    inputs = json.loads((out / "inputs.json").read_text(encoding="utf-8"))
    return times, inputs


def _install_capture(captured: list) -> None:
    """Keep the RunOutcome of each simulate call for the track gate."""
    from chbreak import cli

    real = cli.run

    def run(*args, **kwargs):
        outcome = real(*args, **kwargs)
        captured.append(outcome)
        return outcome

    cli.run = run


def _cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _machine() -> dict:
    import importlib.util

    import numpy
    import scipy

    backend = "pocketfft" if importlib.util.find_spec("numpy.fft._pocketfft") else "unknown"
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fft_backend": f"numpy.fft ({backend})"}


def _iteration(k: int, inputs: dict, work: Path, captured: list, tracer) -> dict:
    """Every operation of the workload once, then its gates."""
    results = []
    cpu0 = _cpu_seconds()
    for op in inputs["ops"]:
        if tracer is not None:
            tracer.run = f"it{k}/{op['name']}"
        results.append(workloads.execute(op, work / f"it{k}" / op["name"], captured))
    cpu = _cpu_seconds() - cpu0
    problems = workloads.CHECKS[inputs["workload"]](results, inputs["gates"])
    return {"traced": tracer is not None and tracer.active,
            "wall": sum(r["elapsed"] for r in results), "cpu": cpu,
            "problems": problems,
            "digests": [workloads.digest(r["dir"]) for r in results],
            "bytes": [workloads.bytes_written(r["dir"]) for r in results]}


def _rerun_gate(iterations, inputs, work, captured) -> None:
    """Two runs in one invocation must write byte-identical outputs.

    A mismatch fails the operation (for a sweep, its first cell).
    """
    first = iterations[0]["digests"]
    for it in iterations[1:]:
        for i, op in enumerate(inputs["ops"]):
            if it["digests"][i] != first[i]:
                it["problems"][i].append(f"{op['name']}: rerun wrote different bytes")
    if len(iterations) == 1:
        # one timed pass only (the ladder): rerun its cheapest operation
        op = inputs["ops"][0]
        again = workloads.execute(op, work / "rerun" / op["name"], captured)
        if workloads.digest(again["dir"]) != first[0]:
            iterations[0]["problems"][0].append(f"{op['name']}: rerun wrote different bytes")


def _layer_metrics(tracer, iterations, inputs, setup_spans):
    import tracing

    top = max(op["n"] for op in inputs["ops"])
    traced = [it for it in iterations if it["traced"]]
    focus = {f"it{k}/{op['name']}": op["n"]
             for k, it in enumerate(iterations) if it["traced"] for op in inputs["ops"]}
    metrics, breakdown = tracing.layer_metrics(
        tracer.spans, focus, setup_spans, inputs.get("workers", 1))
    metrics["cli.bytes_written"] = statistics.median(
        b for it in traced for op, b in zip(inputs["ops"], it["bytes"]) if op["n"] == top)
    metrics["trace.overhead"] = (
        statistics.median(it["wall"] for it in traced)
        / statistics.median(it["wall"] for it in iterations if not it["traced"]))
    absent = tracing.absent_metrics(tracer.missing)
    for name in absent:
        metrics[name] = 0.0
    metrics = {name: metrics[name] for name in tracing.METRICS}
    units = {name: spec[0] for name, spec in tracing.METRICS.items()}
    return metrics, units, breakdown, absent


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "chbreak" / "__init__.py").is_file():
        print(f"error: no chbreak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.prepare:
        _import_chbreak()
        workloads.prepare(args.workload, args.seed, args.scale, Path(args.prepare))
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_fft(tracer)
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / "out"))
    try:
        return _measure(args, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, tracer, work: Path) -> int:
    setup_times, setup_spans = [], []
    if tracer is None:
        setup_times, inputs = _timed_setups(args, work)
        _import_chbreak()
    else:
        import tracing

        _import_chbreak()
        tracing.install(tracer)
        tracer.run, tracer.active = "setup", True
        inputs = workloads.prepare(args.workload, args.seed, args.scale, work / "setup")
        tracer.active = False
        setup_spans, tracer.spans = tracer.spans, []
    captured: list = []
    _install_capture(captured)

    iterations = []
    t0 = time.perf_counter()
    while True:
        k = len(iterations)
        if tracer is not None:
            tracer.active = k % 2 == 1    # alternate untraced and traced passes
        iterations.append(_iteration(k, inputs, work, captured, tracer))
        if tracer is not None:
            tracer.active = False
        elapsed = time.perf_counter() - t0
        if elapsed + iterations[-1]["wall"] > args.seconds and (tracer is None or k >= 1):
            break
    _rerun_gate(iterations, inputs, work, captured)

    # an operation is a simulate call or a sweep cell; CHECKS lists problems per operation
    per_op = [probs for it in iterations for probs in it["problems"]]
    attempted = len(per_op)
    failed = sum(1 for probs in per_op if probs)
    problems = [msg for probs in per_op for msg in probs]
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    wall = [it["wall"] for it in plain]
    cpu = [it["cpu"] for it in plain]

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(cpu),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
        breakdown, absent = {}, []
    else:
        metrics, units, breakdown, absent = _layer_metrics(
            tracer, iterations, inputs, setup_spans)

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "samples": {"wall_s": len(wall), "cpu_s": len(cpu), "setup_s": len(setup_times),
                    "traced_iterations": len(traced)},
        "sample_values": {"wall_s": wall, "cpu_s": cpu, "setup_s": setup_times,
                          "traced_wall_s": [it["wall"] for it in traced]},
        "result": line, "per_n": breakdown,
        "absent": absent, "missing_names": [] if tracer is None else tracer.missing,
        "problems": problems,
    }
    if tracer is not None:
        record["spans_file"] = f"{stem}-spans.jsonl.gz"
        tracer.spans = setup_spans + tracer.spans
        tracer.dump(str(results_dir / record["spans_file"]))
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                              encoding="utf-8")
    for msg in problems:
        print(f"gate: {msg}", file=sys.stderr)
    for name in absent:
        print(f"absent: {name} (a wrapped name no longer exists)", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
