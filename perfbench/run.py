"""Benchmark of the squeezetransfer CLI, one fresh process per CLI run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics: set-up time (cold
interpreter start plus `import squeezetransfer.sweep`), CLI wall time, grid
cells per second inside `sweep.main`, and peak RSS of the CLI process.  With
--trace 1 it alternates untraced and traced CLI runs and reports per-layer
call counts and self times (calltrace.py), the import breakdown from
`python -X importtime`, and the tracing overhead.  Every output file is checked (spotcheck.py); a
failed check counts the run as failed.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
sys.path.insert(0, str(SRC))

import calltrace  # noqa: E402
import spotcheck  # noqa: E402
import squeezetransfer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 16
IMPORTTIME_SAMPLES = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
MIB = 1024 * 1024
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")
IMPORT_CMD = "import squeezetransfer.sweep"


def child_env() -> dict[str, str]:
    """The package from this checkout, and single-threaded numeric libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args: list[str], env: dict[str, str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True, **kwargs
    )


def timed_run(cmd: list[str], env: dict[str, str], **kwargs) -> tuple[int, float]:
    """(exit status, wall seconds) of one child process, killed if it overruns.
    The blocking wait keeps the wall time exact, where subprocess's timeout
    polling would round it up by up to 50 ms."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, **kwargs)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        status = proc.wait()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return status, wall


def time_setup(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that only imports the CLI module."""
    status, wall = timed_run([sys.executable, "-c", IMPORT_CMD], env)
    if status != 0:
        raise RuntimeError(f"`{IMPORT_CMD}` exited with status {status}")
    return wall


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of import self time attributed to numpy, scipy and the package.

    A module counts toward the nearest of those three that it is, or that
    imported it; anything else (interpreter start-up) is left out.
    """
    families = {"numpy": "numpy", "scipy": "scipy", "squeezetransfer": "package"}
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), self_us))
    totals = dict.fromkeys(families.values(), 0.0)
    ancestors: list[str | None] = []  # family by depth; a parent is printed after its children
    for depth, name, self_us in reversed(entries):
        inherited = ancestors[depth - 1] if 0 < depth <= len(ancestors) else None
        family = families.get(name.split(".")[0], inherited)
        del ancestors[depth:]
        ancestors.append(family)
        if family is not None:
            totals[family] += self_us / 1e6
    return totals


def import_breakdown(env: dict[str, str], samples: int) -> dict[str, float]:
    runs = [
        parse_importtime(_python(["-X", "importtime", "-c", IMPORT_CMD], env, capture_output=True, text=True).stderr)
        for _ in range(samples)
    ]
    return {f"setup.{k}_import_s": statistics.median(r[k] for r in runs) for k in runs[0]}


@dataclass
class CliRun:
    traced: bool
    wall_s: float
    failures: list[str]
    main_s: float | None = None
    peak_rss_mb: float | None = None
    output_bytes: int = 0
    gauges: dict = field(default_factory=dict)
    trace: dict | None = None


def run_cli(workload, argv: list[str], output: Path, work: Path, expected, env, traced: bool) -> CliRun:
    """One CLI process on `argv`, which writes `output`; then its checks."""
    result_path, trace_path = work / "result.json", work / "trace.json"
    for p in (result_path, trace_path, output):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(result_path), str(trace_path) if traced else "-", *argv]
    with open(work / "child.log", "wb") as log:
        status, wall = timed_run(cmd, env, stdout=log, stderr=subprocess.STDOUT)
    run = CliRun(traced, wall, [])
    if status != 0:
        run.failures.append(f"CLI exit status {status}: {(work / 'child.log').read_text(errors='replace')[-500:]}")
        return run
    result = json.loads(result_path.read_text())
    run.main_s = result["main_s"]
    run.peak_rss_mb = result["peak_rss_kib"] / 1024
    run.output_bytes = output.stat().st_size
    run.failures, run.gauges = spotcheck.check_output(str(output), workload, expected)
    if traced:
        run.trace = json.loads(trace_path.read_text())
    return run


def _median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no successful CLI run to take a median from")
    return statistics.median(values)


def collect(
    workload, inputs, seconds: int, trace: bool, expected
) -> tuple[CliRun, list[CliRun], list[float], dict[str, float]]:
    """A warm-up CLI run, then CLI runs for about `seconds`, with set-up
    samples (untraced) or the import breakdown (traced).  Traced mode
    alternates untraced and traced runs."""
    env = child_env()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        params_path = work / "params.json"
        params_path.write_text(json.dumps(inputs.params))
        output = work / f"out.{workload.output_format}"
        argv = workload.argv(str(params_path), str(output))
        _python(["-c", IMPORT_CMD], env)  # writes the bytecode cache
        breakdown = import_breakdown(env, IMPORTTIME_SAMPLES) if trace else {}
        # One untimed CLI run first, so that no timed run pays for first use
        # of the files and memory that every later run reuses.  Its output is
        # checked like the others.
        warmup = run_cli(workload, argv, output, work, expected, env, traced=False)
        runs: list[CliRun] = []
        setup: list[float] = []
        start = time.perf_counter()
        while len(runs) < (2 if trace else MIN_RUNS) or time.perf_counter() < start + seconds:
            runs.append(run_cli(workload, argv, output, work, expected, env, traced=trace and len(runs) % 2 == 1))
            # Set-up samples are spread over the run, so that they and the CLI
            # runs see the same machine conditions.
            while not trace and len(setup) < SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / seconds):
                setup.append(time_setup(env))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return warmup, runs, setup, breakdown


def end_to_end_metrics(workload, runs: list[CliRun], setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """{metric: (median, unit, sample count)} from untraced runs."""
    ok = [r for r in runs if r.main_s is not None]
    return {
        "wall_s": (_median([r.wall_s for r in runs]), "s", len(runs)),
        "setup_s": (_median(setup), "s", len(setup)),
        "cells_per_s": (_median([workload.n_cells / r.main_s for r in ok]), "cells/s", len(ok)),
        "peak_rss_mb": (_median([r.peak_rss_mb for r in ok]), "MB", len(ok)),
    }


def layer_metrics(
    traced: list[CliRun], plain: list[CliRun], breakdown: dict[str, float], var_gap: float
) -> dict[str, tuple[float, str]]:
    """{metric: (value, unit)} from traced runs; an absent function reads 0."""
    if not traced:
        raise RuntimeError("no successful traced run")
    stats = [r.trace["stats"] for r in traced]

    def stat(metric: str, key: str) -> list[float]:
        return [s[metric][key] for s in stats if metric in s]

    metrics: dict[str, tuple[float, str]] = {}
    for target in calltrace.TARGETS:
        metrics[f"{target.metric}.calls"] = (max(stat(target.metric, "calls"), default=0), "count")
        self_s = stat(target.metric, "self_s")
        metrics[f"{target.metric}.self_s"] = (statistics.median(self_s) if self_s else 0.0, "s")
    emit_s = statistics.median(stat("sweep.emit", "total_s") or [0.0])
    out_bytes = traced[-1].output_bytes
    metrics.update({
        "sweep.main.total_s": (statistics.median(stat("sweep.main", "total_s") or [0.0]), "s"),
        "sweep.emit.bytes": (out_bytes, "B"),
        "sweep.emit.mb_per_s": (out_bytes / MIB / emit_s if emit_s > 0 else 0.0, "MB/s"),
        "dynamics.max_method_disagreement": (max(r.gauges["max_method_disagreement"] for r in traced), "abs"),
        "witness.xi_e2.nan_cells": (max(r.gauges["xi_e2_nan_cells"] for r in traced), "count"),
        "trace.overhead_s": (_median([r.wall_s for r in traced]) - _median([r.wall_s for r in plain]), "s"),
        "check.var_cf_vs_generic_max": (var_gap, "abs"),
        **{k: (v, "s") for k, v in breakdown.items()},
    })
    return metrics


def measure(name: str, seed: int, seconds: int, trace: bool) -> tuple[int, int, dict[str, tuple[float, str]]]:
    """(attempted, failed, {metric: (value, unit)}) for one workload; prints a summary."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, seed)
    expected, var_gap = spotcheck.oracle_values(workload, inputs)
    warmup, runs, setup, breakdown = collect(workload, inputs, seconds, trace, expected)

    checked = [warmup, *runs]
    failed = [r for r in checked if r.failures]
    for r in failed:
        print(f"{name}: FAILED run: {'; '.join(r.failures)}", file=sys.stderr)
    plain = [r for r in runs if not r.traced]
    print(f"{name} seed {seed}: {len(checked)} CLI runs (1 warm-up), {len(failed)} failed, "
          f"error_rate {len(failed) / len(checked):.4g} ratio, correct {not failed}")
    if not trace:
        e2e = end_to_end_metrics(workload, plain, setup)
        for metric, (value, unit, count) in e2e.items():
            print(f"  {metric:<12} {value:12.6g} {unit:<8} median of {count}")
        return len(checked), len(failed), {k: (v, u) for k, (v, u, _) in e2e.items()}

    traced = [r for r in runs if r.traced and r.trace is not None]
    metrics = layer_metrics(traced, plain, breakdown, var_gap)
    absent = sorted({m for r in traced for m in r.trace["absent"]})
    main_s = metrics["sweep.main.total_s"][0]
    print(f"  {len(traced)} traced, {len(plain)} untraced runs; absent: {', '.join(absent) or 'none'}")
    for metric, (value, unit) in sorted(metrics.items()):
        share = f"{100 * value / main_s:6.2f}% of main" if metric.endswith("self_s") and main_s else ""
        print(f"  {metric:<48} {value:12.6g} {unit:<6} {share}")
    with open(OUT / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "absent": absent, "spans": traced[-1].trace["spans"]}, fh)
    return len(checked), len(failed), metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not Path(squeezetransfer.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported squeezetransfer from {squeezetransfer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        a, f, m = measure(name, args.seed, args.seconds, bool(args.trace))
        bad = [k for k in m if not METRIC_NAME.match(k)]
        if bad:
            raise RuntimeError(f"invalid metric names: {bad}")
        attempted, failed = attempted + a, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
