"""Paired benchmark runs against a baseline tree:
`python tools/pairs.py BASELINE_DIR --output BENCH_N.json`.

Copies the `src/` and `perfbench/` of BASELINE_DIR (a checkout of another
commit) and of this tree into two scratch directories whose paths have the
same length: a process's heap layout, and so its peak RSS, moves with the
length of the paths it imports from.  Then, per workload of BENCHMARK.json,
it runs `perfbench/run.py --workload W --seed S --seconds N --trace 0` in
each copy, N the benchmark's run_seconds, the two trees one after the
other, for --pairs pairs; pair k uses the seed --seed + k on both sides, and
the trees take turns at running first.  The host's load averages
(os.getloadavg) are read just before each run, and printed per pair, since
this host's speed moves in phases.

Per workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the pairs that the change wins, and whether the gain
resolves: the change wins at least 9 in 10 of the pairs, and the medians
differ by more than the baseline's interquartile range.  The same data, with
every run's metrics and load, the seeds, the settings and the host, go to
--output as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE_PARTS = ("src", "perfbench")
WIN_SHARE = 0.9


def summarize(baseline: list[float], change: list[float], better: str) -> dict:
    """Each side's quartiles [q1, median, q3] over the pairs (baseline[k],
    change[k]), the pairs the change wins (strictly better), the gap by which
    its median beats the baseline's, the baseline's interquartile range, and
    whether the gain resolves: wins in at least WIN_SHARE of the pairs and a
    gap wider than that range."""
    if len(baseline) != len(change) or len(baseline) < 2:
        raise ValueError(f"need two or more pairs, got {len(baseline)} and {len(change)} runs")
    sign = {"lower": 1, "higher": -1}[better]
    quartiles = {side: statistics.quantiles(values, n=4)
                 for side, values in (("baseline", baseline), ("change", change))}
    wins = sum(sign * (b - c) > 0 for b, c in zip(baseline, change))
    gap = sign * (quartiles["baseline"][1] - quartiles["change"][1])
    iqr = quartiles["baseline"][2] - quartiles["baseline"][0]
    return {**quartiles, "pairs": len(baseline), "wins": wins, "gap": gap,
            "baseline_iqr": iqr, "resolved": wins >= WIN_SHARE * len(baseline) and gap > iqr}


def copy_tree(source: Path, target: Path) -> Path:
    for part in TREE_PARTS:
        shutil.copytree(source / part, target / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    return target


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one perfbench/run.py in tree, {"correct",
    "attempted", "failed", "metrics"}, with "load": the host's 1, 5 and 15
    minute load averages just before the run."""
    load = list(os.getloadavg())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=30 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {**json.loads(proc.stdout.splitlines()[-1]), "load": load}


def label(tree: Path) -> str:
    """The tree's commit (git describe), or its directory's name outside git."""
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else tree.name


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        return next((line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")), platform.machine())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="the other tree's root, holding src/")
    parser.add_argument("--output", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="the first pair's seed")
    args = parser.parse_args(argv)
    baseline = args.baseline.resolve()
    if not all((baseline / part).is_dir() for part in TREE_PARTS):
        parser.error(f"{baseline} lacks one of {', '.join(TREE_PARTS)}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    report = {
        "trees": {"baseline": label(baseline), "change": label(ROOT)},
        "settings": {"pairs": args.pairs, "seconds": seconds, "trace": 0,
                     "seeds": [args.seed + k for k in range(args.pairs)],
                     "first": ["change" if k % 2 else "baseline" for k in range(args.pairs)]},
        "host": {"cpu": cpu_model(), "cpus": len(os.sched_getaffinity(0)),
                 "platform": platform.platform(), "python": platform.python_version()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        trees = {"baseline": copy_tree(baseline, Path(work, "a")),
                 "change": copy_tree(ROOT, Path(work, "b"))}
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = {"baseline": [], "change": []}
            for seed, first in zip(report["settings"]["seeds"], report["settings"]["first"]):
                for side in sorted(trees, key=lambda side: side != first):
                    runs[side].append(bench(trees[side], workload, seed, seconds))
                print(f"{workload} seed {seed} load: " + ", ".join(
                    f"{side} {'/'.join(f'{v:.2f}' for v in runs[side][-1]['load'])}"
                    for side in sorted(trees, key=lambda side: side != first)), flush=True)
            summary = {}
            for metric, better in metrics.items():
                values = {side: [r["metrics"][metric]["value"] for r in runs[side]]
                          for side in runs}
                summary[metric] = s = summarize(values["baseline"], values["change"], better)
                print(f"{workload} {metric} ({better} is better): baseline {s['baseline'][1]:.6g} "
                      f"[{s['baseline'][0]:.6g}, {s['baseline'][2]:.6g}], change "
                      f"{s['change'][1]:.6g} [{s['change'][0]:.6g}, {s['change'][2]:.6g}], "
                      f"wins {s['wins']}/{s['pairs']}, gap {s['gap']:.3g} against IQR "
                      f"{s['baseline_iqr']:.3g}: {'resolved' if s['resolved'] else 'unresolved'}",
                      flush=True)
            failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
            print(f"{workload} failed runs: baseline {failed['baseline']}, change "
                  f"{failed['change']}", flush=True)
            report["workloads"][workload] = {"metrics": summary, "failed": failed, "runs": runs}
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
