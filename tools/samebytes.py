"""Same bytes against a baseline tree: `python tools/samebytes.py BASELINE_DIR`.

Runs one fixed list of CLI argvs on this tree and on BASELINE_DIR (a
checkout of another commit, with its `src/`), each once per tree in a fresh
process with one BLAS thread and in a fresh directory, and compares the
output file (absent in both counts as equal; for a directory target, the
names it holds), stdout, stderr and the exit status.  The output and params
paths are relative, so the messages of both trees name the same files.  It
prints one line per argv and exits 1 on any difference.

The list: the benchmark's argvs with the params of `perfbench/workloads`'
`make_inputs` seeds 1-3; the default run, `--method both`, `--format json`,
`--format json --method both` (whose `method_disagreement` zeros go
through the JSON encoder's special kinds) and a `numeric_oracle` grid; a
1x40001 separable row under the three methods; the separable all-seven
`--method both` run (exit 1); phases that overflow, in a short and in a
long row (exit 1); a separable `--method both` grid at lam = 2 with a
nonzero detuning and offsets, which pins zeta in units of lam and H
without its global offset; three 1x41 `--method both` rows over the six
observables other than xi_e2 whose H is large, which pin the structural
checks relative to H's size: the entangled branch at mu = 1e8 and the
separable one at lambda = 1e4 (both at zeta = 0.5) and at zeta = 1e4; and
the default
run as CSV and as JSON into a FIFO (an output path ending in `.fifo`) and
into a pipe (`.pipe`, passed as `--output /dev/fd/N`), whose bytes are read
to EOF as the run writes them; and the default run into a directory (`.dir`,
made with os.mkdir), which exits 1 after any part that it started is
killed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave the benchmark's directory as it is

from workloads import WORKLOADS, make_inputs  # noqa: E402

WIDE = "ineq_a,ineq_p,ossi_full,xi,var_x1,var_x2"
ALL_SEVEN = "ineq_a,ineq_p,ossi_full,xi,xi_e2,var_x1,var_x2"


def cases() -> list[tuple[str, list[str], dict | None]]:
    """(label, argv, params) for each run; argv writes to out.csv or
    out.json, and reads params.json when params are given."""
    runs = []
    for name, workload in WORKLOADS.items():
        out = f"out.{workload.output_format}"
        for seed in (1, 2, 3):
            runs.append((f"{name} seed {seed}", workload.argv("params.json", out),
                         make_inputs(workload, seed).params))
    for label, argv in (
        ("default", []),
        ("both", ["--method", "both"]),
        ("json", ["--format", "json"]),
        ("json both", ["--format", "json", "--method", "both"]),
        ("numeric_oracle 21x101", ["--method", "numeric_oracle", "--steps", "21", "101"]),
        *((f"separable 1x40001 {m}", ["--branch", "separable", "--zeta", "0.5", "--steps", "1",
                                      "40001", "--observables", WIDE, "--method", m])
          for m in ("closed_form", "numeric_oracle", "both")),
        ("separable 21x401 all seven both", ["--branch", "separable", "--zeta-range", "0", "2",
                                             "--steps", "21", "401", "--observables",
                                             ALL_SEVEN, "--method", "both"]),
        *((f"overflow 1x{nt} {m}", ["--zeta", "1", "--time-range", "0", "1e308", "--steps",
                                    "1", nt, "--method", m])
          for nt in ("3", "2001") for m in ("both", "numeric_oracle")),
    ):
        out = "out.json" if "json" in argv else "out.csv"
        runs.append((label, argv + ["--output", out], None))
    runs.append(("separable 21x101 both at lam 2 with offsets",
                 ["--branch", "separable", "--method", "both", "--steps", "21", "101",
                  "--params-file", "params.json", "--output", "out.csv"],
                 {"lam": 2, "mu": 0.1, "eta": -0.05, "e_g": 3, "e_e": 3}))
    for label, branch, params, zeta in (("mu 1e8", "entangled", {"mu": 1e8}, "0.5"),
                                        ("lambda 1e4", "separable", {"lambda": 1e4}, "0.5"),
                                        ("zeta 1e4", "separable", {}, "1e4")):
        runs.append((f"{branch} 1x41 both at {label}",
                     ["--branch", branch, "--method", "both", "--zeta", zeta, "--steps", "1",
                      "41", "--observables", WIDE, "--params-file", "params.json",
                      "--output", "out.csv"], params))
    for target in ("FIFO", "pipe"):
        for fmt in ("csv", "json"):
            runs.append((f"default {fmt} into a {target}",
                         ["--format", fmt, "--output", f"out.{fmt}.{target.lower()}"], None))
    runs.append(("default into a directory", ["--output", "out.dir"], None))
    return runs


def read_while(read: int, hold: int, start):
    """(the bytes read from the descriptor read while start() runs, start()'s
    result).  This process holds hold, a write end of the same FIFO or pipe,
    until start() returns, so the reader sees EOF only then, even if the run
    never opens its target."""
    pieces = []

    def drain():
        while piece := os.read(read, 1 << 16):
            pieces.append(piece)

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        result = start()
    finally:
        os.close(hold)
        reader.join()
        os.close(read)
    return b"".join(pieces), result


def run(tree: Path, argv: list[str], params: dict | None) -> tuple:
    """(output bytes or None, stdout, stderr, exit status) of one CLI run;
    for a FIFO or pipe output, the bytes read from it; for a directory, the
    names it holds after the run.  A pipe's write end is passed to the run
    as /dev/fd/N, with the same N in every run, as each run closes both
    ends."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="samebytes-") as work:
        if params is not None:
            Path(work, "params.json").write_text(json.dumps(params))
        at = argv.index("--output") + 1
        out, keep = Path(work, argv[at]), ()

        def start():
            return subprocess.run([sys.executable, "-m", "squeezetransfer", *argv], cwd=work,
                                  env=env, capture_output=True, timeout=600, pass_fds=keep)

        if out.suffix == ".fifo":
            os.mkfifo(out)
            # the read end opens without waiting for a writer
            read = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
            hold = os.open(out, os.O_WRONLY)
            os.set_blocking(read, True)
            data, proc = read_while(read, hold, start)
        elif out.suffix == ".pipe":
            read, hold = os.pipe()
            argv, keep = [*argv[:at], f"/dev/fd/{hold}", *argv[at + 1:]], (hold,)
            data, proc = read_while(read, hold, start)
        elif out.suffix == ".dir":
            os.mkdir(out)
            proc = start()
            data = "\n".join(sorted(os.listdir(out))).encode()
        else:
            proc = start()
            data = out.read_bytes() if out.exists() else None
    return data, proc.stdout, proc.stderr, proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="the other tree's root, holding src/")
    baseline = parser.parse_args(argv).baseline.resolve()
    if not (baseline / "src" / "squeezetransfer").is_dir():
        parser.error(f"{baseline} holds no src/squeezetransfer")
    differ, runs = 0, cases()
    for label, args, params in runs:
        here, there = run(ROOT, args, params), run(baseline, args, params)
        fields = [f for f, a, b in zip(("output", "stdout", "stderr", "status"), here, there)
                  if a != b]
        differ += bool(fields)
        status = f"differ in {', '.join(fields)}" if fields else "same"
        print(f"{label}: exit {here[3]}, {status}", flush=True)
    print(f"{differ} of {len(runs)} argvs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
