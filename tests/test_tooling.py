"""The package names that the benchmark harness (perfbench/) and the
acceptance gate import, and the functions that the harness's call trace
wraps, still exist.  Tier-1 does not collect perfbench/, so without this
check a removed or renamed name would surface only when the benchmark runs,
and a trace target that is not found reads as 0 calls rather than failing.
The files are parsed, not imported or run."""

import ast
import importlib
import json
import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _package_imports(path: Path):
    """(module, name) for each `from squeezetransfer... import name`, and
    (module, None) for each `import squeezetransfer...`, in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "squeezetransfer":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "squeezetransfer")


def _exists(module: str, name) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")  # a submodule not yet imported
        return True
    except ImportError:
        return False


def test_benchmark_and_acceptance_imports_exist():
    imports = {(path.relative_to(ROOT).as_posix(), *imp)
               for path in READERS for imp in _package_imports(path)}
    assert {file for file, *_ in imports} >= {"perfbench/spotcheck.py", "tests/test_acceptance.py"}
    missing = sorted(f"{file}: {module}.{name}" for file, module, name in imports
                     if not _exists(module, name))
    assert missing == []


def _trace_targets(path: Path):
    """(module, attr) of each Target(metric, module, attr, ...) in TARGETS."""
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            for call in node.value.elts:
                yield tuple(ast.literal_eval(arg) for arg in call.args[1:3])


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(f"squeezetransfer.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_call_trace_targets_exist():
    targets = list(_trace_targets(ROOT / "perfbench" / "calltrace.py"))
    assert ("dynamics", "evolve_closed_form_grid") in targets
    assert [f"{module}.{attr}" for module, attr in targets if not _resolves(module, attr)] == []


def _pairs_tool():
    """tools/pairs.py, loaded from its file; loading it runs no benchmark."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_summary_on_fixed_numbers():
    summarize = _pairs_tool().summarize
    base = [float(v) for v in range(10, 20)]  # quartiles 11.75, 14.5, 17.25: IQR 5.5

    def verdict(change, better="lower"):
        summary = summarize(base, change, better)
        return summary["wins"], summary["gap"], summary["resolved"]

    assert summarize(base, [v - 6 for v in base], "lower") == {
        "baseline": [11.75, 14.5, 17.25], "change": [5.75, 8.5, 11.25],
        "pairs": 10, "wins": 10, "gap": 6.0, "baseline_iqr": 5.5, "resolved": True}
    assert verdict([v + 6 for v in base], "higher") == (10, 6.0, True)
    assert verdict([v + 6 for v in base]) == (0, -6.0, False)
    # every pair won, but a median gap inside the baseline's IQR
    assert verdict([v - 5 for v in base]) == (10, 5.0, False)
    # a tie is not a win: 9 of 10 still resolves, 8 of 10 does not
    tied = [v - 8 for v in base]
    tied[0] = base[0]
    assert verdict(tied) == (9, 7.0, True)
    tied[1] = base[1] + 1
    assert verdict(tied) == (8, 6.0, False)


def test_pairs_records_the_load_before_each_run(monkeypatch):
    """bench reads the host's load averages before it starts run.py (here a
    stand-in that returns a fixed line) and keeps them in the run's entry."""
    pairs = _pairs_tool()
    line = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 0.2}}}
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return subprocess.CompletedProcess(argv, 0, f"log\n{json.dumps(line)}\n", "")

    monkeypatch.setattr(os, "getloadavg", lambda: calls.append("load") or (0.5, 1.25, 2.0))
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    entry = pairs.bench(ROOT, "grid_closed_form", 7, 6)
    assert entry == {**line, "load": [0.5, 1.25, 2.0]}
    assert all(isinstance(v, float) for v in entry["load"])
    assert calls == ["load", [pairs.sys.executable, "perfbench/run.py", "--workload", "grid_closed_form",
                      "--seed", "7", "--seconds", "6", "--trace", "0"]]
