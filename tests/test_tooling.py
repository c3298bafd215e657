"""The package names that the benchmark harness (perfbench/) and the
acceptance gate import, and the functions that the harness's call trace
wraps, still exist.  Tier-1 does not collect perfbench/, so without this
check a removed or renamed name would surface only when the benchmark runs,
and a trace target that is not found reads as 0 calls rather than failing.
The files are parsed, not imported or run."""

import ast
import importlib
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
