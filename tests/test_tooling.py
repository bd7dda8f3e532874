"""Repository tooling: the benchmark tracer (bench/tracing.py) wraps hyplab
entry points by name, every command has a golden, no private name is dead."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _entry_points() -> list[tuple[str, str, str]]:
    """ENTRY_POINTS of bench/tracing.py, read from its source: importing
    the benchmark would run its module code."""
    for stmt in ast.parse(TRACING.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError("bench/tracing.py defines no ENTRY_POINTS list")


def test_tracing_entry_points_resolve():
    # a rename or removal in hyplab must fail here, not silently in
    # `bench/run.py --trace 1`
    entry_points = _entry_points()
    missing = []
    for mod_name, attr, _span in entry_points:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{attr}")
    assert entry_points and missing == []


def test_every_command_has_a_golden():
    # a command without a golden report can change its output unnoticed
    from hyplab.cli import _COMMANDS

    spec = importlib.util.spec_from_file_location(
        "golden_runs", Path(__file__).with_name("test_cli.py"))
    test_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_cli)
    covered = {argv[0] for argv in test_cli.GOLDEN_RUNS.values()}
    assert set(_COMMANDS) - covered == set()


def _defined_names(node) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(node) -> set[str]:
    """Names, attributes, imported names and dotted string constants in node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value.rsplit(".", 1)[-1])  # e.g. a monkeypatch target
    return out


def test_no_unreferenced_private_names():
    # a module-level _name used nowhere but in its own definition is dead code
    sources = sorted((ROOT / "src" / "hyplab").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in sources + sorted((ROOT / "tests").glob("*.py"))}
    private, used = {}, set()
    for path, tree in trees.items():
        for stmt in tree.body:
            own = set(_defined_names(stmt))
            used |= _referenced_names(stmt) - own
            if path in sources:
                private.update((name, path.name) for name in own
                               if name.startswith("_") and not name.startswith("__"))
    dead = sorted(f"{module}:{name}" for name, module in private.items()
                  if name not in used)
    assert dead == []
