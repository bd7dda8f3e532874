"""Repository tooling: the benchmark tracer (bench/tracing.py) wraps hyplab
entry points by name, every command has a golden, no private name is dead,
every public name has a caller and the runtime imports no test oracle."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
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


def _golden_runs() -> dict[str, list[str]]:
    """GOLDEN_RUNS of tests/test_cli.py, by golden file name."""
    spec = importlib.util.spec_from_file_location(
        "golden_runs", Path(__file__).with_name("test_cli.py"))
    test_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_cli)
    return test_cli.GOLDEN_RUNS


def test_every_command_has_a_golden():
    # a command without a golden report can change its output unnoticed
    from hyplab.cli import _COMMANDS

    covered = {argv[0] for argv in _golden_runs().values()}
    assert set(_COMMANDS) - covered == set()


def test_every_kind_has_a_recipe_and_a_golden():
    # a kind outside the recipe table, or without a golden verify report,
    # could be assembled or change its output unnoticed
    verify = importlib.import_module("hyplab.verify")
    kinds = set(verify.InequalityKind)
    assert set(verify._RECIPES) == kinds
    verified = {argv[argv.index("--kind") + 1]
                for argv in _golden_runs().values() if argv[0] == "verify"}
    assert {kind.value for kind in kinds} - verified == set()


def _defined_names(node) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _name_uses(node) -> Counter:
    """Uses of names, attributes, imported names and dotted string constants
    in node, counted."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value.rsplit(".", 1)[-1]] += 1  # e.g. a monkeypatch target
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
            used |= _name_uses(stmt).keys() - own
            if path in sources:
                private.update((name, path.name) for name in own
                               if name.startswith("_") and not name.startswith("__"))
    dead = sorted(f"{module}:{name}" for name, module in private.items()
                  if name not in used)
    assert dead == []


# Public names kept without a caller in src/hyplab, each for its reason.
_UNCALLED_PUBLIC_NAMES = {
    "GreenWeight.green": "acceptance criterion c6 reads G_p",
    "geodesic_distance": "reference of the half-space family test (ROADMAP item 11)",
    "compare_golden": "the golden tests' comparison",
    "HalfSpaceFunction.gradient_norm": "reference integrand of the half-space tests",
    "GreenWeight.w": "acceptance criterion c6 reads W(r)",
}


def _public_definitions(tree):
    """(qualified name, name, node) of the public module-level functions and
    classes and of the public methods of module-level classes."""
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not stmt.name.startswith("_"):
            yield stmt.name, stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for m in stmt.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{stmt.name}.{m.name}", m.name, m


def _attribute_uses(node) -> Counter:
    """Uses of attributes (x.name) in node, counted by name."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def test_every_public_name_has_a_caller():
    # a public name that only tests, __all__ or __init__ reach is dead code
    # unless the benchmark's tracer wraps it or the allowlist says why
    sources = [path for path in sorted((ROOT / "src" / "hyplab").glob("*.py"))
               if path.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    uses = {count: Counter() for count in (_name_uses, _attribute_uses)}
    for tree in trees.values():
        for stmt in tree.body:
            if not _is_all(stmt):
                for count, counter in uses.items():
                    counter.update(count(stmt))
    traced = {(module, attr) for module, attr, _span in _entry_points()}
    uncalled = {}
    for path, tree in trees.items():
        module = f"hyplab.{path.stem}"
        for qualname, name, node in _public_definitions(tree):
            # a method is called through an attribute (x.name); a bare name
            # of the same spelling, such as a local variable, is not a call
            count = _attribute_uses if "." in qualname else _name_uses
            # uses inside its own definition (recursion) are not callers
            if uses[count][name] == count(node)[name] and (module, qualname) not in traced:
                uncalled[qualname] = module
    assert sorted(f"{uncalled[q]}:{q}"
                  for q in uncalled.keys() - _UNCALLED_PUBLIC_NAMES.keys()) == []
    # an allowlisted name that gained a caller or went away leaves the list
    assert _UNCALLED_PUBLIC_NAMES.keys() - uncalled.keys() == set()


# Defaulted parameters that no call in src/hyplab sets, each for its reason.
_DEFAULT_ONLY_PARAMETERS = {
    "main(argv)": "the console entry point calls main() and reads sys.argv",
    "compare_golden(rel_tol)": "the golden tests' comparison; no program path calls it",
}


def _literal(node):
    """The value of a literal expression with its type, or None if the
    expression is not a literal."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return type(value), value


def _callee(call: ast.Call) -> str | None:
    """The called name of f(...) or x.f(...)."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _default_only_parameters(sources, wrappers) -> list[str]:
    """"name(parameter)" of each defaulted parameter of a public function
    or method of the ``sources`` that no call in them passes anything but
    its default literal.  Calls made inside the functions named in
    ``wrappers`` do not count, and their own parameters are not listed."""
    trees = [ast.parse(path.read_text()) for path in sources]
    defaults = {}  # (qualname, parameter) -> (name, position or None, default)
    inside_wrappers = set()  # ids of the nodes of the wrappers' definitions
    for tree in trees:
        for qualname, name, node in _public_definitions(tree):
            if qualname in wrappers:
                inside_wrappers.update(id(n) for n in ast.walk(node))
            if qualname in wrappers or not isinstance(node, ast.FunctionDef):
                continue
            positional = node.args.posonlyargs + node.args.args
            if "." in qualname and positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            pairs = list(zip(positional[len(positional) - len(node.args.defaults):],
                             node.args.defaults))
            pairs += [(arg, d) for arg, d in zip(node.args.kwonlyargs,
                                                 node.args.kw_defaults) if d is not None]
            for arg, default in pairs:
                index = positional.index(arg) if arg in positional else None
                defaults[qualname, arg.arg] = (name, index, _literal(default))
    overridden = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in inside_wrappers:
                continue
            # an unpacked argument may set any parameter
            unpacked = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            for key, (name, index, default) in defaults.items():
                if name != _callee(call):
                    continue
                given = [k.value for k in call.keywords if k.arg == key[1]]
                if index is not None and index < len(call.args):
                    given.append(call.args[index])
                if unpacked or any(_literal(a) is None or _literal(a) != default
                                   for a in given):
                    overridden.add(key)
    return sorted(f"{q}({p})" for q, p in defaults.keys() - overridden)


def test_every_default_is_overridden_somewhere():
    # a parameter every caller leaves at its default is a constant that
    # tests must still cover; the one-call wrappers that only the tracer
    # names neither count as callers nor need callers of their own
    sources = [path for path in sorted((ROOT / "src" / "hyplab").glob("*.py"))
               if path.name != "__init__.py"]
    called = {_callee(n) for path in sources for n in ast.walk(ast.parse(path.read_text()))
              if isinstance(n, ast.Call)}
    wrappers = {q for _m, q, _span in _entry_points() if q.rsplit(".", 1)[-1] not in called}
    unset = _default_only_parameters(sources, wrappers)
    assert sorted(set(unset) - _DEFAULT_ONLY_PARAMETERS.keys()) == []
    # an allowlisted parameter that gained a setting call or went away
    # leaves the list
    assert _DEFAULT_ONLY_PARAMETERS.keys() - set(unset) == set()


def test_golden_diff_says_how_far_two_payloads_differ():
    from hyplab.report import ReportEnvelope, dumps

    spec = importlib.util.spec_from_file_location(
        "golden_diff", ROOT / "tools" / "golden_diff.py")
    golden_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden_diff)

    def report(lhs, passed, fmt):
        rows = [{"kind": "pgap", "N": 3, "p": 2.0, "l": "", "test_function": f"bump{i}",
                 "lhs": x, "rhs": 1.0, "slack": x - 1.0, "quad_error": 1e-12,
                 "passed": ok} for i, (x, ok) in enumerate(zip(lhs, passed))]
        return dumps(ReportEnvelope("verify", {"N": 3}, "inequality_reports", rows), fmt)

    for fmt in ("csv", "json"):
        def diff(lhs, passed):
            return golden_diff.payload_difference(
                report([1.5, 2.0], [True, True], fmt), report(lhs, passed, fmt), fmt)

        assert diff([1.5, 2.0], [True, True]) == "payloads equal"
        # two ulps of 2.0 in lhs and slack, one flag flipped
        assert diff([1.5, 2.0 + 2 * 2.0**-51], [True, False]) == (
            "largest relative difference: lhs 4.4e-16, slack 8.9e-16; "
            "differing cells: passed 1")
        assert diff([1.5, float("inf")], [True, True]) == (
            "largest relative difference: lhs inf, slack inf")
        assert diff([1.5], [True]) == "rows 2 -> 1"
        # an error path writes no report
        assert golden_diff.payload_difference("", report([1.5], [True], fmt), fmt) == ""


def test_runtime_imports_no_test_oracle():
    # pyproject.toml declares numpy as the one runtime dependency; the
    # scipy and mpmath oracles of the tests and tools stay out of it
    code = ("import sys, hyplab.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} "
            "& {'scipy', 'mpmath', 'hypothesis', 'pytest'}))")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_verify_takes_every_integral_from_integrals():
    # verify holds the recipes, scans and checkers; every integral it reads
    # comes from hyplab.integrals, so of the engines it names only QuadResult
    tree = ast.parse((ROOT / "src" / "hyplab" / "verify.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("quadrature"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the module itself, as in "from . import quadrature"
            names += [alias.name for alias in node.names if alias.name.endswith("quadrature")]
    assert names == ["QuadResult"]
