"""The benchmark tracer (bench/tracing.py) wraps hyplab entry points by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracing_entry_points_resolve():
    # a rename in hyplab must fail here, not silently in `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr, _span in tracing.ENTRY_POINTS:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{attr}")
    assert tracing.ENTRY_POINTS and missing == []


def test_every_command_has_a_golden():
    # a command without a golden report can change its output unnoticed
    from hyplab.cli import _COMMANDS

    spec = importlib.util.spec_from_file_location(
        "golden_runs", Path(__file__).with_name("test_cli.py"))
    test_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_cli)
    covered = {argv[0] for argv in test_cli.GOLDEN_RUNS.values()}
    assert set(_COMMANDS) - covered == set()
