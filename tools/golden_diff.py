"""Compare the CLI output of two source trees, command by command.

    python tools/golden_diff.py OLD_SRC NEW_SRC ['COMMAND ARGS' ...]

OLD_SRC and NEW_SRC are directories that hold a ``hyplab`` package, such
as the ``src`` directories of two checkouts.  Every ``GOLDEN_RUNS``
command of ``tests/test_cli.py``, and each extra command given as one
quoted string, runs twice, with ``--format csv`` and with
``--format json``, each in a fresh interpreter with that tree first on
PYTHONPATH.  The names and formats whose stdout, stderr or exit code
differ between the trees are listed; the exit code is 1 if any differ,
else 0.  The goldens compare numbers to 1e-12 relative, while this
compares bytes, so it checks a change meant to keep every report
byte-identical.  Where two reports differ, a second line says by how
much: the row counts if they differ, else the largest relative
difference in each numeric column and the number of differing cells in
each other column, so a change that moves values by a few ulps shows
how far.  Some cell reports depend on the host, so run both trees on
one host.
"""

from __future__ import annotations

import importlib.util
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hyplab.report import parse  # noqa: E402


def golden_runs() -> dict[str, list[str]]:
    """GOLDEN_RUNS of tests/test_cli.py, by golden file name."""
    spec = importlib.util.spec_from_file_location(
        "golden_runs", ROOT / "tests" / "test_cli.py")
    test_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_cli)
    return test_cli.GOLDEN_RUNS


FORMATS = ("csv", "json")


def run(src: Path, argv: list[str], fmt: str) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "hyplab.cli", *argv, "--format", fmt],
        env=env, capture_output=True, check=False,
    )
    return done.stdout, done.stderr, done.returncode


def _relative(a, b) -> float:
    """|a - b| / max(|a|, |b|): 0 where a == b, inf where only one is
    infinite (reports hold no NaN)."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def payload_difference(old: str, new: str, fmt: str) -> str:
    """How the payloads of two reports differ, in one line; empty when
    either report does not parse (an error path prints none)."""
    try:
        a, b = parse(old, fmt), parse(new, fmt)
    except ValueError:  # SchemaMismatch and JSON errors included
        return ""
    if a["payload_kind"] != b["payload_kind"]:
        return f"payload kind {a['payload_kind']} -> {b['payload_kind']}"
    rows_a, rows_b = a["payload"], b["payload"]
    if len(rows_a) != len(rows_b):
        return f"rows {len(rows_a)} -> {len(rows_b)}"
    numeric, cells = [], []
    for col in rows_a[0] if rows_a else ():
        pairs = [(ra[col], rb[col]) for ra, rb in zip(rows_a, rows_b)]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for pair in pairs for v in pair):
            worst = max(_relative(u, v) for u, v in pairs)
            if worst:
                numeric.append(f"{col} {worst:.2g}")
        elif n := sum(u != v for u, v in pairs):
            cells.append(f"{col} {n}")
    parts = []
    if numeric:
        parts.append("largest relative difference: " + ", ".join(numeric))
    if cells:
        parts.append("differing cells: " + ", ".join(cells))
    return "; ".join(parts) or "payloads equal"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage:", __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv[:2])
    for src in (old, new):
        if not (src / "hyplab" / "__init__.py").is_file():
            print(f"golden_diff: no hyplab package in {src}", file=sys.stderr)
            return 2
    commands = dict(golden_runs())
    commands.update((extra, shlex.split(extra)) for extra in argv[2:])
    differ = set()
    for name, args in commands.items():
        for fmt in FORMATS:
            out_old, out_new = run(old, args, fmt), run(new, args, fmt)
            parts = [part for part, a, b in zip(("stdout", "stderr", "exit code"),
                                                 out_old, out_new)
                     if a != b]
            if parts:
                differ.add(name)
                print(f"{name} [{fmt}]: {', '.join(parts)} differ")
                if out_old[0] != out_new[0] and (
                        detail := payload_difference(out_old[0].decode(),
                                                     out_new[0].decode(), fmt)):
                    print(f"    {detail}")
    print(f"{len(differ)} of {len(commands)} commands differ "
          f"(each run as {' and '.join(FORMATS)})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
