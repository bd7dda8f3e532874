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
byte-identical.  Some cell reports depend on the host, so run both trees
on one host.
"""

from __future__ import annotations

import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def golden_runs() -> dict[str, list[str]]:
    """GOLDEN_RUNS of tests/test_cli.py, by golden file name."""
    sys.path.insert(0, str(ROOT / "src"))
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
            parts = [part for part, a, b in zip(("stdout", "stderr", "exit code"),
                                                 run(old, args, fmt),
                                                 run(new, args, fmt))
                     if a != b]
            if parts:
                differ.add(name)
                print(f"{name} [{fmt}]: {', '.join(parts)} differ")
    print(f"{len(differ)} of {len(commands)} commands differ "
          f"(each run as {' and '.join(FORMATS)})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
