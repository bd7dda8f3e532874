"""One round of a workload in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand.  The process imports
``hyplab`` from the checkout's ``src``, builds the round's argument lists,
notes the monotonic time at which it is ready for its first CLI call,
runs every command through ``hyplab.cli.main`` with its report captured,
and prints one JSON object: the ready time, per-command exit code, time
and output, the process's peak resident memory, and with ``--trace 1``
the per-layer summary of the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hyplab.cli  # noqa: E402  (numpy comes with it: both are set-up)

from workloads import round_ops  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident memory of this process image, in KiB.

    Read from VmHWM: getrusage's ru_maxrss also counts the parent's memory
    that the process held between fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced round writes its spans")
    args = ap.parse_args()
    if not Path(hyplab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hyplab imported from {hyplab.cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    ops = round_ops(args.workload, args.seed, args.round)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = hyplab.cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation; the round goes on
            rc = -1
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        results.append({"rc": rc, "s": dt, "out": out.getvalue(), "err": err.getvalue()})
    peak_kb = peak_rss_kb()

    report = {"ready": ready, "peak_rss_kb": peak_kb, "ops": results}
    if tracer is not None:
        report["layers"] = tracing.summary(tracer)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracing.write(tracer, args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
