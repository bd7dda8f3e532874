"""hyplab benchmark: CLI workloads end to end, and per layer when traced.

    python3 bench/run.py --workload radial --seed 1 --seconds 20 --trace 0

Each round of the workload runs in a fresh interpreter (``child.py``), so
process-level caches start empty as they do for a CLI user.  Rounds repeat
until ``--seconds`` have passed; every round holds the same operations.
After each round the outputs are checked against computations made apart
from the program (``oracles.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  ``--record FILE`` also appends that object, with the
workload and seed, to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
SPAN_DIR = ROOT / ".bench_trace"

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from workloads import WORKLOADS, round_ops  # noqa: E402

class BenchError(RuntimeError):
    """A round could not be run to its end."""


def spawn(workload: str, seed: int, rnd: int, trace: int) -> dict:
    """Run one round in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env.pop("HYPLAB_WORKERS", None)
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--round", str(rnd), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(SPAN_DIR / f"{workload}-seed{seed}.jsonl.gz")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round {rnd} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"round {rnd} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["ready"] - t0
    return rep


class Tally:
    """Operations attempted and failed, and the instances they certified."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.instances = 0
        self.reported: set[str] = set()

    def account(self, ops, rep) -> None:
        problems = oracles.check_round(ops, rep["ops"])
        for op, res, probs in zip(ops, rep["ops"], problems):
            self.attempted += 1
            if probs:
                self.failed += 1
                known = all(k for _, k in probs)
                self.correct = self.correct and known
                head = ("known fault" if known else "FAILED") + ": " + " ".join(op["argv"])
                if head not in self.reported or not known:
                    self.reported.add(head)
                    lines = [text for text, _ in probs[:5]]
                    print(head + "\n    " + "\n    ".join(lines), file=sys.stderr)
            elif op["cmd"] in ("verify", "sharpness"):
                self.instances += len(oracles.parse_csv(res["out"]))


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    rounds = []
    start = time.monotonic()
    rnd = 0
    while True:
        rep = spawn(workload, seed, rnd, 0)
        tally.account(round_ops(workload, seed, rnd), rep)
        rounds.append(rep)
        rnd += 1
        if time.monotonic() - start >= seconds:
            break
    busy = sum(op["s"] for rep in rounds for op in rep["ops"])
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in rounds),
        "instances_per_s": tally.instances / busy,
        "peak_rss_mb": statistics.median(rep["peak_rss_kb"] for rep in rounds) * 1024 / 1e6,
    }


def measure_layers(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced passes over round 0's operations."""
    ops = round_ops(workload, seed, 0)
    plain_s, traced_s, layers = [], [], []
    start = time.monotonic()
    while True:
        plain = spawn(workload, seed, 0, 0)
        traced = spawn(workload, seed, 0, 1)
        for rep in (plain, traced):
            tally.account(ops, rep)
        if [op["out"] for op in plain["ops"]] != [op["out"] for op in traced["ops"]]:
            tally.correct = False
            print("FAILED: traced outputs differ from untraced ones", file=sys.stderr)
        plain_s.append(sum(op["s"] for op in plain["ops"]))
        traced_s.append(sum(op["s"] for op in traced["ops"]))
        layers.append(traced["layers"])
        if time.monotonic() - start >= seconds:
            break
    # Work counts are ints and must repeat; times are floats and take the median.
    counts = {k for k, v in layers[0].items() if isinstance(v, int)}
    moved = sorted(k for layer in layers[1:] for k in counts if layer[k] != layers[0][k])
    if moved:
        print(f"work counts differ between traced passes: {moved}", file=sys.stderr)
    out = {k: layers[0][k] if k in counts else statistics.median(layer[k] for layer in layers)
           for k in layers[0]}
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="append the result to this JSON-lines file")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    tally = Tally()
    try:
        if args.trace:
            values = measure_layers(args.workload, args.seed, args.seconds, tally)
        else:
            values = measure(args.workload, args.seed, args.seconds, tally)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        print(f"measured {sorted(values)}, BENCHMARK.json lists {[m['name'] for m in listed]}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for k, m in metrics.items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
