"""Compare two result sets of the benchmark, metric by metric and workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record`` appends.  Runs pair up by
workload and seed, so run both sides on the same seeds, alternating which
side goes first.  For every end-to-end metric of every workload:

* ``better`` / ``worse``: the change wins (or loses) at least 9 of every 10
  pairs, ties counting for neither, and the medians differ by more than the
  distance between the base's quartiles;
* ``regressed``: the change's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the base's own spread (quartile distance over median) is
  wider than the bound, unless every change run beats every base run;
* ``within bound`` otherwise.

The share of failed operations must be the same on both sides.  The exit
code is 0 when nothing regressed, got worse or stayed unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace", 0) == 0:
                    runs[rec["workload"]].setdefault(rec["seed"], rec["result"])
    return runs


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    n = len(base)
    q1, med_b, q3 = statistics.quantiles(base, n=4)
    med_c = statistics.median(change)
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    losses = sum((c > b) if lower else (c < b) for b, c in zip(base, change))
    worse_by = ((med_c - med_b) if lower else (med_b - med_c)) / med_b
    base_spread = (q3 - q1) / med_b
    separated = abs(med_c - med_b) > q3 - q1
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if n < MIN_PAIRS:
        v = f"too few pairs ({n} < {MIN_PAIRS})"
    elif wins >= WIN_SHARE * n and separated:
        v = "better"
    elif losses >= WIN_SHARE * n and separated:
        v = "worse"
    elif worse_by > metric["bound"]:
        v = "regressed"
    elif base_spread > metric["bound"] and not all_better:
        v = "unresolved"
    else:
        v = "within bound"
    return v, med_b, med_c, base_spread, wins, losses


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(argv[0]), load(argv[1])
    ok = True
    print(f"{'workload':13} {'metric':16} {'base':>11} {'change':>11} "
          f"{'spread':>7} {'bound':>6} {'W/L':>7}  verdict")
    for workload in sorted(set(base) | set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        b_runs = [base[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if len(seeds) < 2:
                print(f"{workload:13} {name:16} fewer than two paired runs")
                ok = False
                continue
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v, med_b, med_c, sp, wins, losses = verdict(metric, b, c)
            ok = ok and v in ("within bound", "better")
            print(f"{workload:13} {name:16} {med_b:11.5g} {med_c:11.5g} "
                  f"{sp:7.2%} {metric['bound']:6.2f} {wins:3d}/{losses:<3d}  {v}")
        shares = []
        for runs in (b_runs, c_runs):
            shares.append((sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
        (fb, ab), (fc, ac) = shares
        same = fb * ac == fc * ab
        correct = all(r["correct"] for r in b_runs + c_runs)
        ok = ok and same and correct
        print(f"{workload:13} failed share {fb}/{ab} vs {fc}/{ac}"
              f"{'' if same else '  DIFFERENT'}; all correct: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
