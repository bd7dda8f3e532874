"""Workload definitions: the CLI argument lists of one round.

A round is a fixed list of ``hyplab`` command lines.  Every run repeats
whole rounds; round ``r`` of a run with benchmark seed ``s`` draws its
batch seeds from ``(s, r)``, so a longer run covers more test functions
while every round holds the same operations.  Nothing here imports the
program: the child process builds these lists as part of its set-up, and
the parent uses the same metadata to check the outputs.
"""

from __future__ import annotations

WORKLOADS = ("radial", "green-weight", "halfspace", "sharpness")

# Acceptance-criterion-3 grids, one (N, p) per CLI invocation.
RADIAL_GRIDS = {
    "pgap": [(2, 2.0), (3, 2.0), (13, 4.0), (4, 1.5), (3, 3.0)],
    "hardy": [(3, 2.0), (13, 4.0), (8, 2.5), (10, 3.0)],
    # (13, 4) is left out: M^p overflows for supports beyond r ~ 15, so the
    # battery fails on some seeds (see CHANGES.md).
    "uncertainty": [(3, 2.0), (8, 2.5), (10, 3.0)],
    "hp-weighted": [(3, 2.0), (13, 4.0), (8, 2.5), (10, 3.0)],
    "ball": [(13, 4.0), (8, 2.5), (3, 2.0)],
}
# Kinds whose batteries let a fifth of the supports touch r = 0.
ORIGIN_KINDS = ("pgap", "hardy", "hp-weighted")
HARDY1D_GRIDS = {
    None: [(3, 2.0), (13, 4.0), (2, 1.5)],  # l = p
    2.0: [(3, 2.0), (13, 4.0)],
}
RADIAL_TRIALS = 40
RADIAL_TOL = 1e-10  # the CLI default

GREEN_GRID = [(3, 2.0), (5, 2.0), (13, 4.0), (2, 3.0), (4, 1.5)]
GREEN_TRIALS = 4
# (2, 3) is left out of the tables: `weights` refuses it because H_p is
# undefined for p - 1 > N - 1 (see CHANGES.md).
WEIGHTS_GRID = [(3, 2.0), (5, 2.0), (13, 4.0), (4, 1.5)]
WEIGHTS_POINTS = 400
WEIGHTS_R_MIN, WEIGHTS_R_MAX = 0.05, 100.0

HALFSPACE_GRID = [(N, p) for N in (2, 3) for p in (1.5, 2.0, 3.0)]
HALFSPACE_TRIALS = 1
HALFSPACE_TOL = 1e-6  # the tolerance of acceptance criterion 4

SHARPNESS_PGAP = [(2, 2.0), (3, 2.0), (3, 3.0)]
SHARPNESS_SCHEDULE = (0.1, 0.01, 0.001)
SHARPNESS_TOL = 1e-5
HARDY1D_SCANS = [(3, 2.0, 2.0), (3, 3.0, 2.0), (3, 3.0, 3.0)]  # (N, p, l)
HARDY1D_EPS = HARDY1D_DELTA = 1e-3
HARDY1D_TOL = 1e-9


def batch_seed(seed: int, rnd: int, index: int) -> int:
    """CLI batch seed of invocation ``index`` in round ``rnd``."""
    return (seed * 1_000_003 + rnd) * 1009 + index


def _num(x: float) -> str:
    return repr(float(x)) if x != int(x) else str(int(x))


def _verify(kind, N, p, trials, seed, tol, l=None, allow_origin=False):
    argv = ["verify", "--kind", kind, "--N", str(N), "--p", _num(p),
            "--trials", str(trials), "--seed", str(seed), "--tol", repr(tol)]
    if l is not None:
        argv += ["--l", _num(l)]
    if allow_origin:
        argv.append("--allow-origin")
    return {"cmd": "verify", "argv": argv, "kind": kind, "N": N, "p": p,
            "l": l, "trials": trials, "seed": seed, "tol": tol,
            "allow_origin": allow_origin}


def _radial(seed, rnd):
    ops = []
    for kind, grid in RADIAL_GRIDS.items():
        for N, p in grid:
            ops.append(_verify(kind, N, p, RADIAL_TRIALS,
                               batch_seed(seed, rnd, len(ops)), RADIAL_TOL,
                               allow_origin=kind in ORIGIN_KINDS))
    for l, grid in HARDY1D_GRIDS.items():
        for N, p in grid:
            ops.append(_verify("hardy1d", N, p, RADIAL_TRIALS,
                               batch_seed(seed, rnd, len(ops)), RADIAL_TOL, l=l))
    scalar = [
        (["constants", "--N", "13", "--p", "4"], 13, 4.0),
        (["constants", "--N", "5", "--p", "1.5"], 5, 1.5),
        (["rp", "--N", "13", "--p", "4"], 13, 4.0),
        (["rp", "--N", "8", "--p", "2.5"], 8, 2.5),
        (["rp-scan", "--N", "13", "--p", "4", "--scan-axis", "N", "--N-max", "40"],
         13, 4.0),
        (["rp-scan", "--N", "13", "--p", "4", "--scan-axis", "p",
          "--p-values", "2.5", "3", "3.5", "4"], 13, 4.0),
        (["figure1", "--N", "13", "--p", "4", "--points", "1500"], 13, 4.0),
    ]
    for argv, N, p in scalar:
        ops.append({"cmd": argv[0], "argv": argv, "N": N, "p": p})
    pc_seed = batch_seed(seed, rnd, len(ops))
    ops.append({"cmd": "proofcheck", "N": 13, "p": 4.0, "seed": pc_seed,
                "argv": ["proofcheck", "--N", "13", "--p", "4", "--trials", "200",
                         "--seed", str(pc_seed)]})
    return ops


def _green_weight(seed, rnd):
    ops = []
    for N, p in GREEN_GRID:
        ops.append(_verify("green-weight", N, p, GREEN_TRIALS,
                           batch_seed(seed, rnd, len(ops)), RADIAL_TOL))
    for N, p in WEIGHTS_GRID:
        ops.append({"cmd": "weights", "N": N, "p": p, "argv": [
            "weights", "--N", str(N), "--p", _num(p),
            "--r-min", repr(WEIGHTS_R_MIN), "--r-max", repr(WEIGHTS_R_MAX),
            "--points", str(WEIGHTS_POINTS)]})
    return ops


def _halfspace(seed, rnd):
    ops = []
    for i, (N, p) in enumerate(HALFSPACE_GRID):
        s = batch_seed(seed, rnd, i)
        for kind in ("bounded-v", "mazya"):
            ops.append(_verify(kind, N, p, HALFSPACE_TRIALS, s, HALFSPACE_TOL))
    return ops


def _sharpness(seed, rnd):
    ops = []
    for N, p in SHARPNESS_PGAP:
        ops.append({"cmd": "sharpness", "kind": "pgap", "N": N, "p": p,
                    "schedule": SHARPNESS_SCHEDULE, "tol": SHARPNESS_TOL,
                    "argv": ["sharpness", "--kind", "pgap", "--N", str(N),
                             "--p", _num(p), "--tol", repr(SHARPNESS_TOL),
                             "--schedule", *map(repr, SHARPNESS_SCHEDULE)]})
    for N, p, l in HARDY1D_SCANS:
        ops.append({"cmd": "sharpness", "kind": "hardy1d", "N": N, "p": p, "l": l,
                    "eps": HARDY1D_EPS, "delta": HARDY1D_DELTA, "tol": HARDY1D_TOL,
                    "argv": ["sharpness", "--kind", "hardy1d", "--N", str(N),
                             "--p", _num(p), "--l", _num(l),
                             "--tol", repr(HARDY1D_TOL),
                             "--schedule", repr(HARDY1D_EPS),
                             "--delta", repr(HARDY1D_DELTA)]})
    return ops


_ROUNDS = {
    "radial": _radial,
    "green-weight": _green_weight,
    "halfspace": _halfspace,
    "sharpness": _sharpness,
}


def round_ops(workload: str, seed: int, rnd: int) -> list[dict]:
    """The operations of round ``rnd``: argv plus what the checks need."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _ROUNDS[workload](seed, rnd)
