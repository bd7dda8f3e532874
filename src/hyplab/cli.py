"""Command-line front end.

Subcommands:
  constants   sharp constant, remainder constant (all cases), brute-force
              cross-check
  weights     sample the radial weights W, H_p, h and the bounded weight V
              along a geodesic ray
  rp          critical radii r0 and r_p for one (N, p)
  rp-scan     monotonicity tables of r_p in N or p
  verify      seeded batch of inequality reports for one kind
  sharpness   quotient schedules of the near-extremal families
  figure1     curve samples of H_p with the crossing-radius marker row
  proofcheck  scalar proof-step checks (quadratic bound, convexity bound,
              positivity profile, supersolution residuals)

Exit code 0 when every check passes, 1 on a verification failure, 2 on
hypothesis violations, invalid parameter combinations or an ``--output``
path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .constants import brute_force_cnp, c_2p, c_2p_direct, c_np, check_ni
from .core import GreenWeight, HypothesisError, Params, h_func, weight_hp, weight_v
from .quadrature import QuadratureError
from .report import ReportEnvelope, emit
from .rp import RootResult, rp_scan_N, rp_scan_p, solve_r0, solve_rp
from .verify import (
    InequalityKind,
    SupportViolation,
    batch_verify,
    check_ftilde,
    check_pconvexity,
    sharpness_scan,
    supersolution_residual,
)

KIND_TAGS = [k.value for k in InequalityKind]


def _checked(convert, ok, rule):
    """An argparse type: ``convert``, then refuse a value that is not ``ok``,
    so that argparse names the argument and exits 2."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    # argparse names the type of a value convert refuses by this name
    parse.__name__ = convert.__name__
    return parse


_FINITE_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "finite and > 0")
_COUNT = _checked(int, lambda n: n >= 1, ">= 1")


def _add_common(sp, batch):
    sp.add_argument("--N", type=int, required=True, help="dimension, integer >= 2")
    sp.add_argument("--p", type=float, required=True, help="exponent, real > 1")
    sp.add_argument("--tol", type=_FINITE_POSITIVE, default=1e-10, help="quadrature tolerance")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default="-", help="output path or - for stdout")
    if batch:
        sp.add_argument("--seed", type=int, default=0, help="64-bit batch seed")
        sp.add_argument("--trials", type=_COUNT, default=25)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    The one-command parser gives that command's help, usage and errors
    byte for byte as the full parser does: its usage line still lists
    every command.
    """
    ap = argparse.ArgumentParser(
        prog="hyplab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    names = list(_COMMANDS)
    if command is None:
        sub = ap.add_subparsers(dest="command", required=True)
    else:
        sub = ap.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(names) + "}")
        names = [command]
    for name in names:
        _, help_text, batch, arguments = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp, batch)
        for flag, kwargs in arguments:
            sp.add_argument(flag, **kwargs)
    return ap


@functools.cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of :func:`main` for ``command``, built on first use.

    Parsing leaves a parser unchanged, so one parser per command serves
    every call of a process; importing this module builds none.
    """
    return build_parser(command)


# Each command returns (payload kind, rows, params echo beyond N, p and tol,
# exit code); main wraps the rows in the command's one report envelope.


def cmd_constants(args):
    params = Params(args.N, args.p)
    rows = [
        {"name": "lambda_p", "value": params.lambda_p, "kind": "exact",
         "case_label": "", "optimizer_arg": ""},
    ]
    cr = c_np(params)
    rows.append(
        {"name": "C_np", "value": cr.value, "kind": cr.kind,
         "case_label": cr.case_label,
         "optimizer_arg": cr.optimizer_arg if cr.optimizer_arg is not None else ""}
    )
    bf = brute_force_cnp(params)
    rows.append({"name": "brute_force_cnp", "value": bf, "kind": "numeric",
                 "case_label": "", "optimizer_arg": ""})
    if params.p > 2.0:
        ok = abs(bf - cr.value) <= 1e-8
    else:
        ok = bf >= cr.value - 1e-8
    if params.N == 2 and 1.0 < params.p < 2.0:
        tab = c_2p(params.p)
        direct = c_2p_direct(params.p)
        rows.append({"name": "C_2p_tabulated", "value": tab.value, "kind": tab.kind,
                     "case_label": tab.case_label, "optimizer_arg": tab.optimizer_arg})
        rows.append({"name": "C_2p_direct", "value": direct.value, "kind": "exact",
                     "case_label": direct.case_label,
                     "optimizer_arg": direct.optimizer_arg})
    return "constant_table", rows, {}, 0 if ok else 1


def cmd_weights(args):
    params = Params(args.N, args.p)
    radii = np.geomspace(args.r_min, args.r_max, args.points)
    w_vals, w_errs = GreenWeight(params).w_array(radii)
    # H_p is defined for p >= 2 with p - 1 <= N - 1; elsewhere the column is empty.
    has_hp = params.p >= 2.0 and params.p - 1.0 <= params.N - 1.0
    hp_col = (weight_hp(params, radii).tolist() if has_hp
              else [""] * len(radii))
    h_col = h_func(params, radii).tolist()
    # the geodesic ray (tanh r, sech r) in the vertical plane through (0, 1);
    # beyond r ~ 710 cosh r overflows, sech r is 0 and so is V's limit there
    x1s = np.tanh(radii).tolist()
    with np.errstate(over="ignore"):
        ys = (1.0 / np.cosh(radii)).tolist()
    rows = [
        {"r": r, "W": w, "W_err": werr, "Hp": hp, "h": h,
         "V_geodesic": weight_v(x1, y) if y > 0.0 else 0.0}
        for r, w, werr, hp, h, x1, y in zip(
            radii.tolist(), w_vals.tolist(), w_errs.tolist(), hp_col, h_col, x1s, ys)
    ]
    return "weight_samples", rows, {}, 0


def _root_row(name: str, root: RootResult) -> dict:
    return {"name": name, "root": root.root, "residual": root.residual,
            "iterations": root.iterations, "bracket_lo": root.bracket[0],
            "bracket_hi": root.bracket[1]}


def cmd_rp(args):
    params = Params(args.N, args.p)
    rows = []
    if params.p > 2.0:
        rows.append(_root_row("r0", solve_r0(params)))
    rp = solve_rp(params)
    if rp is None:
        rows.append({"name": "r_p", "root": float("inf"), "residual": 0.0,
                     "iterations": 0, "bracket_lo": 0.0, "bracket_hi": float("inf")})
    else:
        rows.append(_root_row("r_p", rp))
    return "root_table", rows, {}, 0


def cmd_rp_scan(args):
    if args.scan_axis == "N":
        rows_in = rp_scan_N(args.p, args.N, args.N_max)
        rows = [
            {"axis": "N", "value": r["N"], "r_p": r["r_p"],
             "slope_formula": r["d_rp_dN"]}
            for r in rows_in
        ]
    else:
        p_values = args.p_values or [2.5, 3.0, 3.5, 4.0]
        rows_in = rp_scan_p(args.N, p_values)
        rows = [
            {"axis": "p", "value": r["p"], "r_p": r["r_p"],
             "slope_formula": r["d_rp_dp"]}
            for r in rows_in
        ]
    return "scan_table", rows, {"scan_axis": args.scan_axis}, 0


def cmd_verify(args):
    params = Params(args.N, args.p)
    reports = batch_verify(
        args.kind, [params], args.trials, args.seed, args.tol,
        l=args.l, allow_origin=args.allow_origin,
    )
    rows = [r.as_row() for r in reports]
    return ("inequality_reports", rows, {"kind": args.kind, "trials": args.trials},
            0 if all(r.passed for r in reports) else 1)


def cmd_sharpness(args):
    params = Params(args.N, args.p)
    if args.kind == "pgap":
        rows = sharpness_scan(InequalityKind.PGAP, params, args.schedule, args.tol)
    else:
        schedule = [(e, args.delta) for e in args.schedule]
        rows = sharpness_scan(
            InequalityKind.HARDY1D, params, schedule, args.tol, l=args.l
        )
    ok = all(
        r["lower"] - r["quad_error"] <= r["quotient"] <= r["upper"] + r["quad_error"]
        for r in rows
    )
    return "sharpness_rows", rows, {"kind": args.kind}, 0 if ok else 1


def cmd_figure1(args):
    params = Params(args.N, args.p)
    if params.p < 2.0:
        raise HypothesisError("figure1 needs p >= 2")
    rp = solve_rp(params)
    rp_val = float("inf") if rp is None else rp.root
    radii = list(np.linspace(args.r_max / args.points, args.r_max, args.points))
    if rp is not None and 0.0 < rp_val < args.r_max:
        radii.append(rp_val)  # marker row: the crossing H_p(r_p) = 1
    radii.sort()
    rows = [{"r": float(r), "Hp": hp, "is_ge_one": hp >= 1.0}
            for r, hp in zip(radii, weight_hp(params, np.array(radii)).tolist())]
    return "figure1_curve", rows, {"r_p": rp_val}, 0


def cmd_proofcheck(args):
    params = Params(args.N, args.p)
    rng = np.random.default_rng(args.seed)
    rows = []

    n = max(10, args.trials)
    bs = rng.uniform(1e-3, 10.0, n)
    ss = rng.uniform(0.0, 1.0, n)
    ni_min = min(check_ni(float(b), float(s)) for b, s in zip(bs, ss))
    rows.append({"check": "quadratic_bound", "detail": f"{n} random (b, s)",
                 "value": ni_min, "threshold": -1e-14, "passed": ni_min >= -1e-14})

    ps = rng.uniform(1.0, 4.0, n)
    xis = rng.uniform(0.0, 2.0, n)
    etas = np.array([rng.uniform(-2.0, xi) for xi in xis])
    pc_min = min(
        check_pconvexity(float(pp), float(xi), float(eta))
        for pp, xi, eta in zip(ps, xis, etas)
    )
    rows.append({"check": "p_convexity", "detail": f"{n} random (p, xi, eta)",
                 "value": pc_min, "threshold": -1e-14, "passed": pc_min >= -1e-14})

    grid = np.geomspace(1e-4, 20.0, 400)
    ft = check_ftilde(params, grid)
    # nonnegativity is only claimed under the dimension hypothesis
    # (-1e-13 floor: boundary cases are identically zero up to rounding)
    rows.append({"check": "positivity_profile", "detail": "min over grid",
                 "value": ft, "threshold": -1e-13,
                 "passed": bool(ft >= -1e-13) if params.hardy_hypothesis else True})

    radii = rng.uniform(0.1, 10.0, 16)
    worst = 0.0
    for r in radii:
        ident, deriv = supersolution_residual(params, float(r))
        worst = max(worst, ident, deriv)
    rows.append({"check": "supersolution_residuals", "detail": "16 radii",
                 "value": worst, "threshold": 1e-6, "passed": worst < 1e-6})

    return "proofcheck_rows", rows, {}, 0 if all(r["passed"] for r in rows) else 1


# Each subcommand's function, its help, whether it takes --seed and
# --trials, and its own arguments after the common ones, in the order its
# help lists them.
_COMMANDS = {
    "constants": (cmd_constants, "constant table for one (N, p)", False, []),
    "weights": (cmd_weights, "sample W, H_p, h, V over a radial grid", False, [
        ("--r-min", dict(type=_FINITE_POSITIVE, default=0.05)),
        ("--r-max", dict(type=_FINITE_POSITIVE, default=10.0)),
        ("--points", dict(type=_COUNT, default=40)),
    ]),
    "rp": (cmd_rp, "critical radii r0 and r_p", False, []),
    "rp-scan": (cmd_rp_scan, "monotonicity scan of r_p", False, [
        ("--scan-axis", dict(choices=("N", "p"), required=True)),
        ("--N-max", dict(type=int, default=40)),
        ("--p-values", dict(type=float, nargs="+", default=None,
                            help="increasing p values for the p-scan")),
    ]),
    "verify": (cmd_verify, "seeded batch of inequality reports", True, [
        ("--kind", dict(choices=KIND_TAGS, required=True,
                        help=f"inequality tag, one of: {', '.join(KIND_TAGS)}")),
        ("--l", dict(type=float, default=None, help="1D Hardy mixed exponent")),
        ("--allow-origin", dict(
            action="store_true",
            help="allow supports touching r = 0 (origin-integrable weights only)")),
    ]),
    "sharpness": (cmd_sharpness, "near-extremal quotient schedules", False, [
        ("--kind", dict(choices=("pgap", "hardy1d"), required=True)),
        ("--schedule", dict(type=_FINITE_POSITIVE, nargs="+", default=[1e-1, 1e-2, 1e-3])),
        ("--delta", dict(type=_FINITE_POSITIVE, default=1e-3, help="hardy1d delta")),
        ("--l", dict(type=float, default=None)),
    ]),
    "figure1": (cmd_figure1, "H_p curve with r_p marker row", False, [
        ("--r-max", dict(type=_FINITE_POSITIVE, default=15.0)),
        ("--points", dict(type=_COUNT, default=1500)),
    ]),
    "proofcheck": (cmd_proofcheck, "scalar proof-step checks", True, []),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # an argument list that names no command first gets the full parser,
    # whose help lists every command and whose errors name them
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _parser(command).parse_args(argv)
    try:
        payload_kind, rows, extra, code = _COMMANDS[args.command][0](args)
        echo = {"N": args.N, "p": args.p, "tol": args.tol, **extra}
        # only verify and proofcheck define --seed
        env = ReportEnvelope(args.command, echo, payload_kind, rows,
                             seed=getattr(args, "seed", None))
        try:
            emit(env, args.format, sys.stdout if args.output == "-" else args.output)
        except OSError as exc:
            print(f"hyplab: cannot write report: {exc}", file=sys.stderr)
            return 2
        return code
    except (HypothesisError, SupportViolation, ValueError) as exc:
        print(f"hyplab: parameter error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"hyplab: verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
