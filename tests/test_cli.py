"""CLI behaviour: flags, exit codes, determinism, output schemas."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hyplab
from hyplab import cli
from hyplab.cli import build_parser, main
from hyplab.core import weight_v
from hyplab.report import ReportEnvelope, compare_golden, parse
from hyplab.verify import InequalityKind


def run_cli(args, tmp_path, fmt="csv"):
    out = tmp_path / f"out.{fmt}"
    rc = main(args + ["--format", fmt, "--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return rc, text


def test_help_lists_every_kind_tag(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--help"])
    out = capsys.readouterr().out
    for kind in InequalityKind:
        assert kind.value in out


def test_constants_13_4(tmp_path):
    rc, text = run_cli(["constants", "--N", "13", "--p", "4"], tmp_path)
    assert rc == 0
    rows = {r["name"]: r for r in parse(text, "csv")["payload"]}
    assert rows["lambda_p"]["value"] == 81.0
    assert rows["C_np"]["value"] == pytest.approx(
        1.0 / (8.0 + 4.0 * math.sqrt(2.0)), rel=1e-14
    )
    assert rows["brute_force_cnp"]["value"] == pytest.approx(
        rows["C_np"]["value"], abs=1e-9
    )


def test_constants_n2_refinement_rows(tmp_path):
    rc, text = run_cli(["constants", "--N", "2", "--p", "1.5"], tmp_path)
    assert rc == 0
    rows = {r["name"]: r for r in parse(text, "csv")["payload"]}
    assert "C_2p_tabulated" in rows and "C_2p_direct" in rows
    assert rows["C_2p_tabulated"]["value"] > rows["C_2p_direct"]["value"]


def test_verify_batch_deterministic(tmp_path):
    args = ["verify", "--kind", "pgap", "--N", "3", "--p", "2", "--trials", "6",
            "--seed", "7"]
    rc1, text1 = run_cli(args, tmp_path)
    rc2, text2 = run_cli(args, tmp_path)
    assert rc1 == rc2 == 0
    assert text1 == text2
    payload = parse(text1, "csv")["payload"]
    assert len(payload) == 6
    assert all(row["passed"] for row in payload)


def test_verify_hypothesis_violation_exit_2(tmp_path):
    rc, _ = run_cli(["verify", "--kind", "hardy", "--N", "2", "--p", "1.5",
                     "--trials", "2", "--seed", "0"], tmp_path)
    assert rc == 2


def test_figure1_crossing(tmp_path):
    rc, text = run_cli(["figure1", "--N", "13", "--p", "4", "--points", "200"],
                       tmp_path)
    assert rc == 0
    payload = parse(text, "csv")["payload"]
    rp = 1.1683314911315266
    marker = [row for row in payload if abs(row["r"] - rp) < 1e-12]
    assert marker and marker[0]["is_ge_one"]
    for row in payload:
        assert row["is_ge_one"] == (row["r"] <= rp + 1e-12)


def test_figure1_rejects_p_below_2(tmp_path):
    rc, _ = run_cli(["figure1", "--N", "3", "--p", "1.5"], tmp_path)
    assert rc == 2


def test_rp_scan_axis_p(tmp_path):
    rc, text = run_cli(["rp-scan", "--N", "13", "--p", "4", "--scan-axis", "p",
                        "--p-values", "2.5", "3.0", "4.0"], tmp_path)
    assert rc == 0
    vals = [row["r_p"] for row in parse(text, "csv")["payload"]]
    assert vals == sorted(vals, reverse=True)


def test_rp_json_infinity_sentinel(tmp_path):
    rc, text = run_cli(["rp", "--N", "5", "--p", "2"], tmp_path, fmt="json")
    assert rc == 0
    data = parse(text, "json")
    rp_row = [r for r in data["payload"] if r["name"] == "r_p"][0]
    assert rp_row["root"] == math.inf
    assert '"+inf"' in text


def test_sharpness_pgap_smoke(tmp_path):
    rc, text = run_cli(["sharpness", "--kind", "pgap", "--N", "2", "--p", "2",
                        "--schedule", "0.1", "0.01", "--tol", "1e-4"], tmp_path)
    assert rc == 0
    rows = parse(text, "csv")["payload"]
    assert rows[0]["quotient"] > rows[1]["quotient"]


def test_sharpness_pgap_beyond_n3(tmp_path):
    # the family is integrated as two 1-D Beta integrals, so any N works
    rc, text = run_cli(["sharpness", "--kind", "pgap", "--N", "5", "--p", "3",
                        "--schedule", "0.1", "0.001", "--tol", "1e-8"], tmp_path)
    assert rc == 0
    rows = parse(text, "csv")["payload"]
    assert rows[0]["quotient"] > rows[1]["quotient"] > rows[1]["lower"]
    assert all(r["quotient"] <= r["upper"] for r in rows)


def test_proofcheck_exit_zero(tmp_path):
    rc, text = run_cli(["proofcheck", "--N", "13", "--p", "4", "--trials", "64",
                        "--seed", "3"], tmp_path)
    assert rc == 0
    assert all(row["passed"] for row in parse(text, "csv")["payload"])


def test_weights_table(tmp_path):
    rc, text = run_cli(["weights", "--N", "5", "--p", "2", "--points", "8"],
                       tmp_path)
    assert rc == 0
    payload = parse(text, "csv")["payload"]
    assert all(row["W"] > 0 for row in payload)
    assert all(row["Hp"] == 1.0 for row in payload)  # p = 2 degenerate case
    # V along the vertical-plane geodesic equals sech r
    for row in payload:
        assert row["V_geodesic"] == pytest.approx(1.0 / math.cosh(row["r"]), rel=1e-12)


def test_overflowing_battery_is_a_verification_failure(tmp_path, capsys):
    # M^p overflows on a wide support at (13, 4): exit 1 with a message,
    # not a traceback
    rc, _ = run_cli(["verify", "--kind", "uncertainty", "--N", "13", "--p", "4",
                     "--trials", "40", "--seed", "13117039361"], tmp_path)
    assert rc == 1
    assert "hyplab: verification failure:" in capsys.readouterr().err


def test_unwritable_output_exit_2(tmp_path, capsys):
    # one error line naming the path, not a traceback
    out = tmp_path / "missing" / "x.csv"
    rc = main(["rp", "--N", "13", "--p", "4", "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("hyplab: cannot write report: ") and str(out) in err
    assert err.count("\n") == 1
    assert not out.parent.exists()


def test_invalid_dimension_exit_2(tmp_path):
    rc, _ = run_cli(["constants", "--N", "1", "--p", "3"], tmp_path)
    assert rc == 2


def test_weights_table_without_hp(tmp_path):
    # p - 1 > N - 1: H_p is undefined, W is still tabulated
    rc, text = run_cli(["weights", "--N", "2", "--p", "3", "--points", "8"],
                       tmp_path)
    assert rc == 0
    payload = parse(text, "csv")["payload"]
    assert len(payload) == 8
    assert all(row["W"] > 0 for row in payload)
    assert all(row["Hp"] == "" for row in payload)


def test_weights_overflowing_h_is_silent_inf(capsys):
    # sinh^2 r overflows beyond r ~ 355: h reads +inf, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["weights", "--N", "2", "--p", "3", "--r-min", "300",
                   "--r-max", "400", "--points", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()]
    h = rows[0].index("h")
    assert [row[h] for row in rows[1:]][-2:] == ["+inf", "+inf"]
    assert all(row[h] != "+inf" for row in rows[1:-2])


def test_weights_beyond_cosh_overflow(capsys):
    # cosh r overflows beyond r ~ 710, so sech r is 0 and V_geodesic reads
    # its limit 0; below that every V cell is the point's weight as before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["weights", "--N", "3", "--p", "2", "--r-min", "1",
                   "--r-max", "800", "--points", "9"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    header, *rows = [line.split(",") for line in captured.out.splitlines()]
    r_col, v_col = header.index("r"), header.index("V_geodesic")
    radii = np.array([float(row[r_col]) for row in rows])
    assert (radii <= 710.0).sum() == 8
    for row, r in zip(rows, radii):
        v = 0.0
        if r <= 710.0:
            v = weight_v(float(np.tanh(r)), float(1.0 / np.cosh(r)))
        assert row[v_col] == repr(v)


def test_weights_at_tiny_radii(capsys):
    # W ~ 1/(4 r^2) at (3, 2) exceeds the double range below r ~ 1e-154:
    # W and W_err read +inf there, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["weights", "--N", "3", "--p", "2", "--r-min", "1e-300",
                   "--r-max", "1", "--points", "4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    header, *rows = [line.split(",") for line in captured.out.splitlines()]
    w_col, err_col = header.index("W"), header.index("W_err")
    assert [(row[w_col], row[err_col]) for row in rows[:2]] == [("+inf", "+inf")] * 2
    w, err = float(rows[2][w_col]), float(rows[2][err_col])
    assert abs(w - 2.5e199) <= err < 1e-12 * w


def _fresh_run(argv):
    """stdout and exit code of one command in a new interpreter."""
    src = str(Path(hyplab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "hyplab.cli", *argv],
                          env=env, capture_output=True, check=False)
    return done.stdout.decode(), done.returncode


def test_import_builds_no_parser():
    src = str(Path(hyplab.__file__).parents[1])
    code = ("import hyplab.cli as c; "
            "assert c._parser.cache_info().currsize == 0; "
            "c.main(['rp', '--N', '8', '--p', '2.5']); "
            "c.main(['rp', '--N', '8', '--p', '3']); "
            "info = c._parser.cache_info(); "
            "assert (info.misses, info.currsize) == (1, 1), info")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr


def test_one_parser_serves_every_call(capsys):
    # one process, several subcommands and a repeated sharpness call, which
    # reads the shared --schedule default; each as a fresh run prints it
    commands = [
        ["sharpness", "--kind", "pgap", "--N", "2", "--p", "2", "--tol", "1e-5"],
        ["weights", "--N", "5", "--p", "2", "--points", "8"],
        ["rp", "--N", "8", "--p", "2.5"],
        ["sharpness", "--kind", "hardy1d", "--N", "3", "--p", "3", "--l", "2",
         "--delta", "0.01", "--tol", "1e-8"],
        ["sharpness", "--kind", "pgap", "--N", "2", "--p", "2", "--tol", "1e-5"],
        ["constants", "--N", "5", "--p", "1.5", "--format", "json"],
    ]
    here = []
    for argv in commands:
        rc = main(argv)
        here.append((capsys.readouterr().out, rc))
    assert here[0] == here[4]
    assert here == [_fresh_run(argv) for argv in commands]
    assert cli._parser().parse_args(commands[0]).schedule == [1e-1, 1e-2, 1e-3]


def test_one_command_parser_prints_as_the_full_parser(capsys):
    # main builds only the parser of the command it is given; that
    # command's help and errors, its usage line of every command included,
    # read as the full parser's
    def printed(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    full = build_parser()
    for name in cli._COMMANDS:
        for argv in ([name, "--help"], [name, "--N", "two", "--p", "2"],
                     [name, "--N", "3", "--p", "2", "--bogus"]):
            assert printed(main, argv) == printed(full.parse_args, argv)


def test_help_and_argument_errors_exit_as_before(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["sharpness", "--help"])
        assert exc.value.code == 0
        assert "--schedule" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["sharpness", "--kind", "nope", "--N", "2", "--p", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "required: command" in capsys.readouterr().err
    assert main(["rp", "--N", "8", "--p", "2.5"]) == 0


_VERIFY = ["verify", "--kind", "pgap", "--N", "3", "--p", "2"]
_PGAP = ["sharpness", "--kind", "pgap", "--N", "3", "--p", "2"]
_HARDY1D = ["sharpness", "--kind", "hardy1d", "--N", "3", "--p", "3"]


@pytest.mark.parametrize("argv, message", [
    # figure1 divides by --points
    (["figure1", "--N", "13", "--p", "4", "--points", "0"], "--points: must be >= 1"),
    (["weights", "--N", "13", "--p", "4", "--points", "0"], "--points: must be >= 1"),
    # no refinement meets a tol <= 0 or nan, and the seed panels alone
    # meet inf
    (_VERIFY + ["--trials", "2", "--tol", "0"], "--tol: must be finite and > 0"),
    (_VERIFY + ["--trials", "2", "--tol", "-1"], "--tol: must be finite and > 0"),
    (_VERIFY + ["--trials", "2", "--tol", "nan"], "--tol: must be finite and > 0"),
    (_VERIFY + ["--trials", "2", "--tol", "inf"], "--tol: must be finite and > 0"),
    (_VERIFY + ["--trials", "0"], "--trials: must be >= 1"),
    (["proofcheck", "--N", "13", "--p", "4", "--trials", "0"], "--trials: must be >= 1"),
    # the radial grid's ends: geomspace refuses 0 and overflows on inf, and
    # H_p needs r > 0
    (["weights", "--N", "13", "--p", "4", "--r-max", "1e400"],
     "--r-max: must be finite and > 0"),
    (["weights", "--N", "13", "--p", "4", "--r-min", "0"], "--r-min: must be finite and > 0"),
    (["figure1", "--N", "13", "--p", "4", "--r-max", "0"], "--r-max: must be finite and > 0"),
    (["figure1", "--N", "13", "--p", "4", "--r-max", "nan"],
     "--r-max: must be finite and > 0"),
    # an eps or delta of inf or nan has no exact Fraction and no finite
    # family, and 0 none at all
    (_HARDY1D + ["--schedule", "0.5", "--delta", "inf"], "--delta: must be finite and > 0"),
    (_HARDY1D + ["--schedule", "0.5", "--delta", "0"], "--delta: must be finite and > 0"),
    (_HARDY1D + ["--schedule", "0.5", "nan"], "--schedule: must be finite and > 0"),
    (_PGAP + ["--schedule", "inf"], "--schedule: must be finite and > 0"),
    (_PGAP + ["--schedule", "0.1", "-0.01"], "--schedule: must be finite and > 0"),
], ids=["figure1-points", "weights-points", "tol-0", "tol-negative", "tol-nan",
        "tol-inf", "verify-trials", "proofcheck-trials", "weights-r-max-inf",
        "weights-r-min-0", "figure1-r-max-0", "figure1-r-max-nan", "delta-inf",
        "delta-0", "schedule-nan", "schedule-inf", "schedule-negative"])
def test_bad_numeric_arguments_exit_2(argv, message, capsys):
    # argparse names the argument and exits 2, as for any argument error;
    # nothing raises past main
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # c k^p of the pgap family overflows, where it raised OverflowError
    (_PGAP + ["--schedule", "1e300"], "eps=1e+300: the family's constant leaves"),
    (["rp-scan", "--N", "13", "--p", "4", "--scan-axis", "N", "--N-max", "10"],
     "the last N, 10, is below the first, 13"),
    # the origin head of power delta - 1 reads r^(1 - delta) down to
    # r = eps e^-45, which overflows from delta = 16.6 at eps = 0.5
    (_HARDY1D + ["--schedule", "0.5", "--delta", "16.6"], "origin power 15.6 is too large"),
    (_HARDY1D + ["--schedule", "0.5", "--delta", "20"], "origin power 19 is too large"),
    (_HARDY1D + ["--schedule", "0.5", "--delta", "50"], "origin power 49 is too large"),
    (_HARDY1D + ["--schedule", "0.5", "--delta", "1e300"],
     "origin power 1e+300 is too large"),
    # omega_(N-3) of the rho axis divides by Gamma((N-2)/2), which
    # overflows from N = 346
    (["verify", "--kind", "bounded-v", "--N", "400", "--p", "2", "--trials", "1"],
     "N=400: the rho axis measure"),
    (["verify", "--kind", "mazya", "--N", "346", "--p", "2", "--trials", "1"],
     "N=346: the rho axis measure"),
], ids=["pgap-eps-1e300", "rp-scan-empty-N-range", "hardy1d-delta-16.6",
        "hardy1d-delta-20", "hardy1d-delta-50", "hardy1d-delta-1e300",
        "bounded-v-N-400", "mazya-N-346"])
def test_bad_parameter_combinations_exit_2(argv, message, capsys):
    # a value argparse accepts but the command cannot use is named in a
    # parameter error, and no report is written
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hyplab: parameter error: ")
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    _HARDY1D + ["--schedule", "0.5", "--delta", "16.4"],
    ["verify", "--kind", "mazya", "--N", "345", "--p", "2", "--trials", "1"],
], ids=["hardy1d-delta-16.4", "mazya-N-345"])
def test_largest_accepted_parameters_run(argv, capsys):
    # the last values below each refusal above still give a report
    assert main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 2


GOLDEN = Path(__file__).parent / "golden"

# Generated with this file's commands; see CHANGES.md for the commit.
GOLDEN_RUNS = {
    f"verify_{kind}_N{N}_p{p}.json": [
        "verify", "--kind", kind, "--N", str(N), "--p", str(p),
        "--trials", "2", "--seed", "11", "--tol", "1e-6",
    ]
    for kind in ("bounded-v", "mazya")
    for N, p in ((3, 2), (2, 3), (3, 3), (4, 2), (4, 3))
}
GOLDEN_RUNS["sharpness_pgap_N2_p2.json"] = [
    "sharpness", "--kind", "pgap", "--N", "2", "--p", "2",
    "--schedule", "0.1", "0.01",
]
GOLDEN_RUNS["sharpness_pgap_N3_p3.json"] = [
    "sharpness", "--kind", "pgap", "--N", "3", "--p", "3",
    "--schedule", "0.1", "0.01",
]
GOLDEN_RUNS["sharpness_hardy1d_N3_p3.json"] = [
    "sharpness", "--kind", "hardy1d", "--N", "3", "--p", "3", "--l", "2",
    "--schedule", "0.001", "--delta", "0.001",
]
GOLDEN_RUNS["sharpness_hardy1d_N3_p2.5.json"] = [
    "sharpness", "--kind", "hardy1d", "--N", "3", "--p", "2.5",
    "--schedule", "0.1", "0.01", "0.001", "--delta", "0.01",
]
GOLDEN_RUNS["weights_N13_p4.json"] = ["weights", "--N", "13", "--p", "4"]
# p near 1 at the edge of the double range: W is finite down to r ~ 2e-308
GOLDEN_RUNS["weights_N2_p1.001.json"] = [
    "weights", "--N", "2", "--p", "1.001", "--r-min", "1e-308", "--r-max", "1e-300",
    "--points", "5",
]
# The scalar commands, as the benchmark's radial workload runs them.
GOLDEN_RUNS["constants_N13_p4.json"] = ["constants", "--N", "13", "--p", "4"]
GOLDEN_RUNS["rp_N13_p4.json"] = ["rp", "--N", "13", "--p", "4"]
GOLDEN_RUNS["rp-scan_N13_p4_N.json"] = [
    "rp-scan", "--N", "13", "--p", "4", "--scan-axis", "N", "--N-max", "40",
]
GOLDEN_RUNS["rp-scan_N13_p4_p.json"] = [
    "rp-scan", "--N", "13", "--p", "4", "--scan-axis", "p",
    "--p-values", "2.5", "3", "3.5", "4",
]
GOLDEN_RUNS["figure1_N13_p4.json"] = ["figure1", "--N", "13", "--p", "4", "--points", "1500"]
GOLDEN_RUNS["proofcheck_N13_p4.json"] = [
    "proofcheck", "--N", "13", "--p", "4", "--trials", "64", "--seed", "3",
]
# One radial verify per kind, at the default tol.
for kind, N, p, extra in (
    ("pgap", 3, 2, []),
    ("green-weight", 5, 2, []),
    ("hardy", 13, 4, []),
    ("uncertainty", 8, 2.5, []),
    ("hp-weighted", 10, 3, []),
    ("ball", 8, 2.5, []),
    ("hardy1d", 3, 3, ["--l", "2"]),
):
    suffix = "_l2" if extra else ""
    GOLDEN_RUNS[f"verify_{kind}_N{N}_p{p}{suffix}.json"] = [
        "verify", "--kind", kind, "--N", str(N), "--p", str(p),
        "--trials", "3", "--seed", "11", *extra,
    ]
# The 40-trial battery of one kind, a quarter of its supports at the origin.
GOLDEN_RUNS["verify_hp-weighted_N3_p2_origin.json"] = [
    "verify", "--kind", "hp-weighted", "--N", "3", "--p", "2",
    "--trials", "40", "--seed", "11", "--allow-origin",
]


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_report_matches_golden(name, tmp_path):
    rc, text = run_cli(GOLDEN_RUNS[name], tmp_path, fmt="json")
    assert rc == 0
    data = parse(text, "json")
    env = ReportEnvelope(data["command"], data["params_echo"],
                         data["payload_kind"], data["payload"], seed=data["seed"])
    assert compare_golden(GOLDEN / name, env, rel_tol=1e-12) == []
