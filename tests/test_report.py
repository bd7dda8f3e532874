"""Serialization determinism and golden-file comparison."""

import json
import math

import numpy as np
import pytest

from hyplab import report
from hyplab.report import (
    ReportEnvelope,
    SchemaMismatch,
    compare_golden,
    dumps,
    emit,
    parse,
)


def _curve_env(values=None):
    values = values or [0.5, 1.0, 1.5]
    payload = [
        {"r": r, "Hp": 1.0 / (1.0 + r), "is_ge_one": r <= 1.0} for r in values
    ]
    return ReportEnvelope("figure1", {"N": 13, "p": 4.0}, "figure1_curve", payload)


class TestEnvelope:
    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            ReportEnvelope("x", {}, "figure1_curve", [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReportEnvelope("x", {}, "nonsense", [{"a": 1}])

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            ReportEnvelope("x", {}, "figure1_curve", [{"r": 1.0}])


class TestSerialization:
    def test_json_round_trip_byte_identical(self):
        env = _curve_env()
        text = dumps(env, "json")
        data = parse(text, "json")
        env2 = ReportEnvelope(
            data["command"], data["params_echo"], data["payload_kind"],
            data["payload"], seed=data["seed"],
        )
        assert dumps(env2, "json") == text

    def test_csv_round_trip_byte_identical(self):
        env = _curve_env()
        text = dumps(env, "csv")
        data = parse(text, "csv")
        env2 = ReportEnvelope("figure1", {}, data["payload_kind"], data["payload"])
        assert dumps(env2, "csv") == text

    def test_same_envelope_twice_identical(self):
        assert dumps(_curve_env(), "json") == dumps(_curve_env(), "json")
        assert dumps(_curve_env(), "csv") == dumps(_curve_env(), "csv")

    def test_shortest_round_trip_floats(self):
        env = _curve_env([0.1])
        text = dumps(env, "csv")
        assert "0.1," in text  # repr form, not 0.10000000000000001
        back = parse(text, "csv")
        assert back["payload"][0]["r"] == 0.1

    def test_infinity_sentinel(self):
        payload = [
            {"name": "r_p", "root": math.inf, "residual": 0.0, "iterations": 0,
             "bracket_lo": 0.0, "bracket_hi": math.inf}
        ]
        env = ReportEnvelope("rp", {"N": 5, "p": 2.0}, "root_table", payload)
        text = dumps(env, "json")
        assert '"+inf"' in text and "Infinity" not in text
        back = parse(text, "json")
        assert back["payload"][0]["root"] == math.inf

    def test_nan_rejected(self):
        payload = [
            {"r": float("nan"), "Hp": 1.0, "is_ge_one": True}
        ]
        env = ReportEnvelope("figure1", {}, "figure1_curve", payload)
        with pytest.raises(ValueError):
            dumps(env, "json")

    def test_sorted_keys_in_json(self):
        data = json.loads(dumps(_curve_env(), "json"))
        keys = list(data.keys())
        assert keys == sorted(keys)

    def test_csv_header_mandatory(self):
        text = dumps(_curve_env(), "csv")
        assert text.splitlines()[0] == "r,Hp,is_ge_one"


class TestEmit:
    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        emit(_curve_env(), "json", path)
        assert parse(path.read_text(), "json")["payload_kind"] == "figure1_curve"

    def test_io_error_carries_path(self, tmp_path):
        bad = tmp_path / "nodir" / "out.json"
        with pytest.raises(OSError) as exc:
            emit(_curve_env(), "json", bad)
        assert "out.json" in str(exc.value)


class TestGolden:
    def test_identical_files_empty_diff(self, tmp_path):
        path = tmp_path / "golden.json"
        emit(_curve_env(), "json", path)
        assert compare_golden(path, _curve_env(), 1e-12) == []

    def test_csv_golden(self, tmp_path):
        path = tmp_path / "golden.csv"
        emit(_curve_env(), "csv", path)
        assert compare_golden(path, _curve_env(), 1e-12) == []

    def test_single_perturbed_field(self, tmp_path):
        path = tmp_path / "golden.json"
        emit(_curve_env(), "json", path)
        env = _curve_env()
        perturbed = [dict(row) for row in env.payload]
        perturbed[1]["Hp"] *= 1.0 + 1e-6
        env2 = ReportEnvelope(env.command, env.params_echo, env.payload_kind, perturbed)
        diffs = compare_golden(path, env2, rel_tol=1e-7)
        assert len(diffs) == 1 and "Hp" in diffs[0].where
        assert compare_golden(path, env2, rel_tol=1e-5) == []

    def test_missing_column_is_schema_mismatch(self, tmp_path):
        path = tmp_path / "golden.json"
        text = dumps(_curve_env(), "json")
        data = json.loads(text)
        for row in data["payload"]:
            del row["is_ge_one"]
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch):
            compare_golden(path, _curve_env(), 1e-12)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "golden.json"
        data = json.loads(dumps(_curve_env(), "json"))
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch):
            compare_golden(path, _curve_env(), 1e-12)

    def test_payload_kind_mismatch(self, tmp_path):
        path = tmp_path / "golden.json"
        emit(_curve_env(), "json", path)
        other = ReportEnvelope(
            "rp", {}, "root_table",
            [{"name": "r0", "root": 1.0, "residual": 0.0, "iterations": 1,
              "bracket_lo": 0.5, "bracket_hi": 2.0}],
        )
        with pytest.raises(SchemaMismatch):
            compare_golden(path, other, 1e-12)


def _two_step_cell(x):
    """The CSV cell formatter before its float fast path: sentinel, then format."""
    x = report._sentinel(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return x


class TestCsvCell:
    CASES = [
        0.0, -0.0, 1.0, -2.5, 0.1, 1e300, 5e-324, 2.2250738585072014e-308 / 3,
        math.inf, -math.inf,
        np.float64(0.1), np.float64(-0.0), np.float64(5e-324), np.float64(math.inf),
        np.float64(-math.inf), np.int64(7), np.int64(-3), np.bool_(True),
        np.bool_(False), True, False, 0, 3, -12, "pgap", "",
    ]

    @pytest.mark.parametrize("x", CASES, ids=repr)
    def test_fast_path_matches_two_step_formatter(self, x):
        cell = report._csv_cell(x)
        old = _two_step_cell(x)
        assert type(cell) is type(old) and cell == old

    def test_infinities_and_nan(self):
        assert report._csv_cell(math.inf) == "+inf"
        assert report._csv_cell(-math.inf) == "-inf"
        assert report._csv_cell(np.float64(-math.inf)) == "-inf"
        for nan in (math.nan, np.float64(math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                report._csv_cell(nan)
