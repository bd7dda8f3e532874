"""Deterministic serialization of results and golden-file comparison.

Envelopes serialize to canonical JSON (sorted keys, fixed separators, no
NaN/Inf - non-finite values become the string sentinels "+inf"/"-inf")
or to RFC-4180-style CSV with a mandatory header and a fixed column
order per payload kind.  Floats are written in shortest round-trip form,
so serialize -> parse -> serialize is byte-identical and repeated runs
with fixed seeds produce identical files.  No timestamps are recorded.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "SchemaMismatch",
    "ReportEnvelope",
    "emit",
    "dumps",
    "parse",
    "compare_golden",
    "PAYLOAD_COLUMNS",
]

SCHEMA_VERSION = 1

PAYLOAD_COLUMNS: dict[str, tuple[str, ...]] = {
    "inequality_reports": (
        "kind", "N", "p", "l", "test_function", "lhs", "rhs", "slack",
        "quad_error", "passed",
    ),
    "constant_table": ("name", "value", "kind", "case_label", "optimizer_arg"),
    "weight_samples": ("r", "W", "W_err", "Hp", "h", "V_geodesic"),
    "figure1_curve": ("r", "Hp", "is_ge_one"),
    "scan_table": ("axis", "value", "r_p", "slope_formula"),
    "sharpness_rows": ("eps", "delta", "quotient", "quad_error", "lower", "upper"),
    "proofcheck_rows": ("check", "detail", "value", "threshold", "passed"),
    "root_table": ("name", "root", "residual", "iterations", "bracket_lo", "bracket_hi"),
}


class SchemaMismatch(ValueError):
    """Golden file does not match the current schema."""


@dataclass(frozen=True)
class ReportEnvelope:
    command: str
    params_echo: dict
    payload_kind: str
    payload: list[dict]
    seed: int | None = None

    def __post_init__(self):
        if self.payload_kind not in PAYLOAD_COLUMNS:
            raise ValueError(f"unknown payload kind {self.payload_kind!r}")
        if not self.payload:
            raise ValueError("payload must be non-empty")
        cols = PAYLOAD_COLUMNS[self.payload_kind]
        for row in self.payload:
            missing = [c for c in cols if c not in row]
            if missing:
                raise ValueError(f"payload row missing columns {missing}")


def _sentinel(x):
    if hasattr(x, "item") and not isinstance(x, (str, bytes)):
        x = x.item()  # numpy scalars -> native types
    if isinstance(x, float):
        if math.isinf(x):
            return "+inf" if x > 0 else "-inf"
        if math.isnan(x):
            raise ValueError("NaN is not serializable in reports")
    return x


def _unsentinel(x):
    if x == "+inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return x


def _envelope_dict(env: ReportEnvelope) -> dict:
    cols = PAYLOAD_COLUMNS[env.payload_kind]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": env.command,
        "params_echo": {k: _sentinel(v) for k, v in env.params_echo.items()},
        "seed": env.seed,
        "payload_kind": env.payload_kind,
        "payload": [{c: _sentinel(row[c]) for c in cols} for row in env.payload],
    }


def dumps(env: ReportEnvelope, fmt: str = "json") -> str:
    if fmt == "json":
        return (
            json.dumps(
                _envelope_dict(env),
                sort_keys=True,
                ensure_ascii=False,
                allow_nan=False,
                separators=(",", ": "),
                indent=1,
            )
            + "\n"
        )
    if fmt == "csv":
        cols = PAYLOAD_COLUMNS[env.payload_kind]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(cols)
        for row in env.payload:
            writer.writerow([_csv_cell(row[c]) for c in cols])
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(x):
    """One CSV cell: shortest round-trip floats, true/false, sentinels."""
    # Only the exact type: np.float64 subclasses float, and its repr differs.
    if type(x) is float and math.isfinite(x):
        return repr(x)
    x = _sentinel(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)  # shortest round-trip representation
    return x


def emit(env: ReportEnvelope, fmt: str, destination) -> None:
    """Write the envelope to ``destination`` (path or file-like)."""
    text = dumps(env, fmt)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    Path(destination).write_text(text, encoding="utf-8")


def parse(text: str, fmt: str = "json") -> dict:
    """Parse an emitted report back into an envelope dictionary."""
    if fmt == "json":
        data = json.loads(text)
        for key in ("schema_version", "payload_kind", "payload"):
            if key not in data:
                raise SchemaMismatch(f"missing envelope field {key!r}")
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaMismatch(
                f"schema version {data['schema_version']} != {SCHEMA_VERSION}"
            )
        kind = data["payload_kind"]
        if kind not in PAYLOAD_COLUMNS:
            raise SchemaMismatch(f"unknown payload kind {kind!r}")
        cols = PAYLOAD_COLUMNS[kind]
        for row in data["payload"]:
            missing = [c for c in cols if c not in row]
            if missing:
                raise SchemaMismatch(f"payload row missing columns {missing}")
            for c in cols:
                row[c] = _unsentinel(row[c])
        return data
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        if not rows:
            raise SchemaMismatch("empty CSV report")
        header = tuple(rows[0])
        for kind, cols in PAYLOAD_COLUMNS.items():
            if header == cols:
                payload = [
                    {c: _csv_parse_cell(v) for c, v in zip(cols, r)} for r in rows[1:]
                ]
                return {
                    "schema_version": SCHEMA_VERSION,
                    "payload_kind": kind,
                    "payload": payload,
                }
        raise SchemaMismatch(f"CSV header {header} matches no payload kind")
    raise ValueError(f"unknown format {fmt!r}")


def _csv_parse_cell(v: str):
    if v in ("true", "false"):
        return v == "true"
    if v in ("+inf", "-inf"):
        return _unsentinel(v)
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


@dataclass(frozen=True)
class DiffEntry:
    where: str
    expected: object
    actual: object


def compare_golden(path, env: ReportEnvelope, rel_tol: float = 1e-12) -> list[DiffEntry]:
    """Field-by-field comparison against a stored golden report.

    Numeric fields compare relatively (|a-b| <= rel_tol * max(|a|, |b|, 1));
    discrete fields must match exactly.  Missing columns or a different
    payload kind raise :class:`SchemaMismatch`.  Returns the list of
    differing fields (empty = pass).
    """
    path = Path(path)
    fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    golden = parse(path.read_text(encoding="utf-8"), fmt)
    current = (
        _envelope_dict(env)
        if fmt == "json"
        else parse(dumps(env, "csv"), "csv")
    )
    if golden["payload_kind"] != env.payload_kind:
        raise SchemaMismatch(
            f"payload kind {golden['payload_kind']!r} != {env.payload_kind!r}"
        )
    diffs: list[DiffEntry] = []
    g_rows, c_rows = golden["payload"], current["payload"]
    if len(g_rows) != len(c_rows):
        diffs.append(DiffEntry("payload length", len(g_rows), len(c_rows)))
        return diffs
    cols = PAYLOAD_COLUMNS[env.payload_kind]
    for i, (g, c) in enumerate(zip(g_rows, c_rows)):
        for col in cols:
            gv, cv = _unsentinel(g[col]), _unsentinel(c[col])
            if isinstance(gv, bool) or isinstance(cv, bool) or not (
                isinstance(gv, (int, float)) and isinstance(cv, (int, float))
            ):
                if str(gv) != str(cv):
                    diffs.append(DiffEntry(f"row {i} col {col}", gv, cv))
                continue
            a, b = float(gv), float(cv)
            if a == b or (math.isinf(a) and math.isinf(b) and a == b):
                continue
            if abs(a - b) > rel_tol * max(abs(a), abs(b), 1.0):
                diffs.append(DiffEntry(f"row {i} col {col}", gv, cv))
    return diffs
