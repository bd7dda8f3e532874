"""Spans around the program's public entry points, from outside the program.

``install`` wraps each entry point and rebinds the name in every
``hyplab`` module namespace that holds it, since ``integrals``, ``core``
and ``verify`` import the quadrature engines by name.  Integrand
callbacks passed to the quadrature engines are wrapped as well.  Spans
(name, start, end, parent, run id, count) stay in memory; ``summary``
derives the per-layer metrics and ``write`` stores the spans at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

_now = time.perf_counter

NAME, START, END, PARENT, RUN, COUNT = range(6)

# (module, attribute, span name); a dotted attribute is a method.
ENTRY_POINTS = [
    ("hyplab.cli", "main", "cli.main"),
    ("hyplab.report", "emit", "report.emit"),
    ("hyplab.verify", "verify", "verify.verify"),
    ("hyplab.integrals", "radial_energy", "integrals.radial_energy"),
    ("hyplab.integrals", "radial_weighted_mass", "integrals.radial_weighted_mass"),
    ("hyplab.integrals", "hardy1d_energy", "integrals.hardy1d_energy"),
    ("hyplab.integrals", "hardy1d_mass", "integrals.hardy1d_mass"),
    ("hyplab.integrals", "halfspace_integral", "integrals.halfspace_integral"),
    ("hyplab.integrals", "ueps_energy_mass", "integrals.ueps_energy_mass"),
    ("hyplab.quadrature", "integrate_interval", "quadrature.interval"),
    ("hyplab.quadrature", "integrate_cells", "quadrature.cells"),
    ("hyplab.quadrature", "power_singular_integral", "quadrature.power_singular"),
    ("hyplab.core", "GreenWeight.w_array", "core.w_array"),
    ("hyplab.rp", "solve_rp", "rp.solve_rp"),
    ("hyplab.rp", "solve_r0", "rp.solve_r0"),
    ("hyplab.constants", "c_np", "constants.c_np"),
]
QUADRATURE = ("quadrature.interval", "quadrature.cells", "quadrature.power_singular")
INTEGRAND = "quadrature.integrand"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.exhausted: list[BaseException] = []
        self.rows_emitted = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.run, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        rec = self.spans[idx]
        rec[END] = _now()
        rec[COUNT] = count
        self.stack.pop()

    def plain(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def integrand(self, f):
        def traced(*xs):
            idx = self.open(INTEGRAND)
            try:
                return f(*xs)
            finally:
                self.close(idx, int(getattr(xs[0], "size", 1)))
        return traced

    def quadrature(self, fn, name, exhausted_type):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            idx = self.open(name)
            count = 0
            try:
                res = fn(self.integrand(f), *args, **kwargs)
                count = res.subdivisions
                return res
            except exhausted_type as exc:
                count = exc.result.subdivisions
                if not any(e is exc for e in self.exhausted):
                    self.exhausted.append(exc)
                raise
            finally:
                self.close(idx, count)
        return wrapper

    def emit(self, fn):
        @functools.wraps(fn)
        def wrapper(env, fmt, destination):
            idx = self.open("report.emit")
            before = destination.tell() if hasattr(destination, "tell") else 0
            try:
                return fn(env, fmt, destination)
            finally:
                after = destination.tell() if hasattr(destination, "tell") else 0
                self.close(idx, after - before)
                if env.payload_kind == "inequality_reports":
                    self.rows_emitted += len(env.payload)
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry point and rebind it wherever hyplab imported it."""
    quad = importlib.import_module("hyplab.quadrature")
    for mod_name, attr, span in ENTRY_POINTS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.plain(getattr(cls, meth), span))
            continue
        orig = getattr(mod, attr)
        if span in QUADRATURE:
            wrapped = tracer.quadrature(orig, span, quad.ToleranceNotAchieved)
        elif span == "report.emit":
            wrapped = tracer.emit(orig)
        else:
            wrapped = tracer.plain(orig, span)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hyplab" or name.startswith("hyplab.")):
                continue
            for key, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, key, wrapped)


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(tracer: Tracer) -> dict:
    """Per-layer work counts and times of the spans recorded so far."""
    spans = tracer.spans
    n = len(spans)
    child_time = [0.0] * n
    under_w = [False] * n
    under_rp = [False] * n
    for i, s in enumerate(spans):
        par = s[PARENT]
        if par >= 0:
            child_time[par] += s[END] - s[START]
            under_w[i] = under_w[par] or spans[par][NAME] == "core.w_array"
            under_rp[i] = under_rp[par] or spans[par][NAME].startswith("rp.")
    m = {
        "core.w_calls": 0, "core.w_s": 0.0, "core.w_segments": 0,
        "quadrature.interval_calls": 0, "quadrature.interval_panels": 0,
        "quadrature.interval_self_s": 0.0,
        "quadrature.cells_calls": 0, "quadrature.cells": 0,
        "quadrature.cells_self_s": 0.0,
        "quadrature.integrand_points": 0, "quadrature.integrand_s": 0.0,
        "quadrature.tolerance_exhausted": len(tracer.exhausted),
        "integrals.calls": 0, "integrals.self_s": 0.0,
        "verify.calls": 0, "verify.self_s": 0.0,
        "rp.solves": 0, "rp.solve_s": 0.0,
        "constants.c_np_calls": 0, "constants.c_np_s": 0.0,
        "report.emit_s": 0.0, "report.bytes": 0,
        "cli.self_s": 0.0,
    }
    instance_s = []
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        self_s = dur - child_time[i]
        if name == INTEGRAND:
            m["quadrature.integrand_s"] += self_s
            if s[PARENT] < 0 or spans[s[PARENT]][NAME] != INTEGRAND:
                m["quadrature.integrand_points"] += s[COUNT]
        elif name == "quadrature.interval":
            m["quadrature.interval_calls"] += 1
            m["quadrature.interval_panels"] += s[COUNT]
            m["quadrature.interval_self_s"] += self_s
            if under_w[i]:
                m["core.w_segments"] += 1
        elif name == "quadrature.cells":
            m["quadrature.cells_calls"] += 1
            m["quadrature.cells"] += s[COUNT]
            m["quadrature.cells_self_s"] += self_s
        elif name == "core.w_array":
            m["core.w_calls"] += 1
            m["core.w_s"] += dur
        elif name.startswith("integrals."):
            m["integrals.calls"] += 1
            m["integrals.self_s"] += self_s
        elif name == "verify.verify":
            m["verify.calls"] += 1
            m["verify.self_s"] += self_s
            instance_s.append(dur)
        elif name.startswith("rp."):
            m["rp.solves"] += 1
            if not under_rp[i]:
                m["rp.solve_s"] += dur
        elif name == "constants.c_np":
            m["constants.c_np_calls"] += 1
            m["constants.c_np_s"] += dur
        elif name == "report.emit":
            m["report.emit_s"] += dur
            m["report.bytes"] += s[COUNT]
        elif name == "cli.main":
            m["cli.self_s"] += self_s
    m["verify.instance_s.p50"] = _pct(instance_s, 0.5)
    m["verify.instance_s.p90"] = _pct(instance_s, 0.9)
    calls = m["verify.calls"]
    m["verify.rows_emitted_ratio"] = tracer.rows_emitted / calls if calls else 0.0
    return m


def write(tracer: Tracer, path) -> None:
    """Store the spans as gzipped JSON lines: [name, start, end, parent, run, count]."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
