"""Adaptive quadrature engines.

One dimensional integration uses a nested Gauss(7)/Kronrod(15) pair per
panel with local error = |K15 - G7| and worst-panel-first bisection.  Many
independent integrals advance in lockstep rounds, every round's new panels
evaluated in one integrand call and contracted in one fixed-order sum per
panel, and each integral refines exactly as it would alone.
Every result is a :class:`QuadResult`, whose arithmetic propagates the
error estimates to first order, so a quantity assembled from several
integrals carries its own error budget.

Endpoint singularities of power type ``(r - a)**(delta - 1)`` are handled
by an exact split: the pure power integrates in closed form and the
remainder is integrated on a logarithmic axis, where it decays like
``exp(-(1 + delta) t)``.  No panels in r can do this: for
delta = 1e-3 more than 97% of the singular mass sits below any
representable cutoff, so the substitution is mandatory, not cosmetic.

Multidimensional integrals (dimension 2 or 3, used for the half-space
model) run on tensor Gauss-Kronrod cells with the same embedded error
estimate per axis and a worst-cell refinement loop.  Each call integrates
one integrand over one box, which is the seed cell; every round of splits
is evaluated in one batch: one integrand call on per-axis node arrays and
one matmul against the tensor weights.

Every integrand is vectorized: it takes node arrays and returns arrays.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "ToleranceNotAchieved",
    "NonIntegrableSingularity",
    "QuadResult",
    "integrate_interval",
    "integrate_intervals",
    "power_singular_integral",
    "power_singular_integrals",
    "integrate_cells",
]


class QuadratureError(Exception):
    """Base class for integration failures."""


class ToleranceNotAchieved(QuadratureError):
    """Refinement budget exhausted; carries the best value found."""

    def __init__(self, message: str, result: "QuadResult"):
        super().__init__(message)
        self.result = result


class NonIntegrableSingularity(QuadratureError):
    """The requested weight is not integrable on the given support."""


@dataclass(frozen=True)
class QuadResult:
    """Integral value with a rigorous-in-spirit error estimate.

    ``error_estimate`` adds the summed panel errors and any analytic
    truncation bound.

    The operators propagate the error to first order: ``a + b`` and
    ``a - b`` add the errors, ``c * a`` for a number c scales it by |c|,
    ``a * b`` gives e_a |v_b| + |v_a| e_b, ``a / b`` gives
    (e_a + |q| e_b) / |v_b| with q = v_a / v_b, and ``a ** s`` gives
    |s| |v|^(s-1) e.  Combining two results adds their subdivisions.  An
    operation whose value or error is not finite raises
    :class:`QuadratureError`.
    """

    value: float
    error_estimate: float
    subdivisions: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")

    def _combine(self, other: "QuadResult", value, error) -> "QuadResult":
        return _finite_result(value, error, self.subdivisions + other.subdivisions)

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return self._combine(other, self.value + other.value,
                             self.error_estimate + other.error_estimate)

    def __sub__(self, other: "QuadResult") -> "QuadResult":
        return self._combine(other, self.value - other.value,
                             self.error_estimate + other.error_estimate)

    def __mul__(self, other) -> "QuadResult":
        if not isinstance(other, QuadResult):
            return _finite_result(other * self.value, abs(other) * self.error_estimate,
                                  self.subdivisions)
        return self._combine(
            other, self.value * other.value,
            self.error_estimate * abs(other.value)
            + abs(self.value) * other.error_estimate,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadResult") -> "QuadResult":
        q = self.value / other.value
        return self._combine(
            other, q,
            (self.error_estimate + abs(q) * other.error_estimate) / abs(other.value),
        )

    def __pow__(self, s: float) -> "QuadResult":
        try:
            value = self.value**s
            error = abs(s) * abs(self.value) ** (s - 1.0) * self.error_estimate
        except OverflowError:
            value = error = math.inf
        return _finite_result(value, error, self.subdivisions)


def _finite_result(value, error, subdivisions) -> QuadResult:
    if not (math.isfinite(value) and math.isfinite(error)):
        raise QuadratureError(
            f"result not finite: value {value!r}, error estimate {error!r}"
        )
    return QuadResult(value, error, subdivisions)


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (QUADPACK dqk15 values),
# from the left end to the middle; the nodes are odd and the weights even.
_XGK_LEFT = [-0.991455371120813, -0.949107912342759, -0.864864423359769,
             -0.741531185599394, -0.586087235467691, -0.405845151377397,
             -0.207784955007898]
_WGK_LEFT = [0.022935322010529, 0.063092092629979, 0.104790010322250,
             0.140653259715525, 0.169004726639267, 0.190350578064785,
             0.204432940075298, 0.209482141084728]
# Gauss-7 weights on the odd Kronrod nodes, zero on the others.
_WG_LEFT = [0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
            0.381830050505119, 0.0, 0.417959183673469]
_XGK = np.array(_XGK_LEFT + [0.0] + [-x for x in reversed(_XGK_LEFT)])
_WGK = np.array(_WGK_LEFT + _WGK_LEFT[-2::-1])
_WG = np.array(_WG_LEFT + _WG_LEFT[-2::-1])
# Kronrod and Gauss weights as rows, for one contraction of a batch
_WKG = np.array([_WGK, _WG])


def _seed_points(
    a: float,
    b: float,
    breakpoints: Sequence[float],
) -> list[float]:
    """Ends of the initial panels: [a, b] split at the breakpoints inside it."""
    return sorted({float(a), float(b)} | {float(c) for c in breakpoints if a < c < b})


# Nodes per integrand call of the 1-D engine (256 panels), so each
# temporary array of a battery's integrand stays near 30 kB.
_INTERVAL_CHUNK_NODES = 15 * 256
# Integrals in flight at once.  Their panels share one array, so this
# bounds the memory of a battery; 64 integrals split up to 512 panels a
# round, two full integrand calls, which spreads the round's fixed cost
# of a few dozen array operations over enough panels.
_INTERVAL_WINDOW = 64
# Panels one integral may make before it fails with ToleranceNotAchieved.
_MAX_PANELS = 4000


def integrate_intervals(
    f: Callable,
    a: Sequence[float],
    b: Sequence[float],
    tol: float | Sequence[float],
    breakpoints: Sequence[Sequence[float]] | None = None,
    rel_tol: float | Sequence[float] = 0.0,
) -> list[QuadResult]:
    """K independent adaptive integrals, integral k of ``f`` on [a[k], b[k]].

    ``f(x, owner)`` takes a 1-D node array and an equally long integer
    array that names the integral of each node, and returns the integrand
    values; in every call ``owner`` is nondecreasing.  Each integral's
    seed panels split its interval at its breakpoints; an endpoint
    singularity of power type goes through
    :func:`power_singular_integrals` instead.

    The integrals advance in lockstep rounds.  In each round every
    integral whose summed |K15 - G7| panel errors exceed
    ``tol + rel_tol * |integral|`` (``tol`` and ``rel_tol`` each one
    number for all, or one per integral) splits its up to 8 worst panels
    (largest error first, ties by lower end), and the children of all
    integrals are evaluated together, in integrand calls of at most
    ``_INTERVAL_CHUNK_NODES`` nodes; at most ``_INTERVAL_WINDOW``
    integrals are in flight, the next starting as one finishes.  A panel
    too narrow to split is kept, and its error still counts in the sum
    but no longer in the choice, where it ranks as an error of 0; an
    integral whose chosen panels are all that narrow ends there.  The
    panels of all integrals in flight are the rows of one array, each
    integral's rows left to right, and each integral sums its panels'
    values and errors over its own rows in that order.  The GK15 sums of
    a round's panels come from one contraction that sums every panel in
    one fixed order, whatever the other panels, so every result is bit
    for bit the one the integral gets alone.

    An integral that exhausts ``_MAX_PANELS`` panels fails with
    :class:`ToleranceNotAchieved` (carrying its best result), one whose
    integrand is not finite with :class:`QuadratureError`; the others
    run on, and then the failure of the first failing integral is raised.
    """
    K = len(a)
    tols, rel_tols = np.empty(K), np.empty(K)
    tols[:], rel_tols[:] = tol, rel_tol
    breakpoints = [()] * K if breakpoints is None else breakpoints
    for k in range(K):
        if not (a[k] < b[k]):
            raise ValueError(f"need a < b, got [{a[k]}, {b[k]}]")
    results: list[QuadResult | None] = [None] * K
    failures: dict[int, QuadratureError] = {}
    # One row per panel of the integrals in flight: lo, hi, value, error;
    # grouped by integral in index order, left to right within each.  A
    # panel's key orders the choice of panels to split: its error, or 0
    # once it is too narrow to split.
    rows, keys = np.empty((0, 4)), np.empty(0)
    # Per integral in flight: its index and its rows (brought up to date
    # when the integrals in flight change), and as floats its panels
    # evaluated, tol and rel_tol.  Only floats are compared or added:
    # numpy's integer arithmetic and comparison loops, which a short run
    # may touch nowhere else, would each fault in 64 or 128 kB of code.
    ids = counts = fresh = np.empty(0, dtype=np.intp)  # fresh: the rows to evaluate
    state = np.empty((0, 3))
    budget = np.full(_INTERVAL_WINDOW, float(_MAX_PANELS))
    started = 0
    while True:
        # Integrals start in order, at most _INTERVAL_WINDOW at a time.
        if len(ids) < _INTERVAL_WINDOW and started < K:
            new = range(started, min(K, started + _INTERVAL_WINDOW - len(ids)))
            ends = [_seed_points(a[k], b[k], breakpoints[k]) for k in new]
            n_seed = [len(pts) - 1 for pts in ends]
            seeds = np.zeros((sum(n_seed), 4))
            seeds[:, 0] = [x for pts in ends for x in pts[:-1]]
            seeds[:, 1] = [x for pts in ends for x in pts[1:]]
            added = np.empty((len(new), 3))
            added[:, 0] = n_seed
            added[:, 1] = tols[new.start:new.stop]
            added[:, 2] = rel_tols[new.start:new.stop]
            fresh = np.concatenate((fresh, np.arange(len(rows), len(rows) + len(seeds))))
            rows = np.concatenate((rows, seeds))
            keys = np.concatenate((keys, seeds[:, 3]))
            ids = np.concatenate((ids, new))
            counts = np.concatenate((counts, n_seed))
            state = np.concatenate((state, added))
            grp = None
            started = new.stop
        if not len(ids):
            break
        if grp is None:
            grp = np.arange(len(ids)).repeat(counts)  # each row's integral
            place = np.arange(len(ids), dtype=float).repeat(counts)  # grp, as floats
        panels, tol_of, rel_of = state.T  # views: panels is updated in place
        values, errors, bad = _panel_sums(f, rows[:, 0][fresh], rows[:, 1][fresh],
                                          ids[grp[fresh]])
        if bad is not None:
            # an integral with a panel that is not finite fails and ends here
            failing = ~np.isnan(bad)
            failed = grp[fresh][failing]
            for g, x in zip(failed.tolist(), bad[failing].tolist()):
                failures.setdefault(int(ids[g]),
                                    QuadratureError(f"integrand not finite at x={x!r}"))
        value, error = rows[:, 2], rows[:, 3]
        value[fresh] = values
        error[fresh] = keys[fresh] = errors
        # each integral sums its panels in row order, left to right
        total = np.bincount(grp, value)
        err = np.bincount(grp, error)
        with np.errstate(invalid="ignore"):  # 0 * inf where a sum is infinite
            met = err <= tol_of + rel_of * np.abs(total)
        ends_here = met | (budget[:len(ids)] <= panels)
        if bad is not None:
            ends_here[failed] = True
        # each refining integral's up to 8 worst panels, ties by lower end:
        # the sort keeps each integral's rows where they are, so its first
        # 8 places are those whose row 8 places back is another integral's
        order = np.lexsort((-keys, grp))
        first8 = np.empty(len(rows), dtype=bool)
        first8[:8] = True
        first8[8:] = place[8:] != place[:-8]
        live = ~ends_here[grp]
        split = np.zeros(len(rows), dtype=bool)
        split[order[first8 & live]] = True
        lows, highs = rows[:, 0][split], rows[:, 1][split]
        mids = 0.5 * (lows + highs)
        narrow = (mids <= lows) | (mids >= highs)
        if np.count_nonzero(narrow):
            # Width at rounding floor: keep the panel, count its error.
            at_floor = split.nonzero()[0][narrow]
            keys[at_floor] = 0.0
            split[at_floor] = False
            mids = mids[~narrow]
            ends_here[np.bincount(grp, split) == 0] = True  # nothing left to split
            live = ~ends_here[grp]
        ended = ends_here.nonzero()[0].tolist()
        for g in ended:
            k = int(ids[g])
            if k in failures:
                continue
            res = QuadResult(float(total[g]), float(err[g]), int(panels[g]))
            if met[g] or panels[g] < _MAX_PANELS:
                results[k] = res
            else:
                failures[k] = ToleranceNotAchieved(
                    f"error estimate {res.error_estimate:.3e} > tol {tols[k]:.3e} "
                    f"after {res.subdivisions} panels on [{a[k]}, {b[k]}]", res)
        # Split in place: each chosen panel becomes its two halves, and the
        # rows of the integrals that end here go.
        copies = np.where(split, 2, live)
        rows = rows.repeat(copies, axis=0)
        keys = keys.repeat(copies)
        fresh = split.repeat(copies).nonzero()[0]
        rows[:, 1][fresh[0::2]] = mids
        rows[:, 0][fresh[1::2]] = mids
        panels += 2 * np.bincount(grp, split)
        if ended:
            counts = np.bincount(grp.repeat(copies), minlength=len(ids))
            keep = ~ends_here
            ids, counts, state = ids[keep], counts[keep], state[keep]
            grp = None
        else:
            grp, place = grp.repeat(copies), place.repeat(copies)
    if failures:
        raise failures[min(failures)]
    return results


def _per_run(calls, x, idx):
    """calls[idx[s]](x[s:e]) on every run s:e of equal idx, as one array.

    Each call sees only its own nodes, so a callable with scalar
    parameters keeps numpy's scalar fast paths (``x ** 2`` squares,
    ``x ** 0.5`` takes the square root) and gives the values it gives
    alone, bit for bit.
    """
    out = np.empty_like(x)
    cuts = ((idx[1:] - idx[:-1]).nonzero()[0] + 1).tolist()
    for s, e in zip([0] + cuts, cuts + [len(x)]):
        out[s:e] = calls[idx[s]](x[s:e])
    return out


def _panel_sums(f, lows, highs, owner):
    """GK15 values and |K15 - G7| errors of the panels [lows[i], highs[i]]
    of the integrals owner[i], in integrand calls of at most
    ``_INTERVAL_CHUNK_NODES`` nodes.

    Returns (values, errors, bad): bad is None where the integrand is
    finite at every node, else per panel its first node where it is not,
    and NaN for the panels finite throughout.
    """
    mids = 0.5 * (lows + highs)
    halfs = 0.5 * (highs - lows)

    def nodes(rows):
        return (mids[rows, None] + halfs[rows, None] * _XGK).ravel()

    vals = np.empty((len(lows), 15))
    step = _INTERVAL_CHUNK_NODES // 15
    for s in range(0, len(lows), step):
        rows = slice(s, s + step)
        vals[rows] = f(nodes(rows), owner[rows].repeat(15)).reshape(-1, 15)
    # einsum without BLAS sums every row in one fixed order, so a panel's
    # sums do not depend on the other rows (a failed integral's give NaN).
    k15, g7 = np.einsum("ij,kj->ki", vals, _WKG, optimize=False)
    if np.isfinite(k15).all():
        return k15 * halfs, np.abs(k15 - g7) * halfs, None
    # Every Kronrod weight is positive, so a NaN or an infinity at any
    # node makes its row's K15 sum non-finite.
    finite = np.isfinite(vals)
    first = nodes(slice(None)).reshape(-1, 15)[np.arange(len(lows)), finite.argmin(axis=1)]
    bad = np.where(finite.all(axis=1), np.nan, first)
    with np.errstate(invalid="ignore"):
        return k15 * halfs, np.abs(k15 - g7) * halfs, bad


def integrate_interval(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    breakpoints: Sequence[float] = (),
    rel_tol: float = 0.0,
) -> QuadResult:
    """Adaptive integral of ``f`` on the finite interval [a, b].

    The single-integral case of :func:`integrate_intervals`: ``f`` takes
    the node array alone.  Raises :class:`ToleranceNotAchieved` (carrying
    the best result) if the panel budget runs out first.
    """
    return integrate_intervals(
        lambda x, owner: f(x), [a], [b], tol, [breakpoints], rel_tol,
    )[0]


def power_singular_integral(
    g: Callable,
    delta: float,
    b: float,
    rel_tol: float,
) -> QuadResult:
    """Compute ``int_0^b r**(delta-1) g(r) dr`` for 0 < delta, g with a limit C at 0.

    Exact split: ``C b**delta / delta`` plus the remainder with
    ``g(r) - C``, mapped to the logarithmic axis ``r = b e^{-t}`` where
    the integrand is ``b**delta e^{-delta t}(g(b e^{-t}) - C)`` and
    decays at least one exponential order faster than the pure power.
    Works uniformly down to delta ~ 1e-3 and far beyond, where panels
    in r-space would silently drop nearly all of the mass.  The
    one-integral case of :func:`power_singular_integrals`.
    """
    return power_singular_integrals([g], [delta], [b], rel_tol)[0]


def power_singular_integrals(
    gs: Sequence[Callable],
    deltas: Sequence[float],
    bs: Sequence[float],
    rel_tol: float,
) -> list[QuadResult]:
    """``int_0^b r**(delta-1) g(r) dr`` for every (g, delta, b) of the
    sequences, as :func:`power_singular_integral` computes each one, in
    one :func:`integrate_intervals` pass.

    Each C is 2 g(h) - g(2h) at h = 1e-8 b, exact to O(h**2) for smooth g
    and never reading g(0), which a profile may mask; the estimate adds its
    error |2 g(h) - 3 g(2h) + g(4h)| / 3 times b**delta / delta.  Each
    remainder's tolerance is ``rel_tol * |C b**delta / delta|`` of its own
    lead term.  Every integrand call evaluates each g once, on its own
    nodes and with its own scalars, so each result is bit for bit the
    one-integral result.
    """
    K = len(gs)
    cs, c_errs = [], []
    for k in range(K):
        if deltas[k] <= 0:
            raise NonIntegrableSingularity(
                f"power exponent delta={deltas[k]} must be > 0")
        if bs[k] <= 0:
            raise ValueError("b must be positive")
        g_h, g_2h, g_4h = gs[k](np.array([1e-8, 2e-8, 4e-8]) * bs[k])
        cs.append(float(2.0 * g_h - g_2h))
        c_errs.append(float(abs(2.0 * g_h - 3.0 * g_2h + g_4h)) / 3.0
                      * bs[k]**deltas[k] / deltas[k])
    leads = [c * b**delta / delta for c, b, delta in zip(cs, bs, deltas)]

    def remainder(k: int, t: np.ndarray) -> np.ndarray:
        b, delta = bs[k], deltas[k]
        r = b * np.exp(-t)
        return b**delta * np.exp(-delta * t) * (gs[k](r) - cs[k])

    remainders = [functools.partial(remainder, k) for k in range(K)]
    # g(r)-C ~ g'(0) r, so the t-integrand decays like e^{-(1+delta)t}:
    # at T=45 the remainder is below 1e-19 of the local scale.
    T = 45.0
    rests = integrate_intervals(
        lambda t, owner: _per_run(remainders, t, owner), [0.0] * K, [T] * K,
        [rel_tol * abs(lead) for lead in leads], rel_tol=rel_tol,
    )
    out = []
    for rem, delta, lead, c_err, rest in zip(remainders, deltas, leads, c_errs, rests):
        tail = abs(float(rem(np.array([T]))[0])) / (1.0 + delta)
        out.append(QuadResult(lead + rest.value, rest.error_estimate + tail + c_err,
                              rest.subdivisions))
    return out


# ---------------------------------------------------------------------------
# Multidimensional tensor Gauss-Kronrod cells (dimension 2 or 3).
# ---------------------------------------------------------------------------


# Tensor nodes per integrand call: a round of refinement evaluates at most
# one chunk of children (4 splits in 3-D, 72 in 2-D), so the arrays of one
# batch stay near 256 kB.
_CELL_CHUNK_NODES = 2**15
# glibc serves each block above its mmap threshold (128 kB at start) with a
# fresh mapping, which every integrand call then page-faults in; freeing a
# mapped block raises the threshold to that block's size.  Freeing one
# 512 kB block here keeps every cell batch (about 260 kB) on the heap:
# the `halfspace` benchmark workload ran 59.7, 50.2 and 56.5 instances/s
# with this line against 41.2, 48.3 and 37.5/s without it (3 alternating
# 8 s pairs on a shared 2-vCPU host).
np.empty(2**16)
# Every finite double is an integer multiple of 2**-1074, so running sums
# kept as integers in that unit are exact.
_FIXED_ONE = 1 << 1074
# Cells one integral may make, by dimension, before ToleranceNotAchieved.
_MAX_CELLS = {2: 6000, 3: 20000}


def _fixed(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num * (_FIXED_ONE // den)


@functools.lru_cache(maxsize=3)
def _cell_weights(d: int) -> np.ndarray:
    """(15^d, d+1) tensor weights: column 0 is Kronrod on every axis,
    column 1+j is Gauss on axis j and Kronrod on the others."""
    cols = []
    for gauss_axis in (None,) + tuple(range(d)):
        w = np.ones(1)
        for j in range(d):
            w = np.multiply.outer(w, _WG if j == gauss_axis else _WGK)
        cols.append(w.ravel())
    return np.stack(cols, axis=1)


def _cell_rule(f: Callable, los: np.ndarray, his: np.ndarray):
    """Tensor GK15 values, embedded errors and worst axes of k boxes.

    ``los`` and ``his`` have shape (k, d).  The integrand is called once
    with one node array per axis, axis j of shape (k, 1, .., 15, .., 1)
    with the 15 nodes in position j+1, and its result is broadcast to
    (k, 15, ..., 15).  A box's error is the sum over axes of
    |Gauss-on-that-axis - K15|; its worst axis is the largest term.
    Returns three arrays with one entry per box.
    """
    k, d = los.shape
    mids = 0.5 * (los + his)
    halfs = 0.5 * (his - los)
    nodes = mids[:, :, None] + halfs[:, :, None] * _XGK
    axes = []
    for j in range(d):
        shape = [k] + [1] * d
        shape[j + 1] = 15
        axes.append(nodes[:, j].reshape(shape))
    full = (k,) + (15,) * d
    vals = np.asarray(f(*axes), dtype=float)
    if vals.shape != full:
        vals = np.broadcast_to(vals, full)
    scale = np.prod(halfs, axis=1)[:, None]
    # Every Kronrod tensor weight is positive, so a NaN or an infinity at
    # any node makes that cell's K15 sum non-finite.
    with np.errstate(invalid="ignore"):
        sums = (vals.reshape(k, -1) @ _cell_weights(d)) * scale
    if not np.isfinite(sums[:, 0]).all():
        raise QuadratureError("integrand not finite inside a cell")
    errs = np.abs(sums[:, 1:] - sums[:, :1])
    return sums[:, 0], errs.sum(axis=1), errs.argmax(axis=1)


def integrate_cells(
    f: Callable,
    box: Sequence[tuple[float, float]],
    tol: float,
    rel_tol: float = 0.0,
) -> QuadResult:
    """Adaptive tensor-product integration over a box of dimension 2 or 3.

    ``f`` is called on batches of cells with d per-axis node arrays that
    broadcast against each other (see :func:`_cell_rule`); it must return
    anything that broadcasts to their common shape, so a factor that
    depends on one axis only costs 15 evaluations per cell on that axis.
    The box is the one seed cell.  Refinement runs until
    error <= tol + rel_tol * |integral| and raises
    :class:`ToleranceNotAchieved` (carrying the best result) once the
    dimension's budget of ``_MAX_CELLS`` cells is made first.

    Cells are taken in order of error, largest first, ties by serial
    number (the box first, then children in order of creation).  Each
    round takes, in that order, the fewest cells whose errors cover the
    excess of the error over the goal at the start of the round, stopping
    early at one chunk of children or at the cell budget, and splits each
    on its worst axis; all children of a round are evaluated in one
    integrand call.  Splitting one cell at a time would split the same
    cells only while no child's error exceeds a cell still queued and
    while the goal stays fixed: with ``rel_tol > 0`` a |value| that grows
    within the round lowers the excess, so the one-at-a-time loop could
    stop sooner and make fewer cells.  A cell too narrow to split on its
    worst axis keeps its error in the sum and leaves the choice; with no
    cell left to split, the result is returned as it stands.  The stop
    test reads exact sums in units of 2**-1074, rounded once.
    """
    d = len(box)
    if d not in _MAX_CELLS:
        raise ValueError(f"integrate_cells supports dimensions 2 and 3, got {d}")
    budget = _MAX_CELLS[d]
    for i, (lo, hi) in enumerate(box):
        if not lo < hi:
            raise ValueError(f"axis {i}: need lo < hi, got ({lo}, {hi})")
    per_round = max(1, _CELL_CHUNK_NODES // 15**d // 2)
    # (-error, serial, los, his, value, error, worst axis), value and error
    # in units of 2**-1074, so a split subtracts what was added
    heap: list = []
    serials = itertools.count()
    total = err = n_cells = 0
    los = np.array([[lo for lo, _ in box]], dtype=float)
    his = np.array([[hi for _, hi in box]], dtype=float)
    while True:
        values, errors, worst = _cell_rule(f, los, his)
        for lo, hi, v, e, ax in zip(los.tolist(), his.tolist(), values.tolist(),
                                    errors.tolist(), worst.tolist()):
            fv, fe = _fixed(v), _fixed(e)
            heapq.heappush(heap, (-e, next(serials), tuple(lo), tuple(hi), fv, fe, ax))
            total += fv
            err += fe
        n_cells += len(values)
        value, error = total / _FIXED_ONE, err / _FIXED_ONE
        goal = tol + rel_tol * abs(value)
        if error <= goal:
            return QuadResult(value, error, n_cells)
        if n_cells >= budget:
            best = QuadResult(value, error, n_cells)
            raise ToleranceNotAchieved(
                f"cell budget exhausted: error {error:.3e} > tol {tol:.3e}", best
            )
        split = []  # (los, his, worst axis, midpoint) of the cells to split
        # err drops the error of each cell as it is split, so it is the
        # error of the cells not split
        while (heap and err / _FIXED_ONE > goal and len(split) < per_round
               and n_cells + 2 * len(split) < budget):
            _, _, lo_t, hi_t, fv, fe, ax = heapq.heappop(heap)
            lo, hi = lo_t[ax], hi_t[ax]
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                continue  # width at rounding floor: keep the cell and its error
            err -= fe
            total -= fv
            split.append((lo_t, hi_t, ax, mid))
        if not split:  # nothing left that can be split
            return QuadResult(value, error, n_cells)
        lo_ts, hi_ts, axes, mids = zip(*split)
        rows = 2 * np.arange(len(split))
        los = np.repeat(np.array(lo_ts), 2, axis=0)
        his = np.repeat(np.array(hi_ts), 2, axis=0)
        his[rows, axes] = mids
        los[rows + 1, axes] = mids


def geometric_splits(lo: float, hi: float, scale: float) -> list[float]:
    """Breakpoints lo+scale, lo+2*scale, lo+4*scale, ... below hi."""
    out = []
    w = scale
    while lo + w < hi:
        out.append(lo + w)
        w *= 2.0
    return out
