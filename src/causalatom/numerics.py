"""Deterministic quadrature and small linear solves.

Everything here is pure and single-threaded: identical inputs give
bitwise-identical outputs.  Integrands must be numpy-vectorized
(they receive a float ndarray of nodes and return an ndarray).

The adaptive integrator is a nested Gauss(7)/Kronrod(15) scheme.  The
rule itself is constructed at import time from first principles: the
Kronrod extension nodes are the roots of the degree-8 Stieltjes
polynomial E8, defined by orthogonality of E8 to all lower powers
against the sign-varying weight P7(x) dx on [-1, 1].  Correctness is
pinned by tests (degree-22 exactness, node symmetry).

One lock-step engine runs every adaptive integral.  An integral is a list
of pieces, each a finite interval of a plain, semi-infinite-tail or
principal-value-fold integrand (``interval_pieces``, ``pv_pieces``).  Each
piece bisects its worst segment until its error estimate meets the
tolerance, with its own heap and counter; the pieces of an integral run one
after another and share its budget.  In each round the panels of all
unfinished integrals are evaluated together, so the Python cost per panel
is paid once per round instead of once per panel.  The arithmetic
per node and per 15-node panel is the same however many pieces run
together, so a piece returns the same floats alone or in a batch.
``integrate_batch`` runs many integrals at once, and ``integrate_adaptive``
and ``integrate_pv`` are batches of one.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import legendre

from .errors import (
    PoleLocationError,
    QuadratureConvergenceError,
    SingularMatrixError,
)

__all__ = [
    "Interval",
    "Piece",
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_batch",
    "integrate_pv",
    "interval_pieces",
    "pv_pieces",
    "solve_linear",
]

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-14
DEFAULT_MAX_EVALUATIONS = 1_000_000
_EPS = np.finfo(float).eps

# Of the integrals of a batch that have spent SLOW_EVALUATIONS evaluations, at
# most SLOW_WIDTH advance at a time, the first in order.  A batch ends at its
# first failing integral, and failures come after long runs, so this keeps the
# work done past a failure to about SLOW_WIDTH times the failing integral's.
# (split-check's dispersion integrals take at most 300 evaluations for
# |u| < 3.2, and up to 300 000 on |u| in [1e3, 5e9].)
SLOW_EVALUATIONS = 3000
SLOW_WIDTH = 4


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 rule, built at import time
# ---------------------------------------------------------------------------

def _build_gk15():
    xg, wg = legendre.leggauss(7)

    p7 = legendre.Legendre.basis(7).convert(kind=Polynomial)

    def pint(p):
        q = p.integ()
        return q(1.0) - q(-1.0)

    # E8(x) = x^8 + a6 x^6 + a4 x^4 + a2 x^2 + a0, orthogonal to x^j P7
    rows, rhs = [], []
    for j in (1, 3, 5, 7):
        base = Polynomial([0.0] * j + [1.0]) * p7
        rows.append([pint(base * Polynomial([0.0] * k + [1.0])) for k in (0, 2, 4, 6)])
        rhs.append(-pint(base * Polynomial([0.0] * 8 + [1.0])))
    a0, a2, a4, a6 = np.linalg.solve(np.array(rows), np.array(rhs))
    e8 = Polynomial([a0, 0.0, a2, 0.0, a4, 0.0, a6, 0.0, 1.0])
    roots = np.sort(e8.roots().real)
    de8 = e8.deriv()
    for _ in range(3):  # Newton polish to machine precision
        roots = roots - e8(roots) / de8(roots)

    nodes = np.sort(np.concatenate([xg, roots]))
    # weights by exactness on the Legendre basis up to degree 14
    v = np.array([legendre.Legendre.basis(j)(nodes) for j in range(15)])
    moments = np.zeros(15)
    moments[0] = 2.0
    wk = np.linalg.solve(v, moments)
    # Gauss-7 weights aligned with the Kronrod node ordering (odd positions)
    wg_full = np.zeros(15)
    wg_full[1::2] = wg
    return nodes, wk, wg_full


GK15_NODES, GK15_WEIGHTS, G7_WEIGHTS = _build_gk15()


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Integration interval; either endpoint may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.abs_error_estimate):
            raise ValueError("abs_error_estimate must be finite")
        if self.evaluations < 0:
            raise ValueError("evaluations must be >= 0")
        v = complex(self.value)
        if math.isfinite(v.real) and math.isfinite(v.imag) and self.evaluations == 0:
            raise ValueError("a finite value requires evaluations > 0")


# ---------------------------------------------------------------------------
# Adaptive integration: one lock-step engine
# ---------------------------------------------------------------------------

# How a piece's variable t in [a, b] reaches the integrand: PLAIN integrates
# f(t); TAIL integrates f(shift + sign t/(1-t)) / (1-t)^2 on [0, 1), the map of
# a semi-infinite interval anchored at shift; FOLD integrates
# f(shift + t) + f(shift - t), the principal-value fold about a pole at shift.
PLAIN, TAIL, FOLD = 0, 1, 2


class Piece(NamedTuple):
    """One finite piece of an integral: t runs over [a, b]."""

    kind: int
    shift: float
    sign: float
    a: float
    b: float


def _panels(f, a, b, owner, kind, shift, sign):
    """GK15 panels [a_i, b_i] of pieces of the given kind, shift and sign:
    (Kronrod values, |K15 - G7| estimates).

    f sees the nodes of all panels in one 1-D array together with each
    node's owner; the mirror nodes shift - t of FOLD panels follow in a
    second call.  The arithmetic per node and the 15-term sum per panel do
    not depend on how many panels are evaluated together.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid[:, None] + half[:, None] * GK15_NODES
    nodes = owner.repeat(len(GK15_NODES))
    tail, fold = kind == TAIL, kind == FOLD
    w = 1.0 / (1.0 - t[tail])
    x = t.copy()
    x[tail] = shift[tail, None] + sign[tail, None] * (t[tail] * w)
    x[fold] = shift[fold, None] + t[fold]
    y = np.array(f(x.ravel(), nodes)).reshape(t.shape)
    if fold.any():
        mirror = shift[fold, None] - t[fold]
        y_mirror = f(mirror.ravel(), nodes.reshape(t.shape)[fold].ravel())
        y[fold] = y[fold] + np.asarray(y_mirror).reshape(mirror.shape)
    y[tail] = y[tail] * w * w
    k = half * np.add.reduce(GK15_WEIGHTS * y, axis=1)   # np.sum, without its wrapper
    g = half * np.add.reduce(G7_WEIGHTS * y, axis=1)
    # numpy scalars, so that the bookkeeping does a piece's scalar arithmetic
    # with its rounding and floating-point errors; abs() per element, because
    # numpy's vectorized complex absolute differs from the scalar one in the
    # last bit for some arguments
    return list(k), [abs(d) for d in k - g]


def _replay(f, a, b, owner, kind, shift, sign):
    """A round's panels one at a time, in order, up to the first whose
    integrand raises FloatingPointError.

    Returns the values and estimates of the panels before it, its position
    and the exception; position and exception are None if none raises.
    """
    kv, ev = [], []
    for q in range(len(a)):
        row = slice(q, q + 1)
        try:
            k, e = _panels(f, a[row], b[row], owner[row], kind[row], shift[row], sign[row])
        except FloatingPointError as exc:
            return kv, ev, q, exc
        kv += k
        ev += e
    return kv, ev, None, None


def _resum(heap):
    """(value, error) of a piece re-summed over its segments sorted by left
    endpoint, so the summation order never depends on the subdivision
    history."""
    segs = sorted(heap, key=lambda s: s[2])
    return sum(s[4] for s in segs), float(sum(s[5] for s in segs))


def interval_pieces(iv: Interval) -> list:
    """The finite pieces of a (possibly improper) interval.

    Semi-infinite tails use the monotone map k = lo + t/(1-t) on t in [0,1)
    (mirrored for a -inf endpoint, which leaves the orientation unchanged);
    a doubly infinite interval is split at 0 first.
    """
    lo, hi = iv.lo, iv.hi
    if math.isinf(lo) and math.isinf(hi):
        return [Piece(TAIL, 0.0, -1.0, 0.0, 1.0), Piece(TAIL, 0.0, 1.0, 0.0, 1.0)]
    if math.isinf(hi):
        return [Piece(TAIL, lo, 1.0, 0.0, 1.0)]
    if math.isinf(lo):
        return [Piece(TAIL, hi, -1.0, 0.0, 1.0)]
    return [Piece(PLAIN, 0.0, 0.0, lo, hi)]


def pv_pieces(pole: float, iv: Interval) -> list:
    """The pieces of a principal value about ``pole``, strictly inside ``iv``.

    The singular part is folded, f(pole+t) + f(pole-t), over the half-width
    to the nearer finite endpoint; whatever lies beyond the fold on either
    side follows as ordinary pieces.
    """
    lo, hi = iv.lo, iv.hi
    if not (lo < pole < hi):
        raise PoleLocationError(f"pole {pole} not strictly inside [{lo}, {hi}]")
    dist_lo = pole - lo if math.isfinite(lo) else math.inf
    dist_hi = hi - pole if math.isfinite(hi) else math.inf
    h = min(dist_lo, dist_hi)
    if math.isinf(h):
        h = 1.0 + abs(pole)  # both endpoints infinite: any finite fold works
    return [Piece(FOLD, pole, 0.0, 0.0, h)] + [
        p for a, b in ((lo, pole - h), (pole + h, hi)) if a < b
        for p in interval_pieces(Interval(a, b))]


def integrate_batch(f, integrals, rel_tol: float = DEFAULT_REL_TOL,
                    abs_tol: float = DEFAULT_ABS_TOL,
                    max_evaluations: int = DEFAULT_MAX_EVALUATIONS) -> list:
    """Many integrals at once, each the sum of a list of pieces, advanced in
    lock-step by globally adaptive bisection.

    f(x, owner) gets a 1-D array of nodes and, per node, the index of the
    integral it belongs to, so per-integral parameters can be broadcast.
    The pieces of an integral run one after another and share one budget:
    each gets what the earlier ones left.  A piece keeps its own heap of
    segments, counter, running sums and evaluation count, and stops once
    err <= max(abs_tol, rel_tol |total|, 64 eps sum|panel|).  Each round,
    every unfinished integral (of the slow ones only the first SLOW_WIDTH)
    contributes the whole interval of the piece it starts, or the halves of
    the worst segment its current piece pops, and all those panels are
    evaluated together.  A piece's bookkeeping is
    scalar and in the order it takes alone, so it makes the greedy choices
    and gets the floats it gets alone.

    Returns a result per integral, a QuadratureResult or the exception that
    ended it (a FloatingPointError from the integrand, or a
    QuadratureConvergenceError carrying the partial estimate once the budget
    is spent), up to the first integral that fails: the integrals after a
    failing one are dropped unfinished.
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be > 0")
    n = len(integrals)
    out = [None] * n
    cut = n                # the first integral that failed
    spent = [0] * n        # evaluations so far
    done = [[0, 0.0 + 0.0j, 0.0, 0] for _ in range(n)]   # pieces done, value, error, evaluations
    state = [None] * n     # the piece under way: [heap, counter, total, err, sum|panel|]
    kind, shift, sign = np.zeros(n, dtype=int), np.zeros(n), np.zeros(n)
    fast, slow = list(range(n)), []   # the unfinished integrals, in order
    while fast or slow:
        active = sorted(fast + slow[:SLOW_WIDTH])
        owner, lo, hi, popped = [], [], [], []
        for i in active:
            if state[i] is None:
                p = integrals[i][done[i][0]]
                kind[i], shift[i], sign[i] = p.kind, p.shift, p.sign
                owner.append(i)
                lo.append(p.a)
                hi.append(p.b)
                popped.append(None)
            else:
                seg = heapq.heappop(state[i][0])
                sm = 0.5 * (seg[2] + seg[3])
                owner += [i, i]
                lo += [seg[2], sm]
                hi += [sm, seg[3]]
                popped.append(seg)
        owner = np.array(owner)
        cols = (np.array(lo), np.array(hi), owner, kind[owner], shift[owner], sign[owner])
        try:
            kv, ev = _panels(f, *cols)
        except FloatingPointError:
            kv, ev, q, exc = _replay(f, *cols)
            if exc is not None:
                cut = int(owner[q])
                out[cut] = exc
                active = active[:active.index(cut)]
        pos = 0
        for i, seg in zip(active, popped):
            if seg is None:
                v, e = kv[pos], ev[pos]
                s = state[i] = [[(-e, 0, lo[pos], hi[pos], v, e)], 1, v, e, abs(v)]
                spent[i] += 15
                pos += 1
            else:
                s = state[i]
                heap, c = s[0], s[1]
                _, _, sa, sb, sv, se = seg
                sm = 0.5 * (sa + sb)
                v1, v2, e1, e2 = kv[pos], kv[pos + 1], ev[pos], ev[pos + 1]
                pos += 2
                spent[i] += 30
                s[2] += v1 + v2 - sv
                s[3] += e1 + e2 - se
                s[4] += abs(v1) + abs(v2) - abs(sv)
                heapq.heappush(heap, (-e1, c, sa, sm, v1, e1))
                heapq.heappush(heap, (-e2, c + 1, sm, sb, v2, e2))
                s[1] = c + 2
            d = done[i]
            # the last term is the rounding noise of the sum, all that is left
            # to reach near a zero of the integral
            if not s[3] > max(abs_tol, rel_tol * abs(s[2]), 64 * _EPS * s[4]):
                value, err = _resum(s[0])
                d[0] += 1
                d[1] += value
                d[2] += err
                d[3] = spent[i]
                state[i] = None
                if d[0] == len(integrals[i]):
                    out[i] = QuadratureResult(value=complex(d[1]),
                                              abs_error_estimate=float(d[2]),
                                              evaluations=d[3])
            elif spent[i] + 30 > max_evaluations:
                value, err = _resum(s[0])
                partial = QuadratureResult(value=complex(value), abs_error_estimate=err,
                                           evaluations=spent[i] - d[3])
                out[i] = QuadratureConvergenceError(
                    f"quadrature did not converge within {max_evaluations - d[3]} "
                    f"evaluations (error estimate {partial.abs_error_estimate:.3e})",
                    partial=partial,
                )
                cut = i
                break
        slow = [i for i in slow[:SLOW_WIDTH] if out[i] is None] + slow[SLOW_WIDTH:]
        for i in fast:
            if spent[i] >= SLOW_EVALUATIONS and out[i] is None:
                bisect.insort(slow, i)
        fast = [i for i in fast if spent[i] < SLOW_EVALUATIONS and out[i] is None and i < cut]
        del slow[bisect.bisect_left(slow, cut):]
    return out[:cut + 1]


def _single(f, pieces, rel_tol, abs_tol, max_evaluations) -> QuadratureResult:
    [r] = integrate_batch(lambda x, owner: f(x), [pieces], rel_tol, abs_tol, max_evaluations)
    if isinstance(r, Exception):
        raise r
    return r


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    iv: Interval,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
) -> QuadratureResult:
    """Integrate a vectorized real-to-complex function over ``iv``.

    Infinite endpoints are handled with the monotone map k = lo + t/(1-t)
    (mirrored for a -inf endpoint); a (-inf, inf) interval is split at 0.
    Raises QuadratureConvergenceError with the partial estimate attached if
    the subdivision budget is exhausted.
    """
    pieces = interval_pieces(iv)
    return _single(f, pieces, rel_tol, abs_tol / len(pieces), max_evaluations)


# ---------------------------------------------------------------------------
# Principal value
# ---------------------------------------------------------------------------

def integrate_pv(
    f: Callable[[np.ndarray], np.ndarray],
    pole: float,
    iv: Interval,
    tol: float = DEFAULT_REL_TOL,
) -> QuadratureResult:
    """Cauchy principal value of ``f`` (which contains a 1/(x-pole) factor).

    ``f`` may be complex-valued.  The pole must lie strictly inside ``iv``;
    an endpoint pole is rejected.  The singular piece is removed
    analytically by folding f(pole+t)+f(pole-t) over the half-interval to
    the nearer finite endpoint, leaving ordinary quadrature for the
    remainder.
    """
    if not tol > 0:
        raise ValueError("tolerances must be > 0")
    return _single(f, pv_pieces(pole, iv), tol, DEFAULT_ABS_TOL, DEFAULT_MAX_EVALUATIONS)


# ---------------------------------------------------------------------------
# Small linear solves
# ---------------------------------------------------------------------------

def solve_linear(a, b) -> np.ndarray:
    """Solve A x = b for a small square system, rejecting singular A.

    The determinant is tested against a scale-aware tolerance; the residual
    ||Ax - b|| <= 1e-12 ||b|| is verified after the solve.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError(f"expected square system, got A{a.shape}, b{b.shape}")
    det = float(np.linalg.det(a))
    scale = np.abs(a).max()
    if scale == 0.0 or abs(det) < 1e-12 * scale ** a.shape[0]:
        raise SingularMatrixError(
            f"matrix numerically singular (det = {det:.6e})", determinant=det)
    x = np.linalg.solve(a, b)
    resid = np.linalg.norm(a @ x - b)
    bnorm = np.linalg.norm(b)
    if bnorm > 0 and resid > 1e-12 * bnorm:
        # one step of iterative refinement, then give up honestly
        x = x + np.linalg.solve(a, b - a @ x)
        resid = np.linalg.norm(a @ x - b)
        if resid > 1e-12 * bnorm:
            raise SingularMatrixError(
                f"solve residual {resid:.3e} exceeds 1e-12 |b| (det = {det:.6e})",
                determinant=det,
            )
    return x
