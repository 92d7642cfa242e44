"""Deterministic adaptive quadrature.

Everything here is pure and single-threaded: identical inputs give
bitwise-identical outputs.  Integrands must be numpy-vectorized
(they receive a float ndarray of nodes and return an ndarray).

The adaptive integrator is a nested Gauss(7)/Kronrod(15) scheme.  Its nodes
and weights are float literals, so importing this module does no numerical
work.  tests/test_numerics.py constructs the rule from first principles (the
Kronrod extension nodes are the roots of the degree-8 Stieltjes polynomial
E8, defined by orthogonality of E8 to all lower powers against the
sign-varying weight P7(x) dx on [-1, 1]) and checks the literals against
it bit for bit, next to degree-22 exactness and node symmetry.

One lock-step engine runs every adaptive integral.  An integral is a list
of pieces, each a finite interval of a plain, semi-infinite-tail or
principal-value-fold integrand; ``pieces`` builds those of any number of
integrals as the rows of one array, each tail mapped at a scale of its
integral's own.  Each piece bisects its worst segment until its error
estimate meets the tolerance, with its own heap and counter; the pieces of
an integral run one after another and share its budget.  In each round
the panels of all unfinished integrals are evaluated together, and the
segments of all pieces live in one table of rows, so the running sums, stop
tests and final re-summations of a round take a fixed number of numpy calls
whatever its width; what stays in Python per panel is the heap that picks a
piece's worst segment.  The arithmetic per node, per 15-node panel and per sum is
the same however many pieces run together, so a piece returns the same
floats alone or in a batch.  ``integrate_batch`` runs many integrals at
once, a principal value among them is a row with a pole, and
``integrate_adaptive`` is a batch of one without.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PoleLocationError, QuadratureConvergenceError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_batch",
    "pieces",
]

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-14
DEFAULT_MAX_EVALUATIONS = 1_000_000
# the rounding noise of a sum, per unit of the sum of its terms' magnitudes
_NOISE = 64 * np.finfo(float).eps

# Of the integrals of a batch that have spent SLOW_EVALUATIONS evaluations, at
# most SLOW_WIDTH advance at a time, the first in order.  A batch ends at its
# first failing integral, and failures come after long runs, so this keeps the
# work done past a failure to about SLOW_WIDTH times the failing integral's.
# (split-check's dispersion integrals take at most 210 evaluations for
# |u| < 3.2, up to 110 000 on |u| in [1e3, 5e10] and 700 000 at 1e12.)
SLOW_EVALUATIONS = 3000
SLOW_WIDTH = 4


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 rule
# ---------------------------------------------------------------------------

# The nodes and weights as tests/test_numerics.py constructs them from first
# principles, which it checks bit for bit; G7_WEIGHTS puts the Gauss-7
# weights at the odd positions of the Kronrod nodes.
GK15_NODES = np.array([
    -0.9914553711207001, -0.9491079123427586, -0.864864423359751, -0.7415311855993945,
    -0.5860872354691641, -0.4058451513773972, -0.20778495500372549, 0.0,
    0.20778495500372546, 0.4058451513773972, 0.5860872354691641, 0.7415311855993945,
    0.864864423359751, 0.9491079123427586, 0.9914553711207005])
GK15_WEIGHTS = np.array([
    0.02293532201066638, 0.06309209262974058, 0.10479001032254302, 0.14065325971474482,
    0.169004726638026, 0.1903505780693042, 0.20443294007630186, 0.20948214107734592,
    0.20443294007630192, 0.19035057806930433, 0.16900472663802604, 0.14065325971474507,
    0.10479001032254266, 0.06309209262974091, 0.022935322010666066])
G7_WEIGHTS = np.array([
    0.0, 0.12948496616886973, 0.0, 0.27970539148927687, 0.0, 0.3818300505051187, 0.0,
    0.4179591836734693, 0.0, 0.3818300505051187, 0.0, 0.27970539148927687, 0.0,
    0.12948496616886973, 0.0])
_WEIGHTS = np.stack((GK15_WEIGHTS, G7_WEIGHTS))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

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
# f(t); TAIL integrates |sign| f(shift + sign t/(1-t)) / (1-t)^2 on [0, 1), the
# map of a semi-infinite interval anchored at shift, at the scale |sign|; FOLD
# integrates f(shift + t) + f(shift - t), the principal-value fold about a pole
# at shift.
PLAIN, TAIL, FOLD = 0, 1, 2

# Columns of a panel or segment row: its interval with its midpoint, its
# Kronrod value (real and imaginary part), its |K15 - G7| error estimate and
# the modulus of its value.  Adding two rows' last four columns adds their
# values, estimates and moduli.
_LO, _MID, _HI, _RE, _IM, _ERR, _ABS = range(7)
_ROW = _ABS + 1


def _panels(f, a, b, owner, kind, shift, sign):
    """Rows (_LO .. _ABS) of the GK15 panels [a_i, b_i] of pieces of the given
    kind, shift and sign.

    The panels are taken grouped by kind, so that each kind is a slice.  f
    sees the nodes of all panels in one 1-D array together with each node's
    owner; the mirror nodes shift - t of FOLD panels follow in a second
    call.  The arithmetic per node and the 15-term sum per panel do not
    depend on how many panels are evaluated together, nor on their kinds.
    A modulus is np.hypot of the parts, which is what abs() of a complex
    scalar gives; np.abs of a complex array differs from it in the last bit
    for some arguments.
    """
    order = np.argsort(kind, kind="stable")
    a, b, owner, kind, shift, sign = (c[order] for c in (a, b, owner, kind, shift, sign))
    p, q = np.searchsorted(kind, [TAIL, FOLD]).tolist()   # PLAIN, TAIL, FOLD in turn
    tail, fold = slice(p, q), slice(q, None)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid[:, None] + half[:, None] * GK15_NODES
    nodes = owner.repeat(len(GK15_NODES))
    x = t.copy()
    w = 1.0 / (1.0 - t[tail])
    x[tail] = shift[tail, None] + sign[tail, None] * (t[tail] * w)
    x[fold] += shift[fold, None]
    y = np.array(f(x.ravel(), nodes)).reshape(t.shape)
    if q < len(a):
        mirror = shift[fold, None] - t[fold]
        y[fold] += np.asarray(f(mirror.ravel(), nodes[q * len(GK15_NODES):])).reshape(mirror.shape)
    y[tail] *= w
    y[tail] *= w
    y[tail] *= np.abs(sign[tail, None])
    # Kronrod and Gauss sums in one reduction over each row of 15 (np.sum,
    # without its wrapper)
    kg = half[:, None] * np.add.reduce(_WEIGHTS * y[:, None], axis=2)
    k, d = kg[:, 0], kg[:, 0] - kg[:, 1]
    rows = np.empty((len(a), _ROW))
    rows[:, _LO], rows[:, _MID], rows[:, _HI] = a, mid, b
    rows[:, _RE], rows[:, _IM] = k.real, k.imag
    np.hypot(d.real, d.imag, out=rows[:, _ERR])
    np.hypot(k.real, k.imag, out=rows[:, _ABS])
    out = np.empty_like(rows)
    out[order] = rows   # in the order the panels came
    return out


def _replay(f, cols, order):
    """The panels of a round one at a time, in ``order``, up to the first
    whose integrand raises FloatingPointError.

    Returns the rows of the panels evaluated before it (the others are
    zero), its position and the exception; position and exception are None
    if none raises.
    """
    rows = np.zeros((len(cols[0]), _ROW))
    for q in order:
        row = slice(q, q + 1)
        try:
            rows[row] = _panels(f, *(c[row] for c in cols))
        except FloatingPointError as exc:
            return rows, q, exc
    return rows, None, None


def _resum(seg, of, groups):
    """Value (re, im) and error estimate of the pieces ``groups``: the
    segments of each (the rows of ``seg`` that ``of`` gives to it) summed
    left to right from 0, so the summation order never depends on the
    subdivision history.

    Left to right is the order of left endpoints: only a zero-width segment
    shares its left endpoint, and it adds +-0, which changes no sum (or NaN,
    whose NaN error estimate QuadratureResult refuses).
    The segments go into a table of one column per piece, padded with zeros
    (x + 0.0 is x for a sum started from +0.0), which one reduction sums
    down the rows, in order: numpy sums pairwise only along the innermost
    axis.
    """
    width = len(groups)
    col = np.full(of.max() + 1, -1)   # the column of each piece, -1 if none
    col[groups] = np.arange(width)
    col = col[of]
    rows = np.flatnonzero(col >= 0)
    rows = rows[np.lexsort((seg[rows, _LO], col[rows]))]
    col = col[rows]
    counts = np.bincount(col, minlength=width)
    # row 0 is the 0 the sums start from; a piece's segments follow in order
    down = np.arange(1, len(rows) + 1) - (np.cumsum(counts) - counts)[col]
    terms = np.zeros(((counts.max() + 1) * width, 3))
    terms[down * width + col] = seg[rows, _RE:_ERR + 1]
    return np.add.reduce(terms.reshape(-1, width, 3), axis=0)


def _compact(seg, of, heaps, begun, piece, extra):
    """The segment table and its piece column cut down to the segments of the
    pieces under way (those of the integrals ``begun``), with room for at
    least ``extra`` more: (table, pieces, length).  The heaps are renumbered
    to match."""
    going = np.flatnonzero(begun).tolist()
    keep = np.flatnonzero(np.isin(of, piece[going], kind="table"))
    new = np.zeros(len(of), dtype=np.intp)
    new[keep] = np.arange(len(keep))
    new = new.tolist()
    for i in going:
        heaps[i] = [(e, c, new[s]) for e, c, s in heaps[i]]
    size = 2 * (len(keep) + extra) + 64
    out, out_of = np.empty((size, _ROW)), np.empty(size, dtype=np.intp)
    out[:len(keep)], out_of[:len(keep)] = seg[keep], of[keep]
    return out, out_of, len(keep)


def _lockstep(f, table, counts, rel_tol, abs_tol, max_evaluations):
    """The engine behind integrate_batch.  Integral i is the sum of the next
    counts[i] pieces, the rows (kind, shift, sign, a, b) of ``table``.

    Segments live in one table of rows (_LO .. _ABS), with the piece of each
    row in a column of its own, so a piece's segments from left to right
    are its rows sorted by _LO.  A piece keeps a heap of (-error, counter,
    row) only to choose its worst segment, the counter giving ties to the
    older one.  The running sums, stop tests and re-summations of all
    integrals of a round take a fixed number of numpy calls, in the
    arithmetic a piece does alone.

    Returns (sums, evaluations, exc): the value (re, im) and error estimate
    and the evaluation count of each integral before the first that fails,
    and the exception that ended that one, or None.
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be > 0")
    n = len(counts)
    end = np.cumsum(counts)
    piece = end - counts       # the piece under way or next to start
    heaps = [None] * n         # the heap of the piece under way
    begun = np.zeros(n, dtype=bool)       # whether it has one
    size = np.zeros(n, dtype=np.intp)     # its segment count
    run = np.zeros((n, 4))     # its value (re, im), error and sum |panel|
    done = np.zeros((n, 3))    # value (re, im) and error of the finished pieces
    done_at = np.zeros(n, dtype=np.intp)  # evaluations spent when the last piece finished
    live = np.ones(n, dtype=bool)         # neither finished nor failed
    is_fast = np.ones(n, dtype=bool)      # live, and below SLOW_EVALUATIONS
    seg, used = np.empty((32 * n + 64, _ROW)), 0
    of = np.empty(len(seg), dtype=np.intp)   # the piece of each segment
    cut, exc = n, None         # the first integral that failed
    fast, slow = np.arange(n), np.arange(0)   # the unfinished integrals, in order
    while len(fast) or len(slow):
        act = np.union1d(fast, slow[:SLOW_WIDTH]) if len(slow) else fast
        if used + len(act) > len(seg):
            seg, of, used = _compact(seg[:used], of[:used], heaps, begun, piece, len(act))
        on = begun[act]
        new, old = act[~on], act[on]
        popped = np.array([heapq.heappop(heaps[i])[2] for i in old.tolist()], dtype=np.intp)
        ns, no = len(new), len(old)
        # the panels: the interval of each piece that starts, then the left
        # and the right halves of each popped segment, the left one in its row
        owner = np.concatenate((new, old, old))
        slots = np.concatenate((np.arange(used, used + ns), popped,
                                np.arange(used + ns, used + ns + no)))
        used += ns + no
        of[slots] = piece[owner]
        parent = seg[slots[ns:ns + no]]
        kind, shift, sign, a, b = table[piece[owner]].T
        lo, hi = parent[:, _LO:_MID + 1].T.ravel(), parent[:, _MID:_HI + 1].T.ravel()
        if ns:
            lo, hi = np.concatenate((a[:ns], lo)), np.concatenate((b[:ns], hi))
        cols = (lo, hi, owner, kind, shift, sign)
        resched = False
        try:
            rows = _panels(f, *cols)
        except FloatingPointError:
            rows, q, failure = _replay(f, cols, np.argsort(owner, kind="stable").tolist())
            if failure is not None:
                cut, exc, resched = int(owner[q]), failure, True
                live[cut] = is_fast[cut] = False
                keep = owner < cut
                rows, slots, owner = rows[keep], slots[keep], owner[keep]
                parent = parent[keep[ns:ns + no]]
                new, old = new[new < cut], old[old < cut]
                ns, no = len(new), len(old)
        seg[slots] = rows
        idx = owner[:ns + no]
        vals = rows[:, _RE:]
        r = run[idx[ns:]] + ((vals[ns:ns + no] + vals[ns + no:]) - parent[:, _RE:])
        if ns:
            r = np.concatenate((vals[:ns], r))
        run[idx] = r
        # the last term is the rounding noise of the sum, all that is left to
        # reach near a zero of the integral; fmax skips NaN as max() does
        going = r[:, 2] > np.fmax(np.fmax(abs_tol, rel_tol * np.hypot(r[:, 0], r[:, 1])),
                                  _NOISE * r[:, 3])
        size[idx[:ns]] = 1
        size[idx[ns:]] += 1
        evals = 30 * size[idx] - 15   # of the piece: 15 to start it, 30 a bisection
        spent = done_at[idx] + evals
        err = -rows[:, _ERR]
        j = np.flatnonzero(going[:ns])
        begun[new[j]] = True
        for i, e, s in zip(new[j].tolist(), err[j].tolist(), slots[j].tolist()):
            heaps[i] = [(e, 0, s)]
        j = np.flatnonzero(going[ns:]) + ns
        for i, c, e, s, e2, s2 in zip(idx[j].tolist(), (2 * size[idx[j]] - 3).tolist(),
                                      err[j].tolist(), slots[j].tolist(),
                                      err[j + no].tolist(), slots[j + no].tolist()):
            h = heaps[i]
            heapq.heappush(h, (e, c, s))
            heapq.heappush(h, (e2, c + 1, s2))
        over = np.flatnonzero(going & (spent + 30 > max_evaluations))
        if over.size:
            failing = over[np.argmin(idx[over])]
            cut, resched = int(idx[failing]), True
            live[cut] = is_fast[cut] = False
        ended = ~going & (idx < cut)
        if ended.any() or over.size:
            fin = idx[ended]
            # the failing piece last, once, whatever else ran out this round
            groups = np.append(piece[fin], piece[cut:cut + 1] if over.size else piece[:0])
            sums = _resum(seg[:used], of[:used], groups)
            for i in fin.tolist():
                heaps[i] = None
            begun[fin] = False
            done_at[fin] += evals[ended]
            done[fin] = done[fin] + sums[:len(fin)]
            piece[fin] += 1
            complete = fin[piece[fin] == end[fin]]
            live[complete] = is_fast[complete] = False
            for i in complete[~np.isfinite(done[complete, 2])].tolist()[:1]:
                _result(done[i], done_at[i])    # raises as QuadratureResult does
            resched = resched or bool(complete.size)
            if over.size:
                partial = QuadratureResult(value=complex(sums[-1, 0], sums[-1, 1]),
                                           abs_error_estimate=float(sums[-1, 2]),
                                           evaluations=int(evals[failing]))
                exc = QuadratureConvergenceError(
                    f"quadrature did not converge within {max_evaluations - done_at[cut]} "
                    f"evaluations (error estimate {partial.abs_error_estimate:.3e})",
                    partial=partial)
        moved = idx[(spent >= SLOW_EVALUATIONS) & is_fast[idx]]
        moved = moved[live[moved] & (moved < cut)]
        if resched or moved.size:
            is_fast[moved] = False
            fast = np.flatnonzero(is_fast[:cut])
            # of the slow integrals, the first SLOW_WIDTH advance
            slow = np.flatnonzero((live & ~is_fast)[:cut])
    return done[:cut], done_at[:cut].tolist(), exc


def _result(sums, evaluations) -> QuadratureResult:
    re, im, err = sums.tolist()
    return QuadratureResult(value=complex(re, im), abs_error_estimate=err,
                            evaluations=int(evaluations))


def pieces(lo, hi, pole=None, scale=None):
    """The finite pieces of n integrals over [lo_i, hi_i]: their rows
    (kind, shift, sign, a, b) in order, and the number of pieces of each.

    Integral i is a principal value about pole_i wherever pole_i is not NaN
    (nowhere if pole is None).  Its singular part is folded over the
    half-width to the nearer finite endpoint, or 1 + |pole| if both are
    infinite; whatever lies beyond the fold on either side follows as a
    PLAIN or TAIL piece.  A TAIL anchored at x maps t in [0, 1) monotonely
    to k = x + scale_i t/(1-t) (scale 1 where scale is None), mirrored for a
    -inf endpoint; its sign column is +-scale_i.  QUADPACK's qagi uses the
    map with scale 1, which suits an integrand whose features sit at |k| ~ 1;
    with features at |k| ~ s, scale s puts them at t ~ 1/2 instead of
    crowding them against t = 1.  Without a pole an interval is one piece,
    or two if it is doubly infinite, split at 0.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = len(lo)
    scale = np.ones(n) if scale is None else np.asarray(scale, dtype=float)
    pole = np.full(n, math.nan) if pole is None else np.asarray(pole, dtype=float)
    ordered = lo < hi
    if not ordered.all():
        i = np.argmin(ordered)
        raise ValueError(f"interval requires lo < hi, got [{lo[i]}, {hi[i]}]")
    pv = ~np.isnan(pole)
    valid = ~pv | ((lo < pole) & (pole < hi))
    if not valid.all():
        i = np.argmin(valid)
        raise PoleLocationError(f"pole {pole[i]} not strictly inside [{lo[i]}, {hi[i]}]")
    # Integral i has three candidate pieces [a, b], each used if not empty:
    # the fold [0, h], then [lo, c - h] and [c + h, hi] beyond it.  With a
    # pole, c is the pole and h > 0 (any finite h works if both ends are
    # infinite); without one h = 0, and c is 0 for (-inf, inf), else hi.
    h = np.minimum(pole - lo, hi - pole)
    h = np.where(pv, np.where(np.isinf(h), 1.0 + np.abs(pole), h), 0.0)
    c = np.where(pv, pole, np.where(np.isinf(lo) & np.isinf(hi), 0.0, hi))
    with np.errstate(over="ignore"):
        # from |pole| ~ 9e307 c + h or c - h may round to +-inf, leaving that
        # side's piece empty; the fold's nodes pole +- t overflow there anyway
        a, b = np.stack((np.zeros(n), lo, c + h), axis=1), np.stack((h, c - h, hi), axis=1)
    up, down = np.isinf(b), np.isinf(a)    # a TAIL anchored at a, or at b
    tail = up | down
    kind = np.where(tail, TAIL, PLAIN)
    shift = np.where(up, a, np.where(down, b, 0.0))
    sign = (up - down.astype(float)) * scale[:, None]
    kind[:, 0], shift[:, 0] = FOLD, pole
    rows = np.stack((kind, shift, sign, np.where(tail, 0.0, a), np.where(tail, 1.0, b)), axis=2)
    used = a < b
    return np.compress(used.ravel(), rows.reshape(-1, 5), axis=0), used.sum(axis=1)


def integrate_batch(f, lo, hi, pole=None, rel_tol: float = DEFAULT_REL_TOL,
                    abs_tol: float = DEFAULT_ABS_TOL,
                    max_evaluations: int = DEFAULT_MAX_EVALUATIONS, scale=None):
    """Many integrals at once, over [lo_i, hi_i] and, where pole_i is not
    NaN, a principal value about it, with semi-infinite tails mapped at
    scale_i (the pieces that ``pieces`` builds), advanced in lock-step by
    globally adaptive bisection.

    f(x, owner) gets a 1-D array of nodes and, per node, the index of the
    integral it belongs to, so per-integral parameters can be broadcast.
    The pieces of an integral run one after another and share one budget:
    each gets what the earlier ones left.  A piece keeps its own heap of
    segments, counter, running sums and evaluation count, and stops once
    err <= max(abs_tol, rel_tol |total|, 64 eps sum|panel|).  Each round,
    every unfinished integral (of the slow ones only the first SLOW_WIDTH)
    contributes the whole interval of the piece it starts, or the halves of
    the worst segment its current piece pops, and all those panels are
    evaluated together.  A piece's sums are updated with the arithmetic and
    in the order it does alone, so it makes the greedy choices and gets the
    floats it gets alone.

    Returns (sums, evaluations, exc) for the integrals before the first that
    fails: sums holds a row (re, im, error estimate) per integral and
    evaluations its evaluation count; exc is the exception that ended the
    first failing integral (a FloatingPointError from the integrand, or a
    QuadratureConvergenceError carrying the partial estimate once the budget
    is spent), or None.  The integrals after a failing one are dropped
    unfinished.
    """
    return _lockstep(f, *pieces(lo, hi, pole, scale), rel_tol, abs_tol, max_evaluations)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
) -> QuadratureResult:
    """Integrate a vectorized real-to-complex function over [lo, hi], a
    batch of one.

    It stops once err <= max(abs_tol, rel_tol |value|, 64 eps sum|panel|).
    abs_tol is absolute, in the units of the integral.  The default 1e-14
    exceeds rel_tol |value| for any integral below 1e-14 / rel_tol in
    magnitude (a length in metres, say), and then sets the accuracy: pass
    an abs_tol scaled to the expected value for such an integral.

    Infinite endpoints are handled with the monotone map k = lo + t/(1-t)
    (mirrored for a -inf endpoint); a (-inf, inf) interval is split at 0,
    each half meeting half of abs_tol.  Raises ValueError unless lo < hi,
    and QuadratureConvergenceError with the partial estimate attached if the
    subdivision budget is exhausted.
    """
    table, counts = pieces([lo], [hi])
    sums, evaluations, exc = _lockstep(lambda x, owner: f(x), table, counts, rel_tol,
                                       abs_tol / int(counts[0]), max_evaluations)
    if exc is not None:
        raise exc
    return _result(sums[0], evaluations[0])

