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
integrals as the rows of one array.  Each piece bisects its worst segment
until its error estimate meets the tolerance, with its own heap and
counter; the pieces of an integral run one after another and share its
budget.  In each round the panels of all
unfinished integrals are evaluated together, and the segments of all pieces
live in one table of rows, so the running sums, stop tests and final
re-summations of a round take a fixed number of numpy calls whatever its
width; what stays in Python per panel is the heap that picks a piece's
worst segment.  The arithmetic per node, per 15-node panel and per sum is
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
# (split-check's dispersion integrals take at most 300 evaluations for
# |u| < 3.2, and up to 300 000 on |u| in [1e3, 5e9].)
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
# f(t); TAIL integrates f(shift + sign t/(1-t)) / (1-t)^2 on [0, 1), the map of
# a semi-infinite interval anchored at shift; FOLD integrates
# f(shift + t) + f(shift - t), the principal-value fold about a pole at shift.
PLAIN, TAIL, FOLD = 0, 1, 2

# Columns of a panel or segment row: its interval with its midpoint, its
# Kronrod value (real and imaginary part), its |K15 - G7| error estimate and
# the modulus of its value.  Adding two rows' last four columns adds their
# values, estimates and moduli.
_LO, _MID, _HI, _RE, _IM, _ERR, _ABS = range(7)
_ROW = _ABS + 1


def _select(kind, kinds, k):
    """Index of the panels of kind k, given the set of kinds there are: None
    if there are none, a slice if they are all of them, else a mask."""
    return None if k not in kinds else slice(None) if len(kinds) == 1 else kind == k


def _panels(f, a, b, owner, kind, shift, sign):
    """Rows (_LO .. _ABS) of the GK15 panels [a_i, b_i] of pieces of the given
    kind, shift and sign.

    f sees the nodes of all panels in one 1-D array together with each
    node's owner; the mirror nodes shift - t of FOLD panels follow in a
    second call.  The arithmetic per node and the 15-term sum per panel do
    not depend on how many panels are evaluated together, nor on their
    kinds.  A modulus is np.hypot of the parts, which is what abs() of a
    complex scalar gives; np.abs of a complex array differs from it in the
    last bit for some arguments.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid[:, None] + half[:, None] * GK15_NODES
    nodes = owner.repeat(len(GK15_NODES))
    kinds = set(kind.tolist())
    tail, fold = _select(kind, kinds, TAIL), _select(kind, kinds, FOLD)
    x = t.copy()
    if tail is not None:
        w = 1.0 / (1.0 - t[tail])
        x[tail] = shift[tail, None] + sign[tail, None] * (t[tail] * w)
    if fold is not None:
        x[fold] = shift[fold, None] + t[fold]
    y = np.array(f(x.ravel(), nodes)).reshape(t.shape)
    if fold is not None:
        mirror = shift[fold, None] - t[fold]
        y_mirror = f(mirror.ravel(), nodes.reshape(t.shape)[fold].ravel())
        y[fold] = y[fold] + np.asarray(y_mirror).reshape(mirror.shape)
    if tail is not None:
        y[tail] *= w
        y[tail] *= w
    # Kronrod and Gauss sums in one reduction over each row of 15 (np.sum,
    # without its wrapper)
    kg = half[:, None] * np.add.reduce(_WEIGHTS * y[:, None], axis=2)
    k, d = kg[:, 0], kg[:, 0] - kg[:, 1]
    rows = np.empty((len(a), _ROW))
    rows[:, _LO], rows[:, _MID], rows[:, _HI] = a, mid, b
    rows[:, _RE], rows[:, _IM] = k.real, k.imag
    np.hypot(d.real, d.imag, out=rows[:, _ERR])
    np.hypot(k.real, k.imag, out=rows[:, _ABS])
    return rows


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


def _resum(seg, after, firsts):
    """Value (re, im) and error estimate of the pieces whose leftmost segments
    are ``firsts``: their segments summed left to right from 0, so the
    summation order never depends on the subdivision history.  after[s] is
    the segment to the right of s in its piece, -1 for the last.

    Left to right is the order of left endpoints: only a zero-width segment
    shares its left endpoint, and it adds +-0, which changes no sum (or NaN,
    whose NaN error estimate QuadratureResult refuses).
    The segments go into a table of one column per piece, padded with zeros
    (x + 0.0 is x for a sum started from +0.0), which one accumulation
    sums down the rows.
    """
    width = len(firsts)
    order, cells, top = [], [], 0
    for col, s in enumerate(firsts):
        cell = col
        while s >= 0:
            cell += width
            order.append(s)
            cells.append(cell)
            s = after[s]
        top = max(top, cell)
    terms = np.zeros((top // width + 1, width, 3))   # row 0 is the 0 the sums start from
    terms.reshape(-1, 3)[cells] = seg[order, _RE:_ERR + 1]
    return np.add.accumulate(terms, axis=0)[-1]


def _compact(seg, after, heaps, firsts, extra):
    """The segment table cut down to the segments of the pieces under way,
    numbered from left to right in each, with room for at least ``extra``
    more: (table, after, length)."""
    order, new, lasts = [], {}, []
    for i, h in enumerate(heaps):
        if h is not None:
            s, firsts[i] = firsts[i], len(order)
            while s >= 0:
                new[s] = len(order)
                order.append(s)
                s = after[s]
            heaps[i] = [(e, c, new[s]) for e, c, s in h]
            lasts.append(len(order) - 1)
    size = 2 * (len(order) + extra) + 64
    out, after = np.empty((size, _ROW)), list(range(1, size + 1))
    out[:len(order)] = seg[order]
    for s in lasts:
        after[s] = -1
    return out, after, len(order)


def _lockstep(f, table, counts, rel_tol, abs_tol, max_evaluations):
    """The engine behind integrate_batch.  Integral i is the sum of the next
    counts[i] pieces, the rows (kind, shift, sign, a, b) of ``table``.

    Segments live in one table of rows (_LO .. _ABS), and ``after`` links
    each piece's segments from left to right.  A piece keeps a heap of
    (-error, counter, row) only to choose its worst segment, the counter
    giving ties to the older one.  The running sums, stop tests and
    re-summations of all integrals of a round take a fixed number of numpy
    calls, in the arithmetic a piece does alone.

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
    run = np.zeros((n, 4))     # its value (re, im), error and sum |panel|
    done = np.zeros((n, 3))    # value (re, im) and error of the finished pieces
    done_at = [0] * n          # evaluations spent when the last piece finished
    live = [True] * n          # neither finished nor failed
    is_fast = [True] * n       # live, and below SLOW_EVALUATIONS
    seg, used = np.empty((32 * n + 64, _ROW)), 0
    after = [-1] * len(seg)    # the next segment to the right in its piece
    first = [0] * n            # the leftmost segment of the piece under way
    cut, exc = n, None         # the first integral that failed
    fast, slow = list(range(n)), []   # the unfinished integrals, in order
    while fast or slow:
        act = sorted(fast + slow[:SLOW_WIDTH]) if slow else fast
        if used + len(act) > len(seg):
            seg, after, used = _compact(seg, after, heaps, first, len(act))
        new, old, popped = [], [], []
        for i in act:
            if heaps[i] is None:
                new.append(i)
            else:
                old.append(i)
                popped.append(heapq.heappop(heaps[i])[2])
        ns, no = len(new), len(old)
        # the panels: the interval of each piece that starts, then the left
        # and the right halves of each popped segment, the left one in its row
        owner = np.array(new + old + old, dtype=np.intp)
        slots = np.array([*range(used, used + ns), *popped, *range(used + ns, used + ns + no)],
                         dtype=np.intp)
        used += ns + no
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
                new, old = [i for i in new if i < cut], [i for i in old if i < cut]
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
        going = (r[:, 2] > np.fmax(np.fmax(abs_tol, rel_tol * np.hypot(r[:, 0], r[:, 1])),
                                   _NOISE * r[:, 3])).tolist()
        err, slots = rows[:, _ERR].tolist(), slots.tolist()
        ends, over, moved = [], [], []   # (integral, evaluations of its piece) for the first two
        for j, i in enumerate(new + old):
            if j < ns:
                s = first[i] = slots[j]
                after[s] = -1
                size = 1
            else:
                s, right = slots[j], slots[j + no]
                after[right], after[s] = after[s], right
                size = len(heaps[i]) + 2
            spent = done_at[i] + 30 * size - 15   # 15 to start a piece, 30 a bisection
            if spent >= SLOW_EVALUATIONS and is_fast[i]:
                moved.append(i)
            if not going[j]:
                ends.append((i, 30 * size - 15))
                continue
            if j < ns:
                heaps[i] = [(-err[j], 0, s)]
            else:
                h = heaps[i]
                c = 2 * size - 3
                heapq.heappush(h, (-err[j], c, s))
                heapq.heappush(h, (-err[j + no], c + 1, right))
            if spent + 30 > max_evaluations:
                over.append((i, 30 * size - 15))
        if over:
            failing = min(over)
            cut, resched = failing[0], True
            live[cut] = is_fast[cut] = False
        ends = [e for e in ends if e[0] < cut]
        if ends or over:
            groups = ends + ([failing] if over else [])
            sums = _resum(seg, after, [first[i] for i, _ in groups])
            for i, e in ends:
                done_at[i] += e
                heaps[i] = None
            fin = np.array([i for i, _ in ends], dtype=np.intp)
            done[fin] = done[fin] + sums[:len(ends)]
            piece[fin] += 1
            complete = fin[piece[fin] == end[fin]].tolist()
            for i in complete:
                live[i] = is_fast[i] = False
                if not math.isfinite(done[i, 2]):
                    _result(done[i], done_at[i])    # raises as QuadratureResult does
            resched = resched or bool(complete)
            if over:
                partial = QuadratureResult(value=complex(sums[-1, 0], sums[-1, 1]),
                                           abs_error_estimate=float(sums[-1, 2]),
                                           evaluations=failing[1])
                exc = QuadratureConvergenceError(
                    f"quadrature did not converge within {max_evaluations - done_at[cut]} "
                    f"evaluations (error estimate {partial.abs_error_estimate:.3e})",
                    partial=partial)
        moved = [i for i in moved if live[i] and i < cut]
        for i in moved:
            is_fast[i] = False
        if resched or moved:
            fast = [i for i in fast if is_fast[i] and i < cut]
            # of the slow integrals, the first SLOW_WIDTH advance
            slow = sorted([i for i in slow if live[i] and i < cut] + moved)
    return done[:cut], done_at[:cut], exc


def _result(sums, evaluations) -> QuadratureResult:
    re, im, err = sums.tolist()
    return QuadratureResult(value=complex(re, im), abs_error_estimate=err,
                            evaluations=int(evaluations))


def pieces(lo, hi, pole=None):
    """The finite pieces of n integrals over [lo_i, hi_i]: their rows
    (kind, shift, sign, a, b) in order, and the number of pieces of each.

    Integral i is a principal value about pole_i wherever pole_i is not NaN
    (nowhere if pole is None).  Its singular part is folded over the
    half-width to the nearer finite endpoint, or 1 + |pole| if both are
    infinite; whatever lies beyond the fold on either side follows as a
    PLAIN or TAIL piece.  A TAIL anchored at x maps t in [0, 1) monotonely
    to k = x + t/(1-t), mirrored for a -inf endpoint.  Without a pole an
    interval is one piece, or two if it is doubly infinite, split at 0.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = len(lo)
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
    sign = up - down.astype(float)
    kind[:, 0], shift[:, 0] = FOLD, pole
    rows = np.stack((kind, shift, sign, np.where(tail, 0.0, a), np.where(tail, 1.0, b)), axis=2)
    used = a < b
    return np.compress(used.ravel(), rows.reshape(-1, 5), axis=0), used.sum(axis=1)


def integrate_batch(f, lo, hi, pole=None, rel_tol: float = DEFAULT_REL_TOL,
                    abs_tol: float = DEFAULT_ABS_TOL,
                    max_evaluations: int = DEFAULT_MAX_EVALUATIONS):
    """Many integrals at once, over [lo_i, hi_i] and, where pole_i is not
    NaN, a principal value about it (the pieces that ``pieces`` builds),
    advanced in lock-step by globally adaptive bisection.

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
    return _lockstep(f, *pieces(lo, hi, pole), rel_tol, abs_tol, max_evaluations)


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

