"""numerics.ladder takes the steps of many integrals at once: every point
of a split-check chunk (splitting.SPLIT_CHUNK_POINTS of them), and every
integral of a batch, runs on the same step until it meets its target.
These tests hold the batched integrals to oracles they do not share code
with: a loop over the points one at a time (the same floats to the last
bit, and the same node counts), the closed form, scipy's QUADPACK and an
exact scale identity."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from causalatom import cli, selfenergy
from causalatom.cli import main
from causalatom.errors import BranchPointError, QuadratureConvergenceError
from causalatom.numerics import STEPS, exp_sinh, ladder, tanh_sinh
from causalatom.selfenergy import (DISTRIBUTION, _bracket_term_scale, _core,
                                   r2_tilde_closed, split_check_report)
from causalatom.splitting import SPLIT_CHUNK_POINTS, polynomial_residual, split
from test_numerics import _terms, finite_lo, integrate, pv
from test_splitting import odd_distribution

# 2 core: a distribution of its own, beside DISTRIBUTION's 2 pi core
UNIT = odd_distribution(lambda k: 2.0 * _core(k))
# sin(40 k) on the support: no step of the ladder resolves it
OSCILLATING = odd_distribution(lambda k: np.where(k * k > 1.0, np.sin(40.0 * k), 0.0))


def bits(values):
    """Values as raw words, so signed zeros count as different."""
    return np.asarray(values).view(np.uint64)


def outcome(run):
    """What run() returns, or the class and message of what it raises."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)


def reference_loop(d, u):
    """(values, node counts) of the points one at a time."""
    points = [split(d, [float(x)]) for x in u]
    return (np.concatenate([v for v, _, _ in points]),
            np.concatenate([n for _, n, _ in points]))


def reference_report(u):
    """The numeric values as raw words and the node count of a per-point loop,
    after the closed forms that split_check_report evaluates first."""
    for x in u:
        r2_tilde_closed(float(x))
    values, nodes = reference_loop(DISTRIBUTION, u)
    return bits([values.real, values.imag]), int(nodes.sum())


def batched_report(u):
    rep = split_check_report(u)
    return bits(np.stack([rep.re_numeric, rep.im_numeric])), rep.quadrature_evaluations


def assert_same(u):
    mine, theirs = outcome(lambda: batched_report(u)), outcome(lambda: reference_report(u))
    if isinstance(theirs[0], type):
        assert mine == theirs
    else:
        assert np.array_equal(mine[0], theirs[0])
        assert mine[1] == theirs[1]


def closed_real(v):
    """Re B(v; C = 0), the closed form of the central splitting in units of
    r2_prefactor, in mpmath at the working precision."""
    x = v * v - 1
    return x ** 3 / v ** 4 * -mpmath.log(abs(x)) + 1 / v ** 2 - mpmath.mpf(5) / 2 + 11 * v ** 2 / 6


def real_part_error(rep):
    """re_rel_err against the closed form evaluated at 30 digits, so that
    the float reference's own rounding does not enter."""
    with mpmath.workdps(30):
        closed = np.array([float(closed_real(v)) for v in map(mpmath.mpf, rep.u.tolist())])
    return np.abs(rep.re_numeric - closed) / _bracket_term_scale(rep.u)


_MIXED = np.random.default_rng(3).permutation(np.concatenate([
    np.linspace(-5.0, -1.05, 23), np.linspace(-0.95, -0.05, 11),
    np.linspace(0.05, 0.95, 11), np.linspace(1.05, 5.0, 23)]))


@pytest.mark.parametrize("u", [
    np.linspace(1.05, 5.0, 50),
    np.linspace(-5.0, -1.05, 50),
    np.linspace(0.1, 0.9, 50),
    np.linspace(3.1330, 3.1336, 200),   # the pole-fold band
    _MIXED,
], ids=["default", "negative", "off-support", "pole-fold-band", "shuffled-mixed"])
def test_split_check_bitwise_equal_to_reference_loop(u):
    mine, evals = batched_report(u)
    theirs, ref_evals = reference_report(u)
    assert np.array_equal(mine, theirs)
    assert evals == ref_evals
    rep = split_check_report(u)
    assert real_part_error(rep).max() <= 1e-14
    # the imaginary part is the Sokhotski-Plemelj pole term g(u)/2 alone
    assert np.array_equal(rep.im_numeric,
                          np.where(np.abs(u) > 1.0, 0.5 * DISTRIBUTION.g(u), 0.0))


@pytest.mark.parametrize("q, pole_sign", [(0.0, 1.0), (0.5, 1.0), (0.0, -1.0), (-0.7, -1.0)])
def test_point_alone_equals_point_in_shuffled_batch(q, pole_sign):
    # subtracted off the origin, and in the mirrored prescription, as in
    # the central splitting: a point's value, node count and error estimate
    # do not depend on the points beside it; u = 0 is integrated unless q = 0
    u = np.insert(_MIXED, 30, 0.0)
    batch = split(UNIT, u, q, pole_sign=pole_sign)
    alone = [split(UNIT, [x], q, pole_sign=pole_sign) for x in u.tolist()]
    for mine, theirs in zip(batch, zip(*alone)):
        assert np.array_equal(bits(mine), bits(np.concatenate(theirs)))
    assert (batch[1][u == 0.0] == 0).all() == (q == 0.0)


@pytest.mark.parametrize("q", [-0.7, 0.5])
def test_polynomial_residual_is_the_fit_of_a_point_loop(q):
    grid = np.concatenate([np.linspace(-5.0, -1.1, 6), np.linspace(-0.9, 0.9, 4),
                           np.linspace(1.1, 5.0, 8)])
    diff = np.array([split(UNIT, [x])[0][0] - split(UNIT, [x], q)[0][0] for x in grid.tolist()])
    v = np.vander(grid, 3, increasing=True)
    fit, *_ = np.linalg.lstsq(v, diff.real, rcond=None)
    res = polynomial_residual(UNIT, q, grid)
    assert res.coefficients == tuple(fit.tolist())
    assert res.max_abs_deviation == float(np.abs(diff - v @ fit).max())


@pytest.mark.parametrize("pole_sign", [1.0, -1.0])
def test_imaginary_part_off_the_support_is_positive_zero(pole_sign):
    # no pole term there: Im is +0 on both sides of the origin, not -0 at u < 0
    u = np.concatenate([-np.geomspace(1e-12, 0.95, 9), np.geomspace(1e-12, 0.95, 9)])
    plus_zero = bits(np.zeros(u.size))
    for q in (0.0, 0.5):
        assert np.array_equal(bits(split(UNIT, u, q, pole_sign=pole_sign)[0].imag), plus_zero)
    assert np.array_equal(bits(split_check_report(u).im_numeric), plus_zero)


# every |u| the closed form accepts (from about 1e-77 to 2.4e51), log-uniform,
# and a band within the 1e-9 branch guard of the support edge
_MAGNITUDE = st.one_of(st.floats(-77.0, 51.3).map(lambda e: 10.0 ** e),
                       st.floats(0.01, 0.99), st.floats(1.001, 40.0),
                       st.floats(1.0 - 5e-10, 1.0 + 5e-10))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_MAGNITUDE, st.sampled_from([-1.0, 1.0])),
                min_size=1, max_size=12))
def test_random_grids_bitwise_equal_to_reference_loop(points):
    u = np.array([m * s for m, s in points])
    assert_same(u)
    rep = outcome(lambda: split_check_report(u))
    if not isinstance(rep, tuple):
        # the closed form is a trustworthy oracle of the real part down to
        # |u| ~ 1e-3; below that its own terms cancel
        assert (rep.re_rel_err[np.abs(u) >= 1e-3] <= 1e-8).all()
        assert (rep.im_rel_err <= 1e-8).all()


@pytest.mark.parametrize("u, error, message", [
    ([2.0, 1e308, 3.0], QuadratureConvergenceError,
     "dispersion integral at p0 = 1e+308 failed: overflow encountered in multiply"),
    ([2.0, 1e308, 1 + 5e-10], QuadratureConvergenceError,
     "dispersion integral at p0 = 1e+308 failed: overflow encountered in multiply"),
    ([2.0, 1 + 5e-10, 1e308], BranchPointError,
     "|p0| = 1.0000000005 lies within 1e-09 of the support edge k_min = 1.0"),
])
def test_first_failing_point_in_grid_order(u, error, message):
    # at unit scale, where the closed form does not guard the float range
    with pytest.raises(error) as exc:
        split(UNIT, u)
    assert str(exc.value) == message
    assert outcome(lambda: reference_loop(UNIT, u)) == (error, message)


def test_failing_grid_cli_stderr(capsys, monkeypatch):
    # no input that split-check accepts fails its quadrature (measured over
    # |u| from 1e-77 to 2.4e51, the support edge and tolerances from 5e-324
    # to 1e300), so the CLI splits a distribution that never converges
    monkeypatch.setattr(selfenergy, "DISTRIBUTION", OSCILLATING)
    code = main(["split-check", "--u-min", "2", "--u-max", "3", "--points", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    err = json.loads(captured.err)
    assert list(err) == ["error", "message", "command"]
    assert (err["error"], err["command"]) == ("QuadratureConvergenceError", "split-check")
    assert re.fullmatch(r"dispersion integral at p0 = 2\.0 did not converge by step "
                        r"h = 1/64 \(error estimate \d\.\d{3}e[-+]\d\d of the value "
                        r"-?\d\.\d{3}e[-+]\d\d\)",
                        err["message"])


def test_failing_grid_is_not_integrated_far_past_its_failure():
    # the chunk with the failing point runs until the integrand overflows,
    # then again one point at a time up to that point; no later chunk runs
    u = [2.0, 1e308] + [3.0] * (4 * SPLIT_CHUNK_POINTS)
    nodes = []

    def counted(d):
        # the integrand reads the kernel (g under q != 0), the pole term g
        def count(f):
            def counting(k):
                nodes[-1] += np.size(k)
                return f(k)
            return counting
        return dataclasses.replace(d, g=count(d.g), kernel=count(d.kernel))

    message = r"dispersion integral at p0 = 1e\+308 failed: overflow"
    nodes.append(0)
    with pytest.raises(QuadratureConvergenceError, match=message):
        split(counted(UNIT), u)
    nodes.append(0)
    split(counted(UNIT), u[:1])
    batched, one_point = nodes
    # a fold node evaluates the kernel twice
    assert 0 < batched <= 2 * SPLIT_CHUNK_POINTS * one_point


@pytest.mark.parametrize("u, nodes", [
    (np.linspace(1.1, 3.0, 1000), 556_490),
    (np.linspace(3.1330, 3.1336, 200), 122_200),   # the pole-fold band
    (np.linspace(0.15, 0.85, 1000), 133_000),      # off the support
], ids=["on-support", "pole-fold-band", "off-support"])
def test_tails_mapped_at_the_scale_of_the_point(u, nodes):
    # the far pieces run by exp-sinh at the scale max(1, |u|) of the
    # kernel's features: the 1000-point grid on the support takes 556 490
    # nodes, at most one step past h = 1/16 per point, and each grid's real
    # part stays at the rounding level
    rep = split_check_report(u)
    assert rep.quadrature_evaluations == nodes
    assert rep.re_rel_err.max() <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_large_u_grid_computes(sign):
    # 40 log-spaced |u| up to 1e50 and the points the adaptive engine this
    # rule replaced got wrong (1e15, 7.6e15 and 1e50 exited 0 with re_rel_err
    # 2.1e-6, 1e-3 and 0.91), each in well under a second
    u = sign * np.concatenate([np.geomspace(1e3, 1e50, 40), [1e15, 7.6e15, 2.3e51]])
    for x in u:
        start = time.perf_counter()
        rep = split_check_report([x])
        assert time.perf_counter() - start < 1.0
        assert rep.re_rel_err[0] <= 1e-14 and rep.im_rel_err[0] <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_points_at_the_support_edge_compute(sign):
    # from 1 + 1e-3 down to the branch guard, where the adaptive engine this
    # rule replaced ran out of evaluations from 1 + 2e-7
    u = sign * (1.0 + np.geomspace(1.1e-9, 1e-3, 25))
    rep = split_check_report(u)
    assert real_part_error(rep).max() <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_gap_points_match_the_closed_form_at_high_precision(sign):
    # off the support the two sides of the integral cancel to O(u), so they
    # are summed over one denominator; the closed form needs about
    # 8 - 6 log10|u| digits of its own here
    u = sign * np.geomspace(1e-12, 0.95, 25)
    rep = split_check_report(u)
    with mpmath.workdps(120):
        closed = np.array([float(closed_real(v)) for v in map(mpmath.mpf, u.tolist())])
    assert (np.abs(rep.re_numeric - closed) <= 1e-14 * np.abs(closed)).all()


@pytest.mark.parametrize("p0", [1e308, -1.7e308])
def test_point_near_the_float_limit_fails_typed(p0):
    # the far piece's nodes overflow in the integrand, which names the point
    message = re.escape(f"at p0 = {p0!r} failed: overflow")
    with pytest.raises(QuadratureConvergenceError, match=message):
        split(UNIT, [2.0, p0])


@pytest.mark.parametrize("k_min", [0.3, 1.7])
def test_plain_piece_matches_reference(k_min):
    # the scale identity r_kmin(k_min u) = r_1(u) for g(k) = 2 core(k/k_min):
    # with k = k_min kappa every factor of k_min cancels.  The points run
    # through every piece list, the plain near piece [k_min, |p0|/2] among
    # them (from |u| = 2), and the reference is the k_min = 1 splitting
    d = odd_distribution(lambda k: 2.0 * _core(k / k_min), k_min)
    u = np.concatenate([np.linspace(-6.0, -1.1, 20), np.linspace(-0.9, 0.9, 5),
                        np.linspace(1.1, 6.0, 20)])
    values, _, _ = split(d, k_min * u)
    theirs, _, _ = split(UNIT, u)
    assert np.abs(values - theirs).max() <= 1e-14 * np.abs(theirs).max()
    assert values[u == 0.0] == 0.0


def test_never_converging_distribution_fails_fast():
    start = time.perf_counter()
    with pytest.raises(QuadratureConvergenceError) as exc:
        split(OSCILLATING, [1.5, 2.5, 0.5])
    assert time.perf_counter() - start < 1.0
    assert re.fullmatch(r"dispersion integral at p0 = 1\.5 did not converge by step "
                        rf"h = 1/{STEPS[-1]} \(error estimate .* of the value .*\)", str(exc.value))


def test_integrals_spent_in_one_round_report_the_first():
    # both points run out of steps in the same chunk, the pole side and the
    # gap; the error is that of the first in order, not of the one whose
    # piece list runs first
    messages = [outcome(lambda: split(OSCILLATING, [x]))[1]
                for x in (2.0, 0.5)]
    assert outcome(lambda: split(OSCILLATING, [2.0, 0.5])) == \
        (QuadratureConvergenceError, messages[0])
    assert outcome(lambda: split(OSCILLATING, [0.5, 2.0])) == \
        (QuadratureConvergenceError, messages[1])


# ---------------------------------------------------------------------------
# the ladder on integrals of its own
# ---------------------------------------------------------------------------

def _batch(cases, tol=1e-12):
    """The ladder over integrals (f, lo, hi) with finite lo, one row each."""
    def sums(n, rows):
        ys = [_terms(*cases[r], n) for r in rows.tolist()]
        return (np.array([y.sum() for y in ys]), np.array([np.abs(y).sum() for y in ys]),
                np.array([y.size for y in ys]))
    return ladder(sums, len(cases), tol)


def _quad(f, lo, hi, **kw):
    """scipy's QUADPACK on a real or complex integrand of one variable."""
    re_part = scipy.integrate.quad(lambda x: f(np.array([x])).real[0], lo, hi,
                                   epsabs=1e-13, epsrel=1e-13, limit=200, **kw)[0]
    im_part = scipy.integrate.quad(lambda x: np.imag(f(np.array([x])))[0], lo, hi,
                                   epsabs=1e-13, epsrel=1e-13, limit=200, **kw)[0]
    return complex(re_part, im_part)


_INTEGRALS = [
    (lambda x: x ** 2, 0.0, 1.0, {}),
    (lambda k: k ** -2.0, 1.0, math.inf, {}),
    (lambda x: np.exp(-x * x), -math.inf, math.inf, {}),
    (lambda x: np.exp(1j * x), 0.0, math.pi, {}),
    (lambda x: np.sin(3.0 * x) / (1.0 + x * x), 0.0, 50.0, {}),
    (np.sin, 0.0, 2.0 * math.pi, {"abs": 1e-15}),    # 0: the noise floor ends it
    (lambda k: (k * k - 1.0) ** 3 / (k ** 4 * k ** 3 * (-k)), 1.0, math.inf, {}),
    (lambda x: np.exp(-x * x) * np.cos(3.0 * x), -math.inf, math.inf, {}),
]


@pytest.mark.parametrize("f, lo, hi, kw", _INTEGRALS)
def test_integrate_adaptive_matches_reference(f, lo, hi, kw):
    # alone, and as a row of a batch of all eight, with the same floats
    value = integrate(f, lo, hi)[0]
    assert abs(value - _quad(f, lo, hi)) <= kw.get("abs", 1e-12 * abs(value))
    values, _, _, failed = _batch([finite_lo(*c[:3]) for c in _INTEGRALS])
    assert failed.size == 0
    row = [c[0] for c in _INTEGRALS].index(f)
    assert values[row] == value


@pytest.mark.parametrize("f, pole, lo, hi", [
    (lambda k: np.ones_like(k), 0.0, -1.0, 1.0),
    (lambda k: k * k, 2.0, 1.0, 3.0),
    (lambda k: 1.0 / (k * k), 2.0, 1.0, math.inf),
    (lambda k: np.exp(1j * k - k * k), 0.3, -math.inf, math.inf),
])
def test_integrate_pv_matches_reference(f, pole, lo, hi):
    # PV int f(k)/(k - pole) dk against QUADPACK's Cauchy-weight rule (qawc)
    # on [pole - 1, pole + 1] clipped to the interval, plus plain tails
    a, b = max(lo, pole - 1.0), min(hi, pole + 1.0)
    ref = _quad(f, a, b, weight="cauchy", wvar=pole)
    for x, y in ((lo, a), (b, hi)):
        if x < y:
            ref += _quad(lambda k: f(k) / (k - pole), x, y)
    assert abs(pv(f, pole, lo, hi) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_batch_matches_each_integral_alone():
    scales = [0.5, 1.0, 3.0, 7.0]
    cases = [(lambda x, a=a: np.exp(-a * x * x) * np.cos(a * x), lo, hi)
             for a, (lo, hi) in zip(scales, [(0.0, math.inf), (0.0, 2.0), (1.0, math.inf),
                                             (0.5, 4.0)])]
    values, errors, nodes, failed = _batch(cases)
    assert failed.size == 0 and len(values) == len(cases)
    for i, case in enumerate(cases):
        alone = _batch([case])
        assert (values[i], errors[i], nodes[i]) == (alone[0][0], alone[1][0], alone[2][0])
    empty = _batch([])
    assert [len(a) for a in empty] == [0, 0, 0, 0]


def test_no_command_imports_mpmath():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # every command in one fresh interpreter, the series fits of shift and
    # series-check included; split-check on a short grid to keep it quick
    script = (
        "import contextlib, io, sys\n"
        "import causalatom.cli as c\n"
        "argv = {'split-check': ['--points', '5']}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = {name: c.main([name, *argv.get(name, [])]) for name in c.COMMANDS}\n"
        "print(sorted(codes.items()), 'mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.stdout == f"{sorted((name, 0) for name in cli.COMMANDS)} False\n", proc.stderr
    assert {"shift", "series-check"} <= set(cli.COMMANDS)
