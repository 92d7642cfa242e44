"""The lock-step quadrature engine against the one-integral-at-a-time
reference in reference_quadrature.py: the same floats to the last bit, the
same evaluation counts (so the same greedy choices), and the same errors."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_quadrature as ref
from causalatom import cli
from causalatom.cli import main
from causalatom.errors import BranchPointError, QuadratureConvergenceError
from causalatom.numerics import (
    SLOW_EVALUATIONS,
    SLOW_WIDTH,
    integrate_adaptive,
    integrate_batch,
    pieces,
)
from causalatom.observables import hydrogen_1s2p_preset
from causalatom.selfenergy import (_core, as_causal_distribution, r2_tilde_closed,
                                   split_check_report)
from causalatom.splitting import CausalDistribution1D, retarded_parts_central

ATOM = hydrogen_1s2p_preset()


def bits(values):
    """Values as raw words, so signed zeros count as different."""
    return np.asarray(values).view(np.uint64)


def outcome(run):
    """What run() returns, or the class and message of what it raises."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)


def reference_report(u, tol=1e-11):
    """(numeric values, evaluations) of a per-point loop over the reference,
    after the closed forms split_check_report evaluates first."""
    for x in u:
        r2_tilde_closed(float(x), ATOM)
    d = as_causal_distribution(ATOM)
    points = [ref.retarded_central(d, float(x), tol) for x in u]
    values = np.array([[v.real, v.imag] for v, _ in points])
    return bits(values.T), sum(n for _, n in points)


def batched_report(u, tol=1e-11):
    rep = split_check_report(ATOM, u, tol=tol)
    return bits(np.stack([rep.re_numeric, rep.im_numeric])), rep.quadrature_evaluations


def assert_same(u):
    mine, theirs = outcome(lambda: batched_report(u)), outcome(lambda: reference_report(u))
    if isinstance(theirs[0], type):
        assert mine == theirs
    else:
        assert np.array_equal(mine[0], theirs[0])
        assert mine[1] == theirs[1]


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


# the last band lies within the 1e-9 branch guard of the support edge
_MAGNITUDE = st.one_of(st.floats(0.01, 0.99), st.floats(1.001, 40.0),
                       st.floats(1.0 - 5e-10, 1.0 + 5e-10))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_MAGNITUDE, st.sampled_from([-1.0, 1.0])),
                min_size=1, max_size=12))
def test_random_grids_bitwise_equal_to_reference_loop(points):
    assert_same(np.array([m * s for m, s in points]))


# from |u| ~ 9e15, above 2^53, the fold p0 -+ (p0 - 1) reaches k = 0, where
# the integrand is 0/0: such a point fails in its first round
@pytest.mark.parametrize("u, error, message", [
    ([2.0, 1e16, 3.0], QuadratureConvergenceError,
     "dispersion integral at p0 = 1e+16 failed: invalid value encountered in divide"),
    ([2.0, 1e16, 1 + 5e-10], QuadratureConvergenceError,
     "dispersion integral at p0 = 1e+16 failed: invalid value encountered in divide"),
    ([2.0, 1 + 5e-10, 1e16], BranchPointError,
     "|p0| = 1.0000000005 lies within 1e-09 of the support edge k_min = 1.0"),
])
def test_first_failing_point_in_grid_order(u, error, message):
    with pytest.raises(error) as exc:
        split_check_report(ATOM, u)
    assert str(exc.value) == message
    assert outcome(lambda: reference_report(u)) == (error, message)


def test_failing_grid_cli_stderr(capsys):
    code = main(["split-check", "--u-min", "1e16", "--u-max", "2e16", "--points", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        '{"error": "QuadratureConvergenceError", "message": "dispersion integral at '
        'p0 = 1e+16 failed: invalid value encountered in divide", '
        '"command": "split-check"}\n')


def test_failing_grid_is_not_integrated_far_past_its_failure():
    # u = 1e16 fails in its first round; alone, each of the points near the
    # support edge would spend the whole 1 000 000-evaluation budget.  Only
    # SLOW_WIDTH slow integrals advance at once, and none after the failure,
    # so the batch spends at most SLOW_WIDTH times what the per-point loop
    # spends up to its failure, plus every point's share below
    # SLOW_EVALUATIONS; both twice over, since a folded integrand is
    # evaluated at a node and its mirror.
    u = [1e16] + [1 + 2e-9 * (1 + j / 4) for j in range(6)]
    nodes = []

    def counted(d):
        def g(k):
            nodes[-1] += np.size(k)
            return d.g(k)
        return dataclasses.replace(d, g=g)

    d = as_causal_distribution(ATOM)
    message = r"dispersion integral at p0 = 1e\+16 failed: invalid value encountered in divide"
    nodes.append(0)
    with pytest.raises(QuadratureConvergenceError, match=message):
        retarded_parts_central(counted(d), u)
    nodes.append(0)
    with pytest.raises(QuadratureConvergenceError, match=message):
        for x in u:
            ref.retarded_central(counted(d), x, 1e-11)
    batched, looped = nodes
    assert batched <= 2 * (SLOW_WIDTH * looped + 2 * len(u) * (SLOW_EVALUATIONS + 30))


def test_tails_mapped_at_the_scale_of_the_point():
    # the tails map t in [0, 1) to k = x +- |p0| t/(1-t), which puts the
    # kernel's features, at |k| ~ |p0|, near t = 1/2: the 1000-point grid
    # takes 181 320 evaluations, where QUADPACK's unscaled map takes 205 410,
    # and its real part stays at the rounding level
    rep = split_check_report(ATOM, np.linspace(1.1, 3.0, 1000))
    assert rep.quadrature_evaluations == 181_320
    assert rep.re_rel_err.max() <= 1e-14
    table, counts = pieces([1.0, -math.inf], [math.inf, -1.0], scale=[2.0, 3.0])
    assert counts.tolist() == [1, 1] and table[:, 2].tolist() == [2.0, -3.0]


@pytest.mark.parametrize("p0", [1e308, -1.7e308])
def test_point_near_the_float_limit_fails_typed(p0):
    # the piece builder's pole +- h rounds to +-inf there, which leaves that
    # side's piece empty and raises no flag (warnings are errors in this
    # suite); the fold's nodes overflow in the integrand, which names the point
    d = as_causal_distribution(ATOM, unit_scale=True)
    message = re.escape(f"at p0 = {p0!r} failed: overflow")
    with pytest.raises(QuadratureConvergenceError, match=message):
        retarded_parts_central(d, [2.0, p0])


@pytest.mark.parametrize("k_min", [0.3, 1.7])
def test_plain_piece_matches_reference(k_min):
    # with k_min != 1 the fold's end p0 -+ (p0 -+ k_min) can round short of
    # the support edge, which leaves a plain piece between them
    d = CausalDistribution1D(g=lambda k: 2.0 * _core(k / k_min), singular_order=2,
                             k_min=k_min)
    p0s = k_min * np.concatenate([np.linspace(-6.0, -1.1, 20), np.linspace(-0.9, 0.9, 5),
                                  np.linspace(1.1, 6.0, 20)])
    values, evals, _ = retarded_parts_central(d, p0s)
    theirs = [ref.retarded_central(d, float(p0), 1e-11) for p0 in p0s]
    assert np.array_equal(bits([values.real, values.imag]),
                          bits([[v.real for v, _ in theirs], [v.imag for v, _ in theirs]]))
    assert evals.tolist() == [n for _, n in theirs]
    on = p0s[np.abs(p0s) > k_min]
    _, counts = pieces(np.where(on > 0, k_min, -math.inf), np.where(on > 0, math.inf, -k_min), on)
    assert 3 in counts.tolist()


# ---------------------------------------------------------------------------
# the engine itself
# ---------------------------------------------------------------------------

def _same_result(mine, theirs):
    assert np.array_equal(bits([mine.value.real, mine.value.imag]),
                          bits([theirs.value.real, theirs.value.imag]))
    assert mine.abs_error_estimate == theirs.abs_error_estimate
    assert mine.evaluations == theirs.evaluations


def _same_row(sums, evaluations, theirs):
    """An integral's row of integrate_batch against a QuadratureResult."""
    assert np.array_equal(bits(sums[:2]), bits([theirs.value.real, theirs.value.imag]))
    assert sums[2] == theirs.abs_error_estimate
    assert evaluations == theirs.evaluations


@pytest.mark.parametrize("f, lo, hi, kw", [
    (lambda x: x ** 2, 0.0, 1.0, {}),
    (lambda k: k ** -2.0, 1.0, math.inf, {}),
    (lambda x: np.exp(-x * x), -math.inf, math.inf, {}),
    (lambda x: np.exp(1j * x), 0.0, math.pi, {}),
    (lambda x: np.sin(3.0 * x) / (1.0 + x * x), 0.0, 50.0, {}),
    (np.sin, 0.0, 2.0 * math.pi, {"abs_tol": 1e-300, "max_evaluations": 2000}),
    (lambda k: (k * k - 1.0) ** 3 / (k ** 4 * k ** 3 * (-k)), 1.0, math.inf,
     {"rel_tol": 1e-12}),    # abs_tol binds, and each half of (-inf, inf) must meet half of it
    (lambda x: np.exp(-x * x) * np.cos(3.0 * x), -math.inf, math.inf,
     {"rel_tol": 1e-300, "abs_tol": 1e-6}),
])
def test_integrate_adaptive_matches_reference(f, lo, hi, kw):
    _same_result(integrate_adaptive(f, lo, hi, **kw),
                 ref.integrate_adaptive(f, lo, hi, **kw))


@pytest.mark.parametrize("f, pole, lo, hi", [
    (lambda x: 1.0 / x, 0.0, -1.0, 1.0),
    (lambda k: k * k / (k - 2.0), 2.0, 1.0, 3.0),
    (lambda k: 1.0 / (k * k * (k - 2.0)), 2.0, 1.0, math.inf),
    (lambda k: np.exp(1j * k - k * k) / (k - 0.3), 0.3, -math.inf, math.inf),
])
def test_integrate_pv_matches_reference(f, pole, lo, hi):
    # a principal value is a one-row batch with a pole
    sums, evaluations, exc = integrate_batch(lambda x, owner: f(x), [lo], [hi], [pole],
                                             rel_tol=1e-12)
    assert exc is None and len(sums) == 1
    _same_row(sums[0], evaluations[0], ref.integrate_pv(f, pole, lo, hi, tol=1e-12))


# at 2010 a budget check off by 15 evaluations would run one round more
@pytest.mark.parametrize("budget", [2000, 2010])
def test_budget_exhaustion_matches_reference(budget):
    def nasty(x):
        return np.abs(np.sin(1.0 / (x + 1e-12)))

    kw = {"rel_tol": 1e-14, "abs_tol": 1e-300, "max_evaluations": budget}
    mine = outcome(lambda: integrate_adaptive(nasty, 0.0, 1.0, **kw))
    theirs = outcome(lambda: ref.integrate_adaptive(nasty, 0.0, 1.0, **kw))
    assert mine[0] is QuadratureConvergenceError
    assert mine == theirs


def test_later_piece_gets_what_earlier_pieces_left():
    # the two halves of (-inf, inf) share one budget: the second overruns
    # what the first left although it would converge within the whole budget
    def f(x):
        return np.exp(-x * x) * np.cos(3.0 * x)

    kw = {"rel_tol": 1e-13, "abs_tol": 1e-300}
    half = ref.integrate_adaptive(f, 0.0, math.inf, **kw).evaluations
    budget = 2 * half - 30
    with pytest.raises(QuadratureConvergenceError) as mine:
        integrate_adaptive(f, -math.inf, math.inf, max_evaluations=budget, **kw)
    with pytest.raises(QuadratureConvergenceError) as theirs:
        ref.integrate_adaptive(f, -math.inf, math.inf, max_evaluations=budget, **kw)
    assert str(mine.value) == str(theirs.value)
    assert f"within {budget - half} evaluations" in str(mine.value)
    _same_result(mine.value.partial, theirs.value.partial)


def test_batch_matches_each_integral_alone():
    scales = np.array([0.5, 1.0, 3.0, 7.0])

    def f(x, owner):
        return np.exp(-scales[owner] * x * x) * np.cos(scales[owner] * x)

    intervals = [(-math.inf, math.inf), (0.0, 2.0), (1.0, math.inf), (-math.inf, -0.5)]
    sums, evaluations, exc = integrate_batch(f, *zip(*intervals), rel_tol=1e-12)
    assert exc is None and len(sums) == len(evaluations) == len(intervals)
    empty = integrate_batch(f, [], [], rel_tol=1e-12)
    assert empty[0].shape == (0, 3) and len(empty[1]) == 0 and empty[2] is None
    for i, iv in enumerate(intervals):
        _same_row(sums[i], evaluations[i],
                  ref.integrate_adaptive(lambda x: f(x, i), *iv, rel_tol=1e-12))


def _alternating_steps(x):
    """+-1 past a third of each unit cell, the sign alternating from cell to
    cell: the GK15 error estimates of [0, 1] and [1, 2] are exactly equal."""
    cell = np.floor(x)
    return np.where(cell % 2 == 0, 1.0, -1.0) * (x - cell > 1.0 / 3.0)


def test_equal_error_estimates_go_to_the_older_segment():
    # [0, 2] bisects into [0, 1] and [1, 2], whose estimates tie; abs_tol is
    # met once one of them is bisected, so the tie decides the result: the
    # older segment, [0, 1], goes first (bisecting [1, 2] first would give
    # the opposite sign)
    assert ref._gk_panel(_alternating_steps, 0.0, 1.0)[1] == \
        ref._gk_panel(_alternating_steps, 1.0, 2.0)[1]
    intervals = [(0.0, 2.0), (2.0, 4.0), (0.0, 4.0), (-2.0, 2.0), (0.0, 8.0)]
    kw = {"rel_tol": 1e-300, "abs_tol": 0.085}
    sums, evaluations, exc = integrate_batch(lambda x, owner: _alternating_steps(x),
                                             *zip(*intervals), **kw)
    assert exc is None and len(sums) == len(intervals)
    for s, n, iv in zip(sums, evaluations, intervals):
        _same_row(s, n, ref.integrate_adaptive(_alternating_steps, *iv, **kw))
    assert sums[0, 0] > 0.0


def test_integrals_after_a_failing_one_are_dropped():
    # in the first round a node of integral 2 lands on its pole at 0.5, so
    # integral 3 is dropped after that round; integral 1 runs on to its
    # budget, and the batch ends with it, the first failure in order;
    # integral 0 finishes as it would alone
    def nasty(x):
        return np.abs(np.sin(1.0 / (x + 1e-12)))

    funcs = [np.exp, nasty, lambda x: 1.0 / (x - 0.5), nasty]
    seen = np.zeros(len(funcs), dtype=int)

    def f(x, owner):
        np.add.at(seen, owner, 1)
        y = np.empty(len(x))
        for j, g in enumerate(funcs):
            y[owner == j] = g(x[owner == j])
        return y

    kw = {"rel_tol": 1e-14, "abs_tol": 1e-300, "max_evaluations": 3000}
    with np.errstate(divide="raise"):
        sums, evaluations, exc = integrate_batch(f, [0.0] * 4, [1.0] * 4, **kw)
    assert len(sums) == len(evaluations) == 1
    _same_row(sums[0], evaluations[0], ref.integrate_adaptive(np.exp, 0.0, 1.0, **kw))
    theirs = outcome(lambda: ref.integrate_adaptive(nasty, 0.0, 1.0, **kw))
    assert (type(exc), str(exc)) == theirs
    assert theirs[0] is QuadratureConvergenceError
    assert seen[3] == 15


def test_slow_integrals_match_reference():
    # each of these outlasts SLOW_EVALUATIONS, so they take turns, at most
    # SLOW_WIDTH at once, and still get the floats they get alone
    powers = np.linspace(0.6, 0.85, SLOW_WIDTH + 2)

    def f(x, owner):
        return x ** -powers[owner]

    kw = {"rel_tol": 1e-12, "abs_tol": 1e-300}
    sums, evaluations, exc = integrate_batch(f, [0.0] * len(powers), [1.0] * len(powers), **kw)
    assert exc is None and len(sums) == len(powers)
    for i, (s, n) in enumerate(zip(sums, evaluations)):
        theirs = ref.integrate_adaptive(lambda x: f(x, np.full(len(x), i)), 0.0, 1.0, **kw)
        assert theirs.evaluations > SLOW_EVALUATIONS
        _same_row(s, n, theirs)


def test_slow_integrals_after_the_first_wait():
    # all of these run into their budget; past SLOW_EVALUATIONS only the
    # first SLOW_WIDTH go on, so the others have stopped there when the
    # first one fails and ends the batch
    def nasty(x):
        return np.abs(np.sin(1.0 / (x + 1e-12)))

    seen = np.zeros(SLOW_WIDTH + 3, dtype=int)

    def f(x, owner):
        np.add.at(seen, owner, 1)
        return nasty(x)

    kw = {"rel_tol": 1e-14, "abs_tol": 1e-300, "max_evaluations": 3 * SLOW_EVALUATIONS}
    sums, evaluations, exc = integrate_batch(f, [0.0] * len(seen), [1.0] * len(seen), **kw)
    theirs = outcome(lambda: ref.integrate_adaptive(nasty, 0.0, 1.0, **kw))
    assert len(sums) == len(evaluations) == 0
    assert (type(exc), str(exc)) == theirs
    assert theirs[0] is QuadratureConvergenceError
    assert (seen[SLOW_WIDTH:] <= SLOW_EVALUATIONS + 30).all()


def test_integrals_spent_in_one_round_report_the_first():
    # both bisect once a round and never converge, so both spend their
    # budget in the same round; the error and its partial estimate are
    # those of the first, not of the second
    def nasty(x):
        return np.abs(np.sin(1.0 / (x + 1e-12)))

    kw = {"rel_tol": 1e-14, "abs_tol": 1e-300, "max_evaluations": 2000}
    sums, evaluations, exc = integrate_batch(lambda x, owner: (1.0 + owner) * nasty(x),
                                             [0.0, 0.0], [1.0, 1.0], **kw)
    with pytest.raises(QuadratureConvergenceError) as theirs:
        ref.integrate_adaptive(nasty, 0.0, 1.0, **kw)
    assert len(sums) == len(evaluations) == 0
    assert isinstance(exc, QuadratureConvergenceError)
    assert str(exc) == str(theirs.value)
    _same_result(exc.partial, theirs.value.partial)


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
