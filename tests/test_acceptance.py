"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them inline)."""

import time

import numpy as np
import pytest

from causalatom.observables import (
    NORMALIZATION_EXACT,
    NormalizationConstants,
    extract_series_numerically,
    gamma_exact,
    gamma_leading,
    hydrogen_1s2p_preset,
    lamb_reference,
    lineshift_series,
    shift_ratio,
    solve_normalization,
    synthetic_atom,
)
from causalatom.selfenergy import DISTRIBUTION, split_check_report
from causalatom.splitting import polynomial_residual, split
from causalatom.wavepacket import convergence_study, z_factor
from causalatom.wworacle import build_grid, evolve, fit_decay


@pytest.fixture(scope="module")
def hyd():
    return hydrogen_1s2p_preset()


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS - {text}")


def test_criterion_1_decay_rate(hyd):
    t0 = time.perf_counter()
    g_lead = gamma_leading(hyd)
    g_exact = gamma_exact(hyd)
    formula_elapsed = time.perf_counter() - t0
    assert abs(g_lead / 6.26e8 - 1.0) <= 0.02
    assert formula_elapsed < 1.0

    # the exact-to-leading ratio differs from 1 at order delta_u; the signed
    # difference is negative (-7/2 delta_u for the fifth-power denominator),
    # so the acceptance bound is applied to its magnitude, which must be
    # nonzero and below 5 delta_u
    diff = g_exact / g_lead - 1.0
    assert 0.0 < abs(diff) < 5.0 * hyd.delta_u
    assert diff == pytest.approx(-3.5 * hyd.delta_u, rel=1e-5)

    t0 = time.perf_counter()
    ts, ces, _ = evolve(build_grid(100.0, 4000), 5.0)   # in units of g_lead
    fit = fit_decay(ts, ces)
    ww_elapsed = time.perf_counter() - t0
    assert abs(fit.rate - 1.0) <= 0.02
    assert ww_elapsed < 60.0
    report(1, f"gamma_leading = {g_lead:.4e}/s (target 6.26e8 +- 2%); "
              f"WW-oracle rate/gamma = {fit.rate:.5f}; "
              f"exact/leading - 1 = {diff:.3e} (|.| < 5 delta_u); "
              f"WW runtime {ww_elapsed:.1f}s")


def test_criterion_2_normalization_constants():
    solved, _ = solve_normalization()
    assert solved.c0 == pytest.approx(-3.5, abs=1e-10)
    assert solved.c1 == pytest.approx(8.0, abs=1e-10)
    assert solved.c2 == pytest.approx(-29.0 / 6.0, abs=1e-10)

    fit = extract_series_numerically(NORMALIZATION_EXACT)
    ana = lineshift_series(NORMALIZATION_EXACT)
    tol = 1e-10 * abs(fit.c3)
    for series in (fit, ana):
        assert abs(series.c0) <= tol
        assert abs(series.c1) <= tol
        assert abs(series.c2) <= tol
    resid = extract_series_numerically(solved)
    assert resid.c3 == pytest.approx(-24.0, abs=1e-8)

    # the ordering discrepancy is emitted as a structured note on every report
    from causalatom.cli import emit_report
    doc = emit_report("shift", {}, {})
    note = doc["metadata"]["notes"]["c_ordering"]
    assert "(-7/2, 8, -29/6)" in note
    report(2, f"solved (C0, C1, C2) = ({solved.c0}, {solved.c1}, {solved.c2:.12f}); "
              f"low-order coefficients zeroed to {tol:.1e}; residual cubic "
              f"{resid.c3:.10f} (= -24 +- 1e-8); ordering note emitted")


def test_criterion_3_hydrogen_ratio(hyd):
    t0 = time.perf_counter()
    r = shift_ratio(hyd)
    elapsed = time.perf_counter() - t0
    assert 0.050 <= abs(r) <= 0.060
    assert r < 0.0  # signed value reported with the sign note
    assert elapsed < 1.0
    report(3, f"|ratio| = {abs(r):.4f} in [0.050, 0.060]; "
              f"signed value {r:.4f} (sign note applies); {elapsed * 1e3:.0f} ms")


def test_criterion_4_splitting_oracle():
    t0 = time.perf_counter()
    grid = np.linspace(1.05, 5.0, 50)
    rep = split_check_report(grid, tol=1e-11)
    assert rep.im_rel_err.max() <= 1e-8
    assert rep.re_rel_err.max() <= 1e-8

    # shifted-vs-central ambiguity: strict degree-2 polynomial residual
    pair_grid = [1.3, 1.7, 2.2, 2.8, 3.5, 4.2, 5.0]
    res = polynomial_residual(DISTRIBUTION, 0.5, pair_grid, tol=1e-11)
    assert res.max_abs_deviation <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"max im rel err = {rep.im_rel_err.max():.2e}, max re rel err vs "
              f"B(u; C = 0) = {rep.re_rel_err.max():.2e} (both <= 1e-8) "
              f"on 50 points; shifted-vs-central deg-2 deviation "
              f"{res.max_abs_deviation:.2e} (<= 1e-6); runtime {elapsed:.1f}s")


def test_criterion_5_series_oracle():
    names = ("c_log3", "c0", "c1", "c2", "c3")

    def check(c):
        fit = extract_series_numerically(c)
        ana = lineshift_series(c)
        worst = 0.0
        for n in names:
            a, f = getattr(ana, n), getattr(fit, n)
            rel = abs(f - a) / abs(a) if a != 0.0 else abs(f)
            worst = max(worst, rel)
            assert rel <= 1e-6, (n, a, f)
        return worst

    worst = check(NormalizationConstants())
    rng = np.random.RandomState(2024)
    for _ in range(20):
        c = NormalizationConstants(*rng.uniform(-10.0, 10.0, 3))
        worst = max(worst, check(c))
    report(5, f"fitted vs analytic coefficients: worst rel error {worst:.2e} "
              f"(<= 1e-6) over C = 0 and 20 random triples")


def test_criterion_6_wavepacket_reduction():
    t0 = time.perf_counter()
    # in units of lambda_bar_g the check depends on the atom only by delta_u
    study = convergence_study(synthetic_atom(1e-2).delta_u, NormalizationConstants(),
                              [10, 100, 1000, 10000, 10 ** 6])
    errs = [zc.rel_error for zc in study]
    # monotone improvement over three successive plateau decades
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[3] < errs[2]
    # largest tested plateau
    assert errs[-1] <= 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, "rel_error over plateau decades "
              + ", ".join(f"{e:.2e}" for e in errs)
              + f"; largest plateau {errs[-1]:.2e} <= 1e-2; runtime {elapsed:.1f}s")


def test_criterion_7_property_suites(hyd):
    dist = DISTRIBUTION

    def at(p0, pole_sign=1.0):
        return complex(split(dist, [p0], tol=1e-11, pole_sign=pole_sign)[0][0])

    # splitting jump condition via the independently mirrored advanced part
    for p0 in (1.5, 2.0, -3.0):
        r = at(p0)
        a = at(p0, pole_sign=-1.0)
        d_val = 1j * float(dist.g(np.array([p0]))[0])
        assert abs((r - a) - d_val) <= 1e-9 * abs(d_val)

    # pole-term identity: Im r = -i d/2 = g/2 on support, 0 in the gap
    r2 = at(2.0)
    assert r2.imag == pytest.approx(dist.g(np.array([2.0]))[0] / 2.0, rel=1e-12)
    assert at(0.5).imag == 0.0

    # subtraction-point ambiguity: degree <= 2 polynomial
    for q in (-0.6, 0.5):
        res = polynomial_residual(dist, q, [1.3, 1.8, 2.5, 3.2, 4.0, 5.0], tol=1e-11)
        assert res.max_abs_deviation <= 1e-8

    # gamma independent of the normalization polynomial
    rng = np.random.RandomState(7)
    ref = z_factor(hyd, NormalizationConstants()).imag
    for _ in range(10):
        c = NormalizationConstants(*rng.uniform(-10, 10, 3))
        assert z_factor(hyd, c).imag == pytest.approx(ref, rel=1e-12)

    # support gap, odd parity and u^2 growth of the wrapped distribution
    rng = np.random.RandomState(0)
    assert np.all(dist.g(rng.uniform(-0.999, 0.999, 64)) == 0)
    k = rng.uniform(1.01, 11.0, 64)
    assert np.array_equal(dist.g(-k), -dist.g(k))
    growth = np.abs(dist.g(np.array([100.0, 1000.0]))) / np.array([1e4, 1e6])
    assert growth[1] / growth[0] == pytest.approx(1.0, abs=1e-3)

    # WW norm conservation
    _, _, norms = evolve(build_grid(80.0, 1600), 4.0)
    drift = np.abs(norms - 1.0).max()
    assert drift <= 1e-6

    # reference shift reproduced as constant arithmetic to 0.1%
    assert lamb_reference() == pytest.approx(-6.2025e10, rel=1e-3)

    report(7, f"jump condition, pole-term identity, subtraction ambiguity, "
              f"gamma C-independence, distribution invariants, WW norm drift "
              f"{drift:.1e} (<= 1e-6), reference shift within 0.1% - all green")
