import math

import numpy as np
import pytest
import scipy.integrate

from causalatom import numerics
from causalatom.errors import (
    PoleLocationError,
    QuadratureConvergenceError,
    SingularMatrixError,
)
from causalatom.numerics import (
    Interval,
    integrate_adaptive,
    integrate_pv,
    solve_linear,
)


class TestGK15Rule:
    def test_nodes_symmetric_and_interior(self):
        x = numerics.GK15_NODES
        assert len(x) == 15
        assert np.allclose(x + x[::-1], 0.0, atol=1e-14)
        assert np.all(np.abs(x) < 1.0)

    def test_known_kronrod_nodes(self):
        # QUADPACK dqk15 abscissae for the Kronrod-only points
        ref = [0.2077849550078985, 0.5860872354676911,
               0.8648644233597691, 0.9914553711208126]
        mine = np.sort(np.abs(numerics.GK15_NODES[::2]))[::2]
        mine = sorted(set(round(v, 13) for v in np.abs(numerics.GK15_NODES)) -
                      set(round(v, 13) for v in np.abs(np.polynomial.legendre.leggauss(7)[0])))
        assert np.allclose(mine, ref, atol=1e-10)

    def test_degree_exactness(self):
        rng = np.random.RandomState(42)
        # K15 integrates degree <= 22 exactly; embedded G7 degree <= 13
        for deg, weights in ((22, numerics.GK15_WEIGHTS), (13, numerics.G7_WEIGHTS)):
            c = rng.randn(deg + 1)
            p = np.polynomial.Polynomial(c)
            exact = (p.integ()(1.0) - p.integ()(-1.0))
            approx = weights @ p(numerics.GK15_NODES)
            assert abs(approx - exact) < 1e-13 * max(1.0, abs(exact))

    def test_weights_positive(self):
        assert np.all(numerics.GK15_WEIGHTS > 0)
        assert abs(numerics.GK15_WEIGHTS.sum() - 2.0) < 1e-14


class TestIntegrateAdaptive:
    def test_polynomial_exactness(self):
        r = integrate_adaptive(lambda x: x ** 2, Interval(0.0, 1.0))
        assert abs(r.value - 1.0 / 3.0) < 1e-12
        assert r.evaluations > 0

    def test_inverse_square_tail(self):
        r = integrate_adaptive(lambda k: k ** -2.0, Interval(1.0, math.inf))
        assert abs(r.value - 1.0) < 1e-10

    def test_tail_transform_against_independent_oracle(self):
        # integrand (k^2-1)^3/(k^4 k^3 (-k)) on [1, inf); oracle is an
        # independent scheme (scipy QUADPACK) under the substitution k = 1/t,
        # which maps the integral to -int_0^1 (1-t^2)^3 dt.
        def f(k):
            return (k * k - 1.0) ** 3 / (k ** 4 * k ** 3 * (-k))

        mine = integrate_adaptive(f, Interval(1.0, math.inf), rel_tol=1e-12)
        oracle, _ = scipy.integrate.quad(lambda t: -(1.0 - t * t) ** 3, 0.0, 1.0,
                                         epsabs=1e-14, epsrel=1e-13)
        assert abs(mine.value - oracle) < 1e-10
        assert abs(mine.value - (-16.0 / 35.0)) < 1e-10

    def test_doubly_infinite(self):
        r = integrate_adaptive(lambda x: np.exp(-x * x), Interval(-math.inf, math.inf))
        assert abs(r.value - math.sqrt(math.pi)) < 1e-10

    def test_complex_integrand(self):
        r = integrate_adaptive(lambda x: np.exp(1j * x), Interval(0.0, math.pi))
        assert abs(r.value - (math.sin(math.pi) + 1j * (1 - math.cos(math.pi)))) < 1e-12

    def test_linearity_on_random_polynomials(self):
        rng = np.random.RandomState(7)
        iv = Interval(0.0, 2.0)
        for _ in range(10):
            cf = rng.randn(5)
            cg = rng.randn(5)
            a, b = rng.randn(2)
            f = np.polynomial.Polynomial(cf)
            g = np.polynomial.Polynomial(cg)
            lhs = integrate_adaptive(lambda x: a * f(x) + b * g(x), iv)
            rf = integrate_adaptive(f, iv)
            rg = integrate_adaptive(g, iv)
            tol = 1e-12 * max(1.0, abs(lhs.value))
            assert abs(lhs.value - (a * rf.value + b * rg.value)) < tol

    def test_budget_exhaustion_carries_partial(self):
        def nasty(x):
            return np.abs(np.sin(1.0 / (x + 1e-12)))

        with pytest.raises(QuadratureConvergenceError) as exc:
            integrate_adaptive(nasty, Interval(0.0, 1.0), rel_tol=1e-14,
                               abs_tol=1e-300, max_evaluations=2000)
        partial = exc.value.partial
        assert partial is not None
        assert partial.evaluations <= 2000
        assert math.isfinite(partial.abs_error_estimate)

    def test_zero_integral_stops_at_rounding_noise(self):
        # the integral is 0, so neither the relative nor a 1e-300 absolute
        # target can be met; the error floor is the rounding noise of the sum
        r = integrate_adaptive(np.sin, Interval(0.0, 2.0 * math.pi),
                               abs_tol=1e-300, max_evaluations=2000)
        assert abs(r.value) < 1e-13
        assert r.abs_error_estimate < 1e-13

    def test_determinism(self):
        def f(x):
            return np.sin(3.0 * x) / (1.0 + x * x)

        r1 = integrate_adaptive(f, Interval(0.0, 50.0))
        r2 = integrate_adaptive(f, Interval(0.0, 50.0))
        assert r1.value == r2.value
        assert r1.abs_error_estimate == r2.abs_error_estimate
        assert r1.evaluations == r2.evaluations

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, Interval(0.0, 1.0), rel_tol=-1.0)

    def test_interval_invariant(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


class TestIntegratePV:
    def test_odd_integrand(self):
        r = integrate_pv(lambda x: 1.0 / x, 0.0, Interval(-1.0, 1.0))
        assert abs(r.value) < 1e-12

    def test_symmetric_about_pole(self):
        r = integrate_pv(lambda x: 1.0 / (x - 1.0), 1.0, Interval(0.0, 2.0))
        assert abs(r.value) < 1e-12

    def test_against_analytic_antiderivative(self):
        # k^2/(k-2) = k + 2 + 4/(k-2); PV of the last term over [1,3] vanishes,
        # so PV int_1^3 = [k^2/2 + 2k] = 8.
        r = integrate_pv(lambda k: k * k / (k - 2.0), 2.0, Interval(1.0, 3.0),
                         tol=1e-12)
        assert abs(r.value - 8.0) < 1e-10

    def test_regular_integrand_matches_plain_quadrature(self):
        # integrand with the pole factor cancelled is regular: PV == ordinary
        def f(x):
            return (x - 0.5) * np.exp(x) / (x - 0.5)

        pv = integrate_pv(f, 0.5, Interval(0.0, 1.0))
        plain = integrate_adaptive(lambda x: np.exp(x), Interval(0.0, 1.0))
        assert abs(pv.value - plain.value) < 1e-10

    def test_endpoint_pole_rejected(self):
        with pytest.raises(PoleLocationError):
            integrate_pv(lambda x: 1.0 / x, 0.0, Interval(0.0, 1.0))
        with pytest.raises(PoleLocationError):
            integrate_pv(lambda x: 1.0 / (x - 5.0), 5.0, Interval(0.0, 1.0))

    def test_semi_infinite_interval(self):
        # PV int_1^inf dk/(k^2 (k-2)): partial fractions give
        # 1/(k^2(k-2)) = -1/(4k) - 1/(2k^2) + 1/(4(k-2));
        # PV integral = 1/4 ln|k-2|/|k| - ... evaluated: (1/4)ln(1) ... at k=1:
        # value = -(1/4)ln 2 + 1/2 + ... compute numerically vs scipy oracle.
        def f(k):
            return 1.0 / (k * k * (k - 2.0))

        mine = integrate_pv(f, 2.0, Interval(1.0, math.inf), tol=1e-12)
        # analytic: -1/4 ln|k| - ... antiderivative F(k) = -(1/4)ln k + 1/(2k) + (1/4)ln|k-2|
        # PV value = lim_{R->inf} F(R) - F(1) with symmetric pole exclusion (log terms cancel)
        exact = (0.0) - (-(0.25) * math.log(1.0) + 0.5 + 0.25 * math.log(1.0))
        assert abs(mine.value - exact) < 1e-10


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-14)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0, 8.0]), [2.0, 4.0, 8.0])
        assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-14)

    def test_normalization_fixing_system(self):
        # rows: coefficient formulas of the line-shift bracket in (C0, C1, C2):
        #   delta-u^0:  2 + 6 C0 + 6 C1 + 6 C2 = 0
        #   delta-u^1:  8 - 6 C0 + 6 C2 = 0
        #   delta-u^2: 21 + 6 C0 = 0
        a = np.array([[6.0, 6.0, 6.0],
                      [-6.0, 0.0, 6.0],
                      [6.0, 0.0, 0.0]])
        b = -np.array([2.0, 8.0, 21.0])
        x = solve_linear(a, b)
        assert np.allclose(x, [-3.5, 8.0, -29.0 / 6.0], atol=1e-12)
        # brute-force check: the solution zeroes all three coefficients
        c0, c1, c2 = x
        assert abs(2 + 6 * (c0 + c1 + c2)) < 1e-12
        assert abs(8 - 6 * c0 + 6 * c2) < 1e-12
        assert abs(21 + 6 * c0) < 1e-12

    def test_singular_rejected_with_determinant(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear(a, [1.0, 2.0, 3.0])
        assert exc.value.determinant is not None

    def test_residual_bound(self):
        rng = np.random.RandomState(11)
        for _ in range(20):
            a = rng.randn(3, 3)
            if abs(np.linalg.det(a)) < 1e-3:
                continue
            b = rng.randn(3)
            x = solve_linear(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
