import math

import numpy as np
import pytest
import scipy.integrate

from causalatom import numerics
from causalatom.errors import PoleLocationError, QuadratureConvergenceError
from causalatom.numerics import integrate_adaptive, integrate_batch


def _build_gk15():
    """The Gauss-Kronrod 7/15 rule from first principles: (nodes, Kronrod
    weights, Gauss-7 weights at the odd positions).

    The Kronrod extension nodes are the roots of the degree-8 Stieltjes
    polynomial E8, defined by orthogonality of E8 to all lower powers
    against the sign-varying weight P7(x) dx on [-1, 1].
    """
    from numpy.polynomial import Polynomial, legendre

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


class TestGK15Rule:
    def test_literals_are_the_first_principles_rule(self):
        # numerics writes the rule as float literals so that importing it
        # does no numerical work; they must be this construction to the bit
        built = np.stack(_build_gk15())
        literal = np.stack([numerics.GK15_NODES, numerics.GK15_WEIGHTS, numerics.G7_WEIGHTS])
        assert literal.dtype == np.float64
        assert np.array_equal(built.view(np.uint64), literal.view(np.uint64))

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
        r = integrate_adaptive(lambda x: x ** 2, 0.0, 1.0)
        assert abs(r.value - 1.0 / 3.0) < 1e-12
        assert r.evaluations > 0

    def test_inverse_square_tail(self):
        r = integrate_adaptive(lambda k: k ** -2.0, 1.0, math.inf)
        assert abs(r.value - 1.0) < 1e-10

    def test_tail_transform_against_independent_oracle(self):
        # integrand (k^2-1)^3/(k^4 k^3 (-k)) on [1, inf); oracle is an
        # independent scheme (scipy QUADPACK) under the substitution k = 1/t,
        # which maps the integral to -int_0^1 (1-t^2)^3 dt.
        def f(k):
            return (k * k - 1.0) ** 3 / (k ** 4 * k ** 3 * (-k))

        mine = integrate_adaptive(f, 1.0, math.inf, rel_tol=1e-12)
        oracle, _ = scipy.integrate.quad(lambda t: -(1.0 - t * t) ** 3, 0.0, 1.0,
                                         epsabs=1e-14, epsrel=1e-13)
        assert abs(mine.value - oracle) < 1e-10
        assert abs(mine.value - (-16.0 / 35.0)) < 1e-10

    def test_doubly_infinite(self):
        r = integrate_adaptive(lambda x: np.exp(-x * x), -math.inf, math.inf)
        assert abs(r.value - math.sqrt(math.pi)) < 1e-10

    def test_complex_integrand(self):
        r = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, math.pi)
        assert abs(r.value - (math.sin(math.pi) + 1j * (1 - math.cos(math.pi)))) < 1e-12

    def test_linearity_on_random_polynomials(self):
        rng = np.random.RandomState(7)
        iv = (0.0, 2.0)
        for _ in range(10):
            cf = rng.randn(5)
            cg = rng.randn(5)
            a, b = rng.randn(2)
            f = np.polynomial.Polynomial(cf)
            g = np.polynomial.Polynomial(cg)
            lhs = integrate_adaptive(lambda x: a * f(x) + b * g(x), *iv)
            rf = integrate_adaptive(f, *iv)
            rg = integrate_adaptive(g, *iv)
            tol = 1e-12 * max(1.0, abs(lhs.value))
            assert abs(lhs.value - (a * rf.value + b * rg.value)) < tol

    def test_budget_exhaustion_carries_partial(self):
        def nasty(x):
            return np.abs(np.sin(1.0 / (x + 1e-12)))

        with pytest.raises(QuadratureConvergenceError) as exc:
            integrate_adaptive(nasty, 0.0, 1.0, rel_tol=1e-14,
                               abs_tol=1e-300, max_evaluations=2000)
        partial = exc.value.partial
        assert partial is not None
        assert partial.evaluations <= 2000
        assert math.isfinite(partial.abs_error_estimate)

    def test_zero_integral_stops_at_rounding_noise(self):
        # the integral is 0, so neither the relative nor a 1e-300 absolute
        # target can be met; the error floor is the rounding noise of the sum
        r = integrate_adaptive(np.sin, 0.0, 2.0 * math.pi,
                               abs_tol=1e-300, max_evaluations=2000)
        assert abs(r.value) < 1e-13
        assert r.abs_error_estimate < 1e-13

    def test_determinism(self):
        def f(x):
            return np.sin(3.0 * x) / (1.0 + x * x)

        r1 = integrate_adaptive(f, 0.0, 50.0)
        r2 = integrate_adaptive(f, 0.0, 50.0)
        assert r1.value == r2.value
        assert r1.abs_error_estimate == r2.abs_error_estimate
        assert r1.evaluations == r2.evaluations

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, rel_tol=-1.0)

    def test_interval_invariant(self):
        for lo, hi in ((2.0, 1.0), (1.0, 1.0), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match=r"interval requires lo < hi"):
                integrate_adaptive(lambda x: x, lo, hi)
            with pytest.raises(ValueError, match=r"interval requires lo < hi"):
                integrate_batch(lambda x, owner: x, [0.0, lo], [1.0, hi])


def pv(f, pole, lo, hi, tol=numerics.DEFAULT_REL_TOL):
    """Principal value of f about pole on [lo, hi]: a one-row integrate_batch."""
    sums, _, exc = integrate_batch(lambda x, owner: f(x), [lo], [hi], [pole], rel_tol=tol)
    assert exc is None
    return complex(sums[0, 0], sums[0, 1])


class TestIntegratePV:
    def test_odd_integrand(self):
        assert abs(pv(lambda x: 1.0 / x, 0.0, -1.0, 1.0)) < 1e-12

    def test_symmetric_about_pole(self):
        assert abs(pv(lambda x: 1.0 / (x - 1.0), 1.0, 0.0, 2.0)) < 1e-12

    def test_against_analytic_antiderivative(self):
        # k^2/(k-2) = k + 2 + 4/(k-2); PV of the last term over [1,3] vanishes,
        # so PV int_1^3 = [k^2/2 + 2k] = 8.
        r = pv(lambda k: k * k / (k - 2.0), 2.0, 1.0, 3.0, tol=1e-12)
        assert abs(r - 8.0) < 1e-10

    def test_regular_integrand_matches_plain_quadrature(self):
        # integrand with the pole factor cancelled is regular: PV == ordinary
        def f(x):
            return (x - 0.5) * np.exp(x) / (x - 0.5)

        plain = integrate_adaptive(lambda x: np.exp(x), 0.0, 1.0)
        assert abs(pv(f, 0.5, 0.0, 1.0) - plain.value) < 1e-10

    def test_endpoint_pole_rejected(self):
        with pytest.raises(PoleLocationError):
            pv(lambda x: 1.0 / x, 0.0, 0.0, 1.0)
        with pytest.raises(PoleLocationError):
            pv(lambda x: 1.0 / (x - 5.0), 5.0, 0.0, 1.0)

    def test_semi_infinite_interval(self):
        # PV int_1^inf dk/(k^2 (k-2)): partial fractions give
        # 1/(k^2(k-2)) = -1/(4k) - 1/(2k^2) + 1/(4(k-2));
        # PV integral = 1/4 ln|k-2|/|k| - ... evaluated: (1/4)ln(1) ... at k=1:
        # value = -(1/4)ln 2 + 1/2 + ... compute numerically vs scipy oracle.
        def f(k):
            return 1.0 / (k * k * (k - 2.0))

        mine = pv(f, 2.0, 1.0, math.inf, tol=1e-12)
        # analytic: -1/4 ln|k| - ... antiderivative F(k) = -(1/4)ln k + 1/(2k) + (1/4)ln|k-2|
        # PV value = lim_{R->inf} F(R) - F(1) with symmetric pole exclusion (log terms cancel)
        exact = (0.0) - (-(0.25) * math.log(1.0) + 0.5 + 0.25 * math.log(1.0))
        assert abs(mine - exact) < 1e-10

