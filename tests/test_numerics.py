"""The double-exponential rule and its step ladder, on integrals with known
values or an independent oracle (scipy's QUADPACK)."""

import math

import numpy as np
import pytest
import scipy.integrate

from causalatom.numerics import BASE, STEPS, exp_sinh, ladder, tanh_sinh


def _terms(f, lo, hi, n):
    """w f at the nodes that step 1/n adds on [lo, hi]: tanh-sinh on a finite
    interval, exp-sinh at the scale 1 on [lo, inf)."""
    if math.isinf(hi):
        x, w = exp_sinh(n)
        return f(lo + x) * w
    s, w = tanh_sinh(n)
    return f(lo + (hi - lo) * s) * ((hi - lo) * w)


def finite_lo(f, lo, hi):
    """(f, lo, hi) with lo finite: (-inf, inf) becomes f(x) + f(-x) on [0, inf)."""
    return ((lambda x: f(x) + f(-x)), 0.0, hi) if math.isinf(lo) else (f, lo, hi)


def integrate(f, lo, hi, tol=1e-12):
    """(value, error estimate, nodes) of int_lo^hi f on the ladder."""
    f, lo, hi = finite_lo(f, lo, hi)

    def sums(n, rows):
        y = _terms(f, lo, hi, n)
        return np.array([y.sum()]), np.array([np.abs(y).sum()]), np.array([y.size])

    value, err, nodes, failed = ladder(sums, 1, tol)
    assert failed.size == 0
    return value[0], err[0], nodes[0]


def pv(phi, pole, lo, hi, tol=1e-12):
    """PV int_lo^hi phi(x)/(x - pole) dx: the fold (phi(pole + t) -
    phi(pole - t))/t on [0, h], h the distance to the nearer end, and the
    rest of the interval beyond it."""
    h = min(pole - lo, hi - pole)
    value = integrate(lambda t: (phi(pole + t) - phi(pole - t)) / t, 0.0, h, tol)[0]
    for a, b in ((pole + h, hi), (lo, pole - h)):
        if a < b:
            value += integrate(lambda x: phi(x) / (x - pole), a, b, tol)[0]
    return value


class TestRule:
    @pytest.mark.parametrize("rule, cut", [(tanh_sinh, (-3.6, 3.6)), (exp_sinh, (-4.1, 4.2))])
    def test_nodes_of_step_h_are_every_other_node_of_step_h_over_2(self, rule, cut):
        # rebuilt from t = k h: the nodes a step adds are the odd multiples
        # of it, so those of step h are the even nodes of step h/2
        seen = [rule(BASE)]
        for n in STEPS:
            seen.append(rule(n))
            nodes = np.concatenate([x for x, _ in seen])
            k = np.arange(math.ceil(cut[0] * n), math.floor(cut[1] * n) + 1)
            u = 0.5 * math.pi * np.sinh(k / n)
            whole = 1.0 / (1.0 + np.exp(-2.0 * u)) if rule is tanh_sinh else np.exp(u)
            assert np.array_equal(np.sort(nodes), np.sort(whole))
            assert np.array_equal(np.sort(whole[k % 2 == 0]),
                                  np.sort(np.concatenate([x for x, _ in seen[:-1]])))

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            tanh_sinh(16)[0][0] = 0.5

    def test_weights_are_the_derivative_of_the_map(self):
        # the tanh-sinh weights integrate 1 to 1 and the exp-sinh weights
        # e^-x to 1, each to rounding at the last step
        _, w = tanh_sinh(BASE)
        assert abs(w.sum() / BASE - 1.0) < 1e-15
        total = sum((np.exp(-exp_sinh(n)[0]) * exp_sinh(n)[1]).sum() for n in (BASE, *STEPS))
        assert abs(total / STEPS[-1] - 1.0) < 1e-15


class TestIntegrateAdaptive:
    """The ladder integrates adaptively: each integral halves its step until
    its error estimate meets its target."""

    def test_polynomial_exactness(self):
        value, _, nodes = integrate(lambda x: x ** 2, 0.0, 1.0)
        assert abs(value - 1.0 / 3.0) < 1e-15
        assert nodes > 0

    def test_inverse_square_tail(self):
        value, _, _ = integrate(lambda k: k ** -2.0, 1.0, math.inf)
        assert abs(value - 1.0) < 1e-15

    def test_tail_transform_against_independent_oracle(self):
        # integrand (k^2-1)^3/(k^4 k^3 (-k)) on [1, inf); oracle is an
        # independent scheme (scipy QUADPACK) under the substitution k = 1/t,
        # which maps the integral to -int_0^1 (1-t^2)^3 dt.
        def f(k):
            return (k * k - 1.0) ** 3 / (k ** 4 * k ** 3 * (-k))

        mine, _, _ = integrate(f, 1.0, math.inf)
        oracle, _ = scipy.integrate.quad(lambda t: -(1.0 - t * t) ** 3, 0.0, 1.0,
                                         epsabs=1e-14, epsrel=1e-13)
        assert abs(mine - oracle) < 1e-14
        assert abs(mine - (-16.0 / 35.0)) < 1e-14

    def test_doubly_infinite(self):
        value, _, _ = integrate(lambda x: np.exp(-x * x), -math.inf, math.inf)
        assert abs(value - math.sqrt(math.pi)) < 1e-14

    def test_complex_integrand(self):
        value, _, _ = integrate(lambda x: np.exp(1j * x), 0.0, math.pi)
        assert abs(value - 2j) < 1e-14

    def test_linearity_on_random_polynomials(self):
        rng = np.random.RandomState(7)
        iv = (0.0, 2.0)
        for _ in range(10):
            f = np.polynomial.Polynomial(rng.randn(5))
            g = np.polynomial.Polynomial(rng.randn(5))
            a, b = rng.randn(2)
            lhs = integrate(lambda x: a * f(x) + b * g(x), *iv)[0]
            rf, rg = integrate(f, *iv)[0], integrate(g, *iv)[0]
            assert abs(lhs - (a * rf + b * rg)) < 1e-12 * max(1.0, abs(lhs))

    def test_budget_exhaustion_carries_partial(self):
        # the last step is the budget: an integral that has not met its
        # target there is returned as failed, with that step's value and
        # estimate, and the other integrals are unaffected
        def sums(n, rows):
            s, w = tanh_sinh(n)
            y = np.stack([np.abs(np.sin(1.0 / (s + 1e-12))) * w, s * w])[rows]
            return y.sum(axis=1), np.abs(y).sum(axis=1), np.full(len(rows), y.shape[1])

        value, err, nodes, failed = ladder(sums, 2, 1e-14)
        assert failed.tolist() == [0]
        assert np.isfinite(value[0]) and 1e-14 * value[0] < err[0] < 1.0
        assert nodes[0] == sum(len(tanh_sinh(n)[0]) for n in (BASE, *STEPS))
        assert abs(value[1] - 0.5) < 1e-15 and nodes[1] < nodes[0]

    def test_zero_integral_stops_at_rounding_noise(self):
        # the integral is 0, so the relative target cannot be met; the error
        # floor is the rounding noise of the sum
        value, err, _ = integrate(np.sin, 0.0, 2.0 * math.pi)
        assert abs(value) < 1e-14
        assert err < 1e-14

    def test_determinism(self):
        def f(x):
            return np.sin(3.0 * x) / (1.0 + x * x)

        assert integrate(f, 0.0, 50.0) == integrate(f, 0.0, 50.0)

    def test_bad_tolerances_rejected(self):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerances must be finite and > 0"):
                ladder(lambda n, rows: None, 1, tol)


class TestIntegratePV:
    def test_odd_integrand(self):
        assert pv(np.ones_like, 0.0, -1.0, 1.0) == 0.0

    def test_symmetric_about_pole(self):
        assert pv(np.ones_like, 1.0, 0.0, 2.0) == 0.0

    def test_against_analytic_antiderivative(self):
        # k^2/(k-2) = k + 2 + 4/(k-2); PV of the last term over [1, 4] is
        # 4 ln 2, so PV int_1^4 = [k^2/2 + 2k]_1^4 + 4 ln 2 = 13.5 + 4 ln 2;
        # the fold covers [1, 3] and [3, 4] follows as a plain piece
        r = pv(lambda k: k * k, 2.0, 1.0, 4.0)
        assert abs(r - (13.5 + 4.0 * math.log(2.0))) < 1e-13

    def test_regular_integrand_matches_plain_quadrature(self):
        # with the pole factor cancelled the integrand is regular: PV == ordinary
        plain = integrate(np.exp, 0.0, 1.0)[0]
        assert abs(pv(lambda x: (x - 0.5) * np.exp(x), 0.5, 0.0, 1.0) - plain) < 1e-14

    def test_semi_infinite_interval(self):
        # PV int_1^inf dk/(k^2 (k-2)): with the antiderivative
        # F(k) = -(1/4) ln k + 1/(2k) + (1/4) ln|k-2|, the PV is
        # F(inf) - F(1) = 0 - 1/2, the log terms cancelling at both ends
        assert abs(pv(lambda k: 1.0 / (k * k), 2.0, 1.0, math.inf) + 0.5) < 1e-13
