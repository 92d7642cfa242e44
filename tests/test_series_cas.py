"""CAS oracle: the analytic line-shift coefficient formulas against a
symbolic expansion of the closed-form bracket."""

import pytest
import sympy as sp

from causalatom.observables import NormalizationConstants, lineshift_series


@pytest.fixture(scope="module")
def symbolic_coefficients():
    x, c0, c1, c2 = sp.symbols("x C0 C1 C2", positive=True)
    u = 1 + x
    re_bracket = (u ** 2 - 1) ** 3 / (2 * u ** 4) * (-2 * sp.log(u ** 2 - 1)) \
        + 1 / u ** 2 - sp.Rational(5, 2) + sp.Rational(11, 6) * u ** 2 \
        + c0 + c1 * u + c2 * u ** 2
    series = sp.expand(sp.series(sp.expand(6 * re_bracket / u).rewrite(sp.log),
                                 x, 0, 4).removeO())
    lx = sp.Symbol("LX")
    poly = sp.Poly(sp.expand(series).subs(sp.log(x), lx), x, lx)
    terms = {exps: sp.simplify(coeff) for exps, coeff in poly.terms()}
    return x, c0, c1, c2, terms


def test_symbolic_expansion_matches_analytic_formulas(symbolic_coefficients):
    x, c0, c1, c2, terms = symbolic_coefficients
    ln2 = sp.log(2)
    # the x^3 log x column carries the log(2 x) split: pure-x^3 term includes
    # c_log3 * ln 2
    assert sp.simplify(terms[(0, 0)] - (2 + 6 * (c0 + c1 + c2))) == 0
    assert sp.simplify(terms[(1, 0)] - (8 - 6 * c0 + 6 * c2)) == 0
    assert sp.simplify(terms[(2, 0)] - 3 * (2 * c0 + 7)) == 0
    assert sp.simplify(terms[(3, 1)] - (-48)) == 0
    assert sp.simplify(terms[(3, 0)] - (-3 * (2 * c0 + 15) - 48 * ln2)) == 0


def test_numeric_formulas_match_cas_at_sample_points(symbolic_coefficients):
    x, c0, c1, c2, terms = symbolic_coefficients
    for triple in ((0.0, 0.0, 0.0), (1.25, -3.5, 2.0), (-3.5, 8.0, sp.Rational(-29, 6))):
        subs = {c0: triple[0], c1: triple[1], c2: triple[2]}
        s = lineshift_series(NormalizationConstants(*[float(v) for v in triple]))
        assert s.c0 == pytest.approx(float(terms[(0, 0)].subs(subs)), abs=1e-12)
        assert s.c1 == pytest.approx(float(terms[(1, 0)].subs(subs)), abs=1e-12)
        assert s.c2 == pytest.approx(float(terms[(2, 0)].subs(subs)), abs=1e-12)
        assert s.c_log3 == pytest.approx(float(terms[(3, 1)].subs(subs)), abs=1e-12)
        expected_c3 = float((terms[(3, 0)] + 48 * sp.log(2)).subs(subs))
        assert s.c3 == pytest.approx(expected_c3, abs=1e-10)
