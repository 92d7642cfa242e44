import numpy as np
import pytest

from causalatom.errors import BranchPointError, SupportError
from causalatom.splitting import (
    CausalDistribution1D,
    advanced_part,
    advanced_part_mirrored,
    make_retarded_central,
    make_retarded_shifted,
    polynomial_residual,
    retarded_part_central,
    retarded_part_shifted,
    validate_distribution,
)


def core_g(k):
    """theta(k^2-1) sgn(k) (k^2-1)^3 / k^4, written large-k stable."""
    k = np.asarray(k, dtype=float)
    out = np.zeros_like(k)
    m = k * k > 1.0
    km = k[m]
    out[m] = np.sign(km) * km * km * (1.0 - 1.0 / (km * km)) ** 3
    return out


def make_core(scale=1.0):
    return CausalDistribution1D(
        evaluate=lambda k: 1j * scale * core_g(k),
        singular_order=2,
        k_min=1.0,
        parity="odd",
        large_k_growth=2,
    )


ZERO_DIST = CausalDistribution1D(
    evaluate=lambda k: np.zeros_like(np.asarray(k, dtype=float), dtype=complex),
    singular_order=2,
    k_min=1.0,
    parity="odd",
    large_k_growth=2,
)


class TestRetardedCentral:
    def test_zero_distribution(self):
        for p0 in (0.3, 2.0, -4.0):
            assert retarded_part_central(ZERO_DIST, p0) == 0.0

    def test_pole_term_identity_at_two(self):
        # Sokhotski-Plemelj: (i/2pi)(-i pi) d(p0) = d(p0)/2, so
        # Im r(2) = g(2)/2 = (27/16)/2 = 27/32
        r = retarded_part_central(make_core(), 2.0)
        assert abs(r.imag - 27.0 / 32.0) < 1e-12
        assert r.imag == pytest.approx(0.84375, abs=1e-12)

    def test_gap_point_is_real(self):
        r = retarded_part_central(make_core(), 0.5)
        assert r.imag == 0.0

    def test_negative_support_point(self):
        # d odd and imaginary: Im r(-2) = -i d(-2)/2 = -g(2)/2
        r = retarded_part_central(make_core(), -2.0)
        assert abs(r.imag + 27.0 / 32.0) < 1e-12

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointError):
            retarded_part_central(make_core(), 1.0 + 1e-12)
        with pytest.raises(BranchPointError):
            retarded_part_central(make_core(), -1.0)

    def test_origin_decay(self):
        # gap-supported d: r(p0) = O(p0^(omega+1)) near the origin; for the
        # odd core the subtraction integral vanishes at 0 by parity, so the
        # decay is at least cubic (here one power better).
        d = make_core()
        r1 = retarded_part_central(d, 0.2)
        r2 = retarded_part_central(d, 0.1)
        assert abs(r2) / abs(r1) <= 0.5 ** 3 * 1.05
        assert retarded_part_central(d, 0.0) == 0.0

    @pytest.mark.parametrize("p0", [3.1332170854271357, -3.1332170854271357,
                                    3.1333286432160805])
    def test_pole_fold_band(self, p0):
        # here the folded principal-value integral crosses zero, so a purely
        # relative target asks for accuracy below rounding noise; at an
        # SI-sized scale the 1e-14 absolute floor does not stop the bisection
        # either, and it used to refine until a node landed on the pole
        scale = 1e22
        r = retarded_part_central(make_core(scale), p0)
        x = p0 * p0 - 1.0
        # 2 pi Re r = the symmetrized bracket at C = 0; Im r = core(p0)/2
        re_expected = scale * (-x ** 3 * np.log(x) / p0 ** 4 + 1.0 / p0 ** 2 - 2.5
                               + 11.0 * p0 ** 2 / 6.0) / (2.0 * np.pi)
        assert r.real == pytest.approx(re_expected, rel=1e-11)
        im_expected = scale * core_g(np.array([p0]))[0] / 2.0
        assert r.imag == pytest.approx(im_expected, rel=1e-14)

    def test_linearity(self):
        d1 = make_core(1.0)
        d2 = CausalDistribution1D(
            evaluate=lambda k: 1j * np.where(np.abs(k) > 1.0, np.sign(k) / (k ** 2 + (np.abs(k) <= 1.0)), 0.0),
            singular_order=2, k_min=1.0, parity="odd", large_k_growth=0)
        a, b = 2.5, -1.25
        combo = CausalDistribution1D(
            evaluate=lambda k: a * d1.evaluate(k) + b * d2.evaluate(k),
            singular_order=2, k_min=1.0, parity="odd", large_k_growth=2)
        for p0 in (0.5, 2.0, 3.5):
            lhs = retarded_part_central(combo, p0)
            rhs = a * retarded_part_central(d1, p0) + b * retarded_part_central(d2, p0)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


class TestAdvancedPart:
    def test_zero_distribution(self):
        assert advanced_part(ZERO_DIST, 2.0) == 0.0

    def test_subtraction_identity_on_support(self):
        d = make_core()
        a = advanced_part(d, 2.0)
        assert abs(a.imag + 27.0 / 32.0) < 1e-12  # Im a = Im r - g(2)

    def test_gap_equals_retarded(self):
        d = make_core()
        assert advanced_part(d, 0.5) == retarded_part_central(d, 0.5)

    def test_jump_condition_via_mirrored(self):
        # r - a = d with a recomputed independently from 1/(p0 - k - i0)
        d = make_core()
        for p0 in (1.5, 2.0, -3.0, 4.5):
            r = retarded_part_central(d, p0)
            a = advanced_part_mirrored(d, p0)
            jump = r - a
            expect = complex(d.evaluate(np.array([p0]))[0])
            assert abs(jump - expect) < 1e-9 * max(1.0, abs(expect))
        # in the gap both prescriptions agree and the jump vanishes
        p0 = 0.5
        assert abs(retarded_part_central(d, p0) - advanced_part_mirrored(d, p0)) < 1e-10


class TestShifted:
    def test_q_zero_matches_central(self):
        d = make_core()
        for p0 in (0.5, 2.0, -2.5):
            assert retarded_part_shifted(d, p0, 0.0) == retarded_part_central(d, p0)

    def test_on_support_q_rejected(self):
        with pytest.raises(SupportError):
            retarded_part_shifted(make_core(), 2.0, 1.5)

    def test_imaginary_part_independent_of_q(self):
        d = make_core()
        r = retarded_part_shifted(d, 2.0, 0.5)
        assert abs(r.imag - 27.0 / 32.0) < 1e-12

    def test_difference_is_degree_two_polynomial(self):
        d = make_core()
        central = make_retarded_central(d)
        shifted = make_retarded_shifted(d, 0.5)
        res = polynomial_residual(central, shifted, [1.5, 2.0, 3.0, 4.0, 5.0])
        assert res.max_abs_deviation <= 1e-8
        assert len(res.coefficients) == 3

    def test_subtraction_ambiguity_across_q_and_denser_grid(self):
        d = make_core()
        central = make_retarded_central(d)
        grid = np.concatenate([np.linspace(-5.0, -1.1, 6), np.linspace(1.1, 5.0, 8)])
        for q in (-0.7, 0.3, 0.9):
            shifted = make_retarded_shifted(d, q)
            res = polynomial_residual(central, shifted, grid)
            assert res.max_abs_deviation <= 1e-8


class TestPolynomialResidual:
    def test_identical_parts(self):
        d = make_core()
        central = make_retarded_central(d)
        res = polynomial_residual(central, central, [1.5, 2.0, 3.0, 4.0])
        assert res.max_abs_deviation == 0.0
        assert all(c == 0.0 for c in res.coefficients)

    def test_constructed_offset_orientation(self):
        # rB = rA + 3u^2 - 1  =>  rA - rB = 1 - 3u^2: c0 = +1, c2 = -3
        d = make_core()
        central = make_retarded_central(d)

        def offset_eval(p0):
            return central.evaluate(p0) + 3.0 * p0 ** 2 - 1.0

        offset = type(central)(evaluate=offset_eval, source=d, subtraction_point=0.0)
        res = polynomial_residual(central, offset, [1.5, 2.0, 2.5, 3.0, 4.0])
        assert res.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert res.coefficients[1] == pytest.approx(0.0, abs=1e-9)
        assert res.coefficients[2] == pytest.approx(-3.0, abs=1e-9)
        assert res.max_abs_deviation < 1e-9

    def test_grid_size_rejected(self):
        d = make_core()
        central = make_retarded_central(d)
        with pytest.raises(ValueError):
            polynomial_residual(central, central, [1.5, 2.0, 3.0])


class TestValidation:
    def test_core_passes(self):
        validate_distribution(make_core())

    def test_gap_violation_caught(self):
        bad = CausalDistribution1D(
            evaluate=lambda k: np.ones_like(np.asarray(k, dtype=float), dtype=complex),
            singular_order=2, k_min=1.0, parity="none", large_k_growth=0)
        with pytest.raises(SupportError):
            validate_distribution(bad)

    def test_parity_violation_caught(self):
        bad = CausalDistribution1D(
            evaluate=lambda k: 1j * np.abs(core_g(k)),
            singular_order=2, k_min=1.0, parity="odd", large_k_growth=2)
        with pytest.raises(ValueError):
            validate_distribution(bad)

    def test_growth_must_not_exceed_order(self):
        with pytest.raises(ValueError):
            CausalDistribution1D(evaluate=lambda k: k, singular_order=1,
                                 k_min=1.0, parity="odd", large_k_growth=2)
