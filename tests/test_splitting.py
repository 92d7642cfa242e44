import numpy as np
import pytest

from causalatom.errors import BranchPointError, SupportError
from causalatom.splitting import CausalDistribution1D, polynomial_residual, split


def core_g(k):
    """theta(k^2-1) sgn(k) (k^2-1)^3 / k^4, written large-k stable."""
    k = np.asarray(k, dtype=float)
    out = np.zeros_like(k)
    m = k * k > 1.0
    km = k[m]
    out[m] = np.sign(km) * km * km * (1.0 - 1.0 / (km * km)) ** 3
    return out


def odd_distribution(g, k_min=1.0):
    """The distribution i g of an odd g, with its kernel g(k)/k^3 formed from g."""
    return CausalDistribution1D(g=g, kernel=lambda k: g(k) / (k * k * k), k_min=k_min)


def make_core(scale=1.0):
    return odd_distribution(lambda k: scale * core_g(k))


def at(d, p0, q=0.0, pole_sign=1.0):
    """split at one point, as a complex."""
    return complex(split(d, [p0], q, pole_sign=pole_sign)[0][0])


def advanced(d, p0):
    """The advanced part a = r - d."""
    return at(d, p0) - 1j * float(d.g(np.array([p0]))[0])


ZERO_DIST = odd_distribution(lambda k: np.zeros_like(np.asarray(k, dtype=float)))


class TestRetardedCentral:
    def test_zero_distribution(self):
        for p0 in (0.3, 2.0, -4.0):
            assert at(ZERO_DIST, p0) == 0.0

    def test_pole_term_identity_at_two(self):
        # Sokhotski-Plemelj: (i/2pi)(-i pi) d(p0) = d(p0)/2, so
        # Im r(2) = g(2)/2 = (27/16)/2 = 27/32
        r = at(make_core(), 2.0)
        assert abs(r.imag - 27.0 / 32.0) < 1e-12
        assert r.imag == pytest.approx(0.84375, abs=1e-12)

    def test_gap_point_is_real(self):
        r = at(make_core(), 0.5)
        assert r.imag == 0.0

    def test_negative_support_point(self):
        # d odd and imaginary: Im r(-2) = -i d(-2)/2 = -g(2)/2
        r = at(make_core(), -2.0)
        assert abs(r.imag + 27.0 / 32.0) < 1e-12

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointError):
            at(make_core(), 1.0 + 1e-12)
        with pytest.raises(BranchPointError):
            at(make_core(), -1.0)

    def test_scalar_point_is_a_one_point_grid(self):
        d = make_core()
        for p0 in (2.0, 0.5):   # on the support and in the gap
            for alone, grid in zip(split(d, p0), split(d, [p0])):
                assert alone.shape == (1,) and alone.dtype == grid.dtype
                assert alone.tobytes() == grid.tobytes()
        with pytest.raises(BranchPointError) as alone:
            split(d, 1.0)
        with pytest.raises(BranchPointError) as grid:
            split(d, [1.0])
        assert str(alone.value) == str(grid.value)

    def test_origin_decay(self):
        # gap-supported d: r(p0) = O(p0^(omega+1)) near the origin; for the
        # odd core the subtraction integral vanishes at 0 by parity, so the
        # decay is at least cubic (here one power better).
        d = make_core()
        r1 = at(d, 0.2)
        r2 = at(d, 0.1)
        assert abs(r2) / abs(r1) <= 0.5 ** 3 * 1.05
        assert at(d, 0.0) == 0.0

    @pytest.mark.parametrize("p0", [3.1332170854271357, -3.1332170854271357,
                                    3.1333286432160805])
    def test_pole_fold_band(self, p0):
        # here the folded principal-value integral crosses zero, so a purely
        # relative target asks for accuracy below rounding noise; at an
        # SI-sized scale the 1e-14 absolute floor does not stop the bisection
        # either, and it used to refine until a node landed on the pole
        scale = 1e22
        r = at(make_core(scale), p0)
        x = p0 * p0 - 1.0
        # 2 pi Re r = the symmetrized bracket at C = 0; Im r = core(p0)/2
        re_expected = scale * (-x ** 3 * np.log(x) / p0 ** 4 + 1.0 / p0 ** 2 - 2.5
                               + 11.0 * p0 ** 2 / 6.0) / (2.0 * np.pi)
        assert r.real == pytest.approx(re_expected, rel=1e-11)
        im_expected = scale * core_g(np.array([p0]))[0] / 2.0
        assert r.imag == pytest.approx(im_expected, rel=1e-14)

    def test_linearity(self):
        d1 = make_core(1.0)
        d2 = odd_distribution(
            lambda k: np.where(np.abs(k) > 1.0, np.sign(k) / (k ** 2 + (np.abs(k) <= 1.0)), 0.0))
        a, b = 2.5, -1.25
        combo = odd_distribution(lambda k: a * d1.g(k) + b * d2.g(k))
        for p0 in (0.5, 2.0, 3.5):
            lhs = at(combo, p0)
            rhs = a * at(d1, p0) + b * at(d2, p0)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


class TestAdvancedPart:
    def test_zero_distribution(self):
        assert advanced(ZERO_DIST, 2.0) == 0.0

    def test_subtraction_identity_on_support(self):
        d = make_core()
        a = advanced(d, 2.0)
        assert abs(a.imag + 27.0 / 32.0) < 1e-12  # Im a = Im r - g(2)

    def test_gap_equals_retarded(self):
        d = make_core()
        assert advanced(d, 0.5) == at(d, 0.5)

    def test_jump_condition_via_mirrored(self):
        # r - a = d with a recomputed independently from 1/(p0 - k - i0)
        d = make_core()
        for p0 in (1.5, 2.0, -3.0, 4.5):
            r = at(d, p0)
            a = at(d, p0, pole_sign=-1.0)
            jump = r - a
            expect = 1j * float(d.g(np.array([p0]))[0])
            assert abs(jump - expect) < 1e-9 * max(1.0, abs(expect))
        # in the gap both prescriptions agree and the jump vanishes
        p0 = 0.5
        assert abs(at(d, p0) - at(d, p0, pole_sign=-1.0)) < 1e-10


class TestShifted:
    def test_q_zero_matches_central(self):
        d = make_core()
        for p0 in (0.5, 2.0, -2.5):
            assert at(d, p0, 0.0) == at(d, p0)

    def test_on_support_q_rejected(self):
        with pytest.raises(SupportError):
            at(make_core(), 2.0, 1.5)

    def test_imaginary_part_independent_of_q(self):
        d = make_core()
        r = at(d, 2.0, 0.5)
        assert abs(r.imag - 27.0 / 32.0) < 1e-12

    def test_difference_is_degree_two_polynomial(self):
        d = make_core()
        res = polynomial_residual(d, 0.5, [1.5, 2.0, 3.0, 4.0, 5.0])
        assert res.max_abs_deviation <= 1e-8
        assert len(res.coefficients) == 3

    def test_subtraction_ambiguity_across_q_and_denser_grid(self):
        d = make_core()
        grid = np.concatenate([np.linspace(-5.0, -1.1, 6), np.linspace(1.1, 5.0, 8)])
        for q in (-0.7, 0.3, 0.9):
            res = polynomial_residual(d, q, grid)
            assert res.max_abs_deviation <= 1e-8


class TestPolynomialResidual:
    def test_identical_parts(self):
        # subtracting about q = 0 is the central part, bit for bit
        res = polynomial_residual(make_core(), 0.0, [1.5, 2.0, 3.0, 4.0])
        assert res.max_abs_deviation == 0.0
        assert all(c == 0.0 for c in res.coefficients)

    def test_orientation_is_central_minus_shifted(self):
        # the coefficients are the fit of central - shifted, not of its
        # negative: pinned against the difference formed here
        d = make_core()
        grid = [1.5, 2.0, 2.5, 3.0, 4.0]
        diff = [(at(d, x) - at(d, x, 0.5)).real for x in grid]
        fit, *_ = np.linalg.lstsq(np.vander(grid, 3, increasing=True), diff, rcond=None)
        res = polynomial_residual(d, 0.5, grid)
        assert res.coefficients == tuple(fit.tolist())
        assert all(abs(c) > 1e-3 for c in res.coefficients)

    def test_q_on_support_refused_before_integrating(self):
        calls = []
        d = odd_distribution(lambda k: calls.append(1) or core_g(k))
        with pytest.raises(SupportError):
            polynomial_residual(d, 1.5, [1.5, 2.0, 3.0, 4.0])
        assert calls == []

    def test_grid_size_rejected(self):
        with pytest.raises(ValueError):
            polynomial_residual(make_core(), 0.5, [1.5, 2.0, 3.0])


class TestFields:
    @pytest.mark.parametrize("k_min", [0.0, -0.0, -1.0, float("nan")])
    def test_support_touching_the_origin_rejected(self, k_min):
        # the subtraction kernel is regular only if the support excludes
        # k = 0; refused here, split never meets it
        with pytest.raises(ValueError, match="support must exclude k = 0"):
            odd_distribution(core_g, k_min)
