import math

import mpmath
import numpy as np
import pytest

from causalatom.errors import SingularPointError
from causalatom.observables import (NORMALIZATION_EXACT, NormalizationConstants, _sym_bracket,
                                    hydrogen_1s2p_preset, r2_prefactor)
from causalatom.selfenergy import (
    DISTRIBUTION,
    _bracket_term_scale,
    _core,
    r2_tilde_closed,
    split_check_report,
    split_grid,
    sym_bracket,
    t2_bracket_slope,
)
from causalatom.splitting import split


@pytest.fixture(scope="module")
def atom():
    return hydrogen_1s2p_preset()


C0 = NormalizationConstants()


def r2prime(u: float) -> complex:
    """The second normal-ordering term at real u: half of DISTRIBUTION,
    i pi (u^2-1)^3/u^4, on u < -1, and 0 elsewhere."""
    return 0.5j * float(DISTRIBUTION.g(np.array([u]))[0]) if u < -1.0 else 0j


class TestR2Closed:
    def test_imaginary_part_at_two(self):
        v = r2_tilde_closed(2.0)
        assert v.imag == pytest.approx(2.0 * math.pi * 27.0 / 32.0, rel=1e-13)

    def test_parity(self):
        plus = r2_tilde_closed(2.0)
        minus = r2_tilde_closed(-2.0)
        assert minus.real == pytest.approx(plus.real, rel=1e-13)
        assert minus.imag == pytest.approx(-plus.imag, rel=1e-13)

    def test_gap_point_real(self):
        assert r2_tilde_closed(0.5).imag == 0.0

    def test_singular_points(self):
        for u in (0.0, 1.0, -1.0):
            with pytest.raises(SingularPointError):
                r2_tilde_closed(u)

    def test_parts_sum_to_total(self):
        # log, step, pole and polynomial terms written out at u = 1.7
        x = 1.7 ** 2 - 1.0
        front = x ** 3 / (2 * 1.7 ** 4)
        parts = (-2.0 * front * math.log(x) + 2j * math.pi * front
                 + 1.0 / (2 * 1.7 ** 2) - 1.25 + 11.0 * 1.7 ** 2 / 12.0)
        assert r2_tilde_closed(1.7) == pytest.approx(parts, rel=1e-14)

    def test_pole_term_consistency_with_distribution(self):
        # Im of the closed form on support equals d/(2i) = g/2, the pole term
        # of the splitting of DISTRIBUTION, d = i g
        for u in (1.5, 2.0, 3.0):
            lhs = r2_tilde_closed(u).imag
            rhs = float(DISTRIBUTION.g(np.array([u]))[0]) / 2.0
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_real_analytic_away_from_singular_points(self):
        # Richardson-extrapolated central differences at two base steps agree
        f = r2_tilde_closed

        def richardson(h):
            d1 = (f(2.0 + h) - f(2.0 - h)) / (2 * h)
            d2 = (f(2.0 + h / 2) - f(2.0 - h / 2)) / h
            return (4 * d2 - d1) / 3.0

        a = richardson(1e-3)
        b = richardson(5e-4)
        assert abs(a - b) / abs(a) < 1e-8


def bits(values):
    """Values as raw words, so signed zeros and last bits count."""
    return np.asarray(values, dtype=complex).view(np.uint64)


def checker_r2(u):
    """r2_tilde_closed as a direct float evaluation of the formula, a loop
    over the points: x = u u - 1 and libm's log."""
    out = []
    for v in u:
        x = v * v - 1.0
        front = x ** 3 / (2.0 * v ** 4)
        im = front * 2.0 * math.pi * math.copysign(1.0, v) if x > 0.0 else 0.0
        re = front * (-2.0 * math.log(abs(x))) + 1.0 / (2.0 * v * v) - 1.25 + 11.0 * v * v / 12.0
        out.append(complex(re, im))
    return np.array(out)


class TestR2ClosedVectorized:
    """r2_tilde_closed and split-check's re_closed, im_closed in one array pass."""

    U = np.concatenate([np.linspace(-5.0, -1.05, 40), np.linspace(-0.95, 0.95, 20),
                        np.linspace(1.05, 5.0, 40), [1e-70, 3.1333, 1e50, -1e50]])

    def test_array_equals_scalar_calls(self):
        batch = r2_tilde_closed(self.U)
        assert batch.shape == self.U.shape
        assert (bits(batch) == bits([r2_tilde_closed(float(x)) for x in self.U])).all()
        assert all(type(r2_tilde_closed(float(x))) is complex for x in self.U[:3])

    def test_point_alone_or_in_any_batch(self):
        batch = r2_tilde_closed(self.U)
        order = np.random.default_rng(5).permutation(self.U.size)
        assert (bits(r2_tilde_closed(self.U[order])) == bits(batch[order])).all()
        for j in range(0, self.U.size, 7):
            assert (bits(r2_tilde_closed(self.U[j:j + 1])) == bits(batch[j:j + 1])).all()

    @pytest.mark.parametrize("lo, hi", [(0.1, 0.9), (0.2, 0.8), (1.05, 3.1), (-3.1, -1.05),
                                        (3.1330, 3.1336)])
    def test_columns_match_the_direct_formula(self, lo, hi):
        u = np.linspace(lo, hi, 400)
        rep = split_check_report(u)
        ref = checker_r2(u.tolist())
        bound = 4e-16 * np.abs(ref).max()
        assert np.abs(rep.re_closed - ref.real).max() <= bound
        assert np.abs(rep.im_closed - ref.imag).max() <= bound
        assert (bits(rep.re_closed + 1j * rep.im_closed) == bits(r2_tilde_closed(u))).all()


# the bad points of the closed forms, each with what is raised for it
BAD_POINTS = [
    (0.0, "closed form singular at u = 0.0 (u in {0, +-1})"),
    (-1.0, "closed form singular at u = -1.0 (u in {0, +-1})"),
    (1.0 - 5e-15, "closed form singular at u = 0.999999999999995 (u in {0, +-1})"),
    (1e-80, "closed form leaves the float range at u = 1e-80"),
    # u^4 is subnormal: as products it lets x^3/(2u^4) stay finite, as
    # numpy's power it rounds lower and the front term overflows
    (7.262123179505771e-78, "closed form leaves the float range at u = 7.262123179505771e-78"),
    (1e308, "closed form leaves the float range at u = 1e+308"),
]


class TestClosedFormGuard:
    """One array check refuses the first point in grid order at which a closed
    form cannot be evaluated, for every entry that evaluates one."""

    @pytest.mark.parametrize("first", range(len(BAD_POINTS)))
    def test_first_bad_point_in_grid_order(self, first):
        bad = BAD_POINTS[first:] + BAD_POINTS[:first]
        grid = [2.0, -0.5]
        for value, _ in bad:
            grid += [value, 1.5]
        message = bad[0][1]
        for evaluate in (sym_bracket, r2_tilde_closed, split_check_report):
            with pytest.raises(SingularPointError) as exc:
                evaluate(np.array(grid))
            assert str(exc.value) == message

    @pytest.mark.parametrize("value, message", BAD_POINTS)
    def test_each_entry_names_the_point(self, value, message):
        for evaluate in (sym_bracket, r2_tilde_closed,
                         lambda u: split_grid(u, 2.0, 5), lambda u: split_grid(2.0, u, 5)):
            with pytest.raises(SingularPointError) as exc:
                evaluate(value)
            assert str(exc.value) == message


class TestT2Sym:
    """The symmetrized bracket B(u; C) at real u (sym_bracket), in bracket units."""

    def test_gap_value_direct_arithmetic(self):
        # u = 1/2, C = 0: bracket = 6.75 ln(3/4) + 4 - 5/2 + 11/24 (no step)
        v = complex(sym_bracket(0.5, C0))
        expect = 6.75 * math.log(0.75) + 4.0 - 2.5 + 11.0 / 24.0
        assert v.imag == 0.0
        assert v.real == pytest.approx(expect, rel=1e-13)

    def test_imaginary_half_of_r2(self):
        for u in (1.5, 2.0, 3.0):
            t = complex(sym_bracket(u, C0)).imag
            r = r2_tilde_closed(u).imag
            assert t == pytest.approx(r, rel=1e-13)

    def test_polynomial_linearity(self):
        base = complex(sym_bracket(1.7, C0))
        shifted = complex(sym_bracket(1.7, NormalizationConstants(1.0, 0.0, 0.0)))
        assert shifted - base == pytest.approx(1.0, rel=1e-12)

    def test_singular_points(self):
        for u in (0.0, 1.0, -1.0):
            with pytest.raises(SingularPointError):
                sym_bracket(u)
        with pytest.raises(SingularPointError):
            sym_bracket(np.array([2.0, -1.0]))

    def test_takes_u_or_d(self):
        # with d given, u is 1 + d: the two cannot disagree
        for args in ({}, {"u": 2.0, "d": 1.0}):
            with pytest.raises(TypeError):
                sym_bracket(**args)

    def test_signed_step_and_vectorized(self):
        u = np.array([-2.0, -0.5, 0.5, 2.0])
        b = sym_bracket(u, C0)
        assert b.shape == u.shape
        assert b[0] == np.conj(b[3])  # Re B even, Im B odd on the support
        assert b[1] == b[2] and b[1].imag == 0.0

    def test_symmetrization_identity_imaginary(self, atom):
        # (1/2)[r2(u) - r2'(u) + r2(-u) - r2'(-u)] has the imaginary part of
        # r2_prefactor/2 * B, with r2 and r2' in SI
        pref = r2_prefactor(atom)
        for u in (1.5, 2.0, 3.0):
            sym = 0.5 * pref * (r2_tilde_closed(u) - r2prime(u)
                                + r2_tilde_closed(-u) - r2prime(-u))
            b = complex(sym_bracket(u, C0))
            assert sym.imag == pytest.approx(pref / 2 * b.imag, rel=1e-12)

    def test_symmetrization_real_offset_is_the_log_term(self, atom):
        # the real offset between the symmetrized pair and r2_prefactor/2 * B is
        # exactly one closed-form log term (not a polynomial)
        us = np.linspace(1.2, 4.0, 12)
        pref = r2_prefactor(atom)
        t2_pref = pref / 2
        offs = []
        for u in us:
            sym = 0.5 * pref * (r2_tilde_closed(u) - r2prime(u)
                                + r2_tilde_closed(-u) - r2prime(-u))
            offs.append((sym - t2_pref * complex(sym_bracket(u, C0))).real)
        offs = np.array(offs)
        x = us * us - 1.0
        logterm = -x ** 3 / us ** 4 * np.log(x) * t2_pref
        assert np.allclose(offs, logterm, rtol=1e-10)
        v = np.vander(us, 3, increasing=True)
        coef, *_ = np.linalg.lstsq(v, offs / t2_pref, rcond=None)
        dev = np.abs(offs / t2_pref - v @ coef).max()
        assert dev > 1e-3  # genuinely not a degree-2 polynomial

    def test_resonant_form_matches_direct(self):
        # the Z integral's call, with d = u - 1 held exactly, against the
        # d that sym_bracket reads from u itself, which rounds 1 + du
        c = NormalizationConstants(1.2, -0.4, 3.0)
        for du in (1e-3, 1e-2, 5e-2):
            direct = complex(sym_bracket(1.0 + du, c))
            res = complex(sym_bracket(c=c, d=du))
            assert res == pytest.approx(direct, rel=1e-11)

    def test_resonant_form_stable_at_tiny_delta(self):
        # no cancellation: the bracket's log term matches ln(du) + ln(2+du)
        du = 1e-14
        b = complex(sym_bracket(c=C0, d=du))
        x = du * (2 + du)
        front = x ** 3 / 2.0
        expected_log = front * (-2.0 * (math.log(du) + math.log(2 + du)))
        rational = 1.0 / (1 + du) ** 2 - 2.5 + 11.0 * (1 + du) ** 2 / 6.0
        assert b.real == pytest.approx(expected_log + rational, rel=1e-12)
        assert b.imag == pytest.approx(front * 2 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("d", [-3.0, -2.5, -2.001, -2.0 - 1e-9, -35.0])
    def test_held_d_takes_the_signed_step(self, d):
        # the Z bins reach u = 1 + d < 0 (u ~ -6 at delta_u = 1e-2 with 10
        # periods): there B has the step -2 pi i, as at the same u read alone
        for c in (C0, NORMALIZATION_EXACT):
            held = complex(sym_bracket(c=c, d=d))
            assert held == pytest.approx(complex(sym_bracket(1.0 + d, c)), rel=1e-15)
            assert held.imag < 0.0
        # u = -2: Im B = -2 pi (3/2)^3/4, whatever C
        assert complex(sym_bracket(c=NORMALIZATION_EXACT, d=-3.0)).imag == pytest.approx(
            -math.pi * 27 / 16, rel=1e-15)

    def test_each_point_alone_or_in_a_batch(self):
        # each form runs on its own points of a mixed batch, bit for bit as
        # alone, and without a float warning at the ends of the accepted range
        # (about 1.22e-77 and 2.38e51) and at 2^-126, where |u| - 1 rounds to -1
        ends = [1.221338669755462e-77, 2.3756689782295768e+51, 1.1754943508222875e-38]
        u = np.array([-1e50, -3.0, -1.001, -0.9, -0.5, 1e-12, 0.7, 0.999, 1.0 + 2e-10, 2.0,
                      *ends, *(-v for v in ends)])
        for c in (C0, NORMALIZATION_EXACT):
            batch = sym_bracket(u, c)
            assert (bits(batch) == bits([complex(sym_bracket(float(v), c)) for v in u])).all()

    @pytest.mark.parametrize("c, held, far, near", [
        (NORMALIZATION_EXACT, 1e-15, 1e-15, 5e-16), (C0, 6.7e-16, 1.5e-15, 5e-16),
        (NormalizationConstants(1.2, -0.4, 3.0), 1e-15, 1e-15, 5e-16),
        # one ulp off the exact triple: B ~ 1.2e-15 at du = 1e-9, of which
        # 2.96e-16 is the amount by which fl(-29/6) misses -29/6
        (NormalizationConstants(-3.5, 8.0, math.nextafter(-29 / 6, 0)), 1e-15, 1e-15, 5e-16)])
    @pytest.mark.parametrize("u, du", [
        *((1.0 + du, du) for du in (1e-9, hydrogen_1s2p_preset().delta_u, 1e-6, 1e-4,
                                    1e-3, 1e-2, 5e-2)),
        *((s * u, None) for s in (1.0, -1.0) for u in (
            1e-12, 1e-6, 0.01, 0.5, math.nextafter(math.sqrt(0.5), 0.0), math.sqrt(0.5),
            0.9, 0.999, 1.0 - 1e-6, 1.0 - 2e-10, 1.0 + 2e-10, 1.001, 1.05, 2.0, 3.1333,
            1e3, 1e10, 1e30, 1e50))])
    def test_resonant_form_against_60_digits(self, c, held, far, near, u, du):
        # B against the rational form _sym_bracket in 60 digits, with the
        # step 2 pi i sgn(u) on the support: on both signs of u, on both sides
        # of |u| = 1 and for |u| from 1e-12 to 1e50.  NORMALIZATION_EXACT
        # stands for C_exact = (-7/2, 8, -29/6), at which B is O(d^3 ln d) at
        # |u| = 1 + d: at d = 1e-9 its rational part is 1e-27, from O(1)
        # terms.  From |u| = 1/sqrt 2 on the error is relative to B (at
        # u = 1 + du, du held exactly as the Z integral holds it, within
        # ``held``, and dB/du too); below it, where B's 1/u^2 terms cancel,
        # relative to the sum of the term magnitudes.  Measured at these
        # points: at most 7.3e-16 at C_exact, 1.4e-15 at C = 0 (at 1/sqrt 2)
        # and 1.4e-16 of the terms below 1/sqrt 2, 3.65e-16 over 600
        # log-spaced |u| from 1e-12 to 1/sqrt 2, either sign
        def bracket(v):
            x = v * v - 1
            step = 2j * mpmath.pi * mpmath.sign(v) if x > 0 else 0
            return _sym_bracket(v, x, mpmath.log(abs(x)), step, ref_c)

        with mpmath.workdps(60):
            ref_c = (NormalizationConstants(mpmath.mpf(-7) / 2, 8, mpmath.mpf(-29) / 6)
                     if c == NORMALIZATION_EXACT else c)
            at = mpmath.mpf(u) if du is None else 1 + mpmath.mpf(du)
            ref, ref_slope = map(complex, mpmath.diffs(bracket, at, 1))
        got = complex(sym_bracket(u, c) if du is None else sym_bracket(c=c, d=du))
        if abs(u) >= math.sqrt(0.5):
            assert abs(got - ref) <= (far if du is None else held) * abs(ref), (got, ref)
        else:
            terms = (_bracket_term_scale(u) + abs(c.c0) + abs(c.c1 * u) + abs(c.c2 * u * u))
            assert abs(got - ref) <= near * terms, (got, ref)
        if du is not None:
            slope = complex(t2_bracket_slope(du, c))
            assert abs(slope - ref_slope) <= 2e-15 * abs(ref_slope), (slope, ref_slope)


class TestCore:
    """_core, theta(u^2-1) sgn(u) (u^2-1)^3/u^4, without a mask or numpy's power."""

    def test_zero_off_the_support(self):
        u = np.array([0.0, -0.0, 1e-300, 0.5, -0.5, np.nextafter(1.0, 0.0), 1.0, -1.0])
        assert (_core(u) == 0.0).all()   # +0 and -0 both pass

    def test_no_float_trap_at_the_singular_points(self):
        with np.errstate(all="raise"):
            assert (_core(np.array([0.0, 1.0, -1.0])) == 0.0).all()

    def test_nan_propagates(self):
        assert np.isnan(_core(np.array([np.nan, 2.0]))).tolist() == [True, False]

    def test_odd_and_exact_at_two(self):
        # (u^2-1)^3/u^4 = 27/16 at u = 2, every step exact in binary
        assert _core(np.array([2.0, -2.0])).tolist() == [27.0 / 16.0, -27.0 / 16.0]

    def test_within_four_eps_of_high_precision(self):
        u = np.geomspace(1.5, 1e150, 300)
        u = np.concatenate([u, -u])
        with mpmath.workdps(60):
            ref = np.array([float(mpmath.sign(v) * (v * v - 1) ** 3 / v ** 4)
                            for v in map(mpmath.mpf, u.tolist())])
        assert (np.abs(_core(u) - ref) <= 4 * np.finfo(float).eps * np.abs(ref)).all()


class TestWrappedDistribution:
    def test_invariants(self):
        # sampled: zero throughout the gap, odd on the support
        g = DISTRIBUTION.g
        rng = np.random.RandomState(0)
        assert np.all(g(rng.uniform(-0.999, 0.999, 64)) == 0)
        k = rng.uniform(1.01, 11.0, 64)
        assert np.array_equal(g(-k), -g(k))

    def test_odd_bit_for_bit(self):
        # the dispersion integral reads g at k > 0 alone and takes the other
        # side from g(-k) = -g(k); signed zeros in the gap included
        support = np.geomspace(np.nextafter(1.0, 2.0), 1e150, 400)
        k = np.concatenate([[0.0, 5e-324, 0.5, 1.0], support])
        assert np.array_equal(DISTRIBUTION.g(-k).view(np.uint64),
                              (-DISTRIBUTION.g(k)).view(np.uint64))

    def test_kernel_is_g_over_k_cubed(self):
        # within 4 ulp of g(k)/k^3, the quotient of g's floats rounded once,
        # and exactly 0 below k_min
        k = np.geomspace(1.0, 1e150, 2000)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.mpf(g) / mpmath.mpf(v) ** 3)
                            for g, v in zip(DISTRIBUTION.g(k).tolist(), k.tolist())])
        assert (np.abs(DISTRIBUTION.kernel(k) - ref) <= 4 * np.spacing(np.abs(ref))).all()
        gap = np.array([1e-300, 0.5, np.nextafter(1.0, 0.0)])
        assert (DISTRIBUTION.kernel(gap) == 0.0).all()

    def test_support_and_parity(self):
        g = DISTRIBUTION.g
        assert g(np.array([0.9]))[0] == 0.0
        v3 = g(np.array([3.0, -3.0]))
        assert v3[1] == -v3[0]

    def test_growth_exponent(self):
        # |d(u)|/u^2 approaches the asymptotic coefficient 2 pi
        g = DISTRIBUTION.g
        v100 = abs(g(np.array([100.0]))[0]) / 100.0 ** 2
        v1000 = abs(g(np.array([1000.0]))[0]) / 1000.0 ** 2
        asym = 2.0 * math.pi
        assert abs(v100 / asym - 1.0) < 0.1
        assert abs(v1000 / asym - 1.0) < 1e-3

    def test_value_at_two(self):
        # both normal-ordering terms: d = i 2 pi (u^2-1)^3/u^4
        d = 1j * DISTRIBUTION.g(np.array([2.0]))[0]
        assert d == pytest.approx(2j * math.pi * 27.0 / 16.0, rel=1e-15)

    def test_central_split_matches_closed_imaginary(self):
        for u in (1.2, 2.0, 4.0):
            num = split(DISTRIBUTION, [u], tol=1e-11)[0][0]
            closed = r2_tilde_closed(u)
            assert abs(num.imag - closed.imag) / abs(closed.imag) < 1e-12


class TestSplitCheckReport:
    def test_report_on_small_grid(self):
        u = np.array([1.3, 2.0, 3.0, 4.0, 5.0])
        rep = split_check_report(u, tol=1e-11)
        assert rep.im_rel_err.max() < 1e-10
        assert rep.re_rel_err.max() < 1e-10
        # r2_tilde_closed carries half of the bracket's rational part: the
        # real parts differ by 5/4 - 11u^2/12 - 1/(2u^2), which is not a
        # degree-2 polynomial
        gap = 1.25 - 11.0 * u ** 2 / 12.0 - 0.5 / u ** 2
        assert np.allclose(rep.re_closed - rep.re_numeric, gap, rtol=0.0, atol=1e-9)

    def test_input_unchanged_and_bits_repeat(self):
        # the integrand is formed in place: neither the grid nor a second
        # call may see it
        u = np.array([-3.0, -1.5, -0.5, 0.25, 1.2, 2.0, 7.0])
        kept = u.copy()
        first = split_check_report(u)
        assert np.array_equal(u, kept)
        second = split_check_report(u)
        for name in ("re_numeric", "im_numeric", "re_rel_err", "im_rel_err"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert first.quadrature_evaluations == second.quadrature_evaluations

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_small_u_real_part(self, sign):
        # ln|u^2 - 1| from log1p: u u - 1 alone read re_rel_err 1 at 1e-10
        rep = split_check_report(sign * np.geomspace(1e-12, 0.7, 40))
        assert rep.re_rel_err.max() <= 1e-15

    def test_large_u_real_part(self):
        # with QUADPACK's unscaled tail map a node reached t = 1 from |u| ~ 7.5e9
        rep = split_check_report([1e10, -1e10], tol=1e-11)
        assert rep.re_rel_err.max() <= 1e-8
        assert rep.im_rel_err.max() <= 1e-14
