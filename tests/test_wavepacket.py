import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from causalatom.errors import CausalAtomError
from causalatom.observables import (
    NORMALIZATION_EXACT,
    NormalizationConstants,
    _sym_bracket,
    atom_from_dict,
    hydrogen_1s2p_preset,
    synthetic_atom,
)
from causalatom.selfenergy import sym_bracket
from causalatom.wavepacket import (
    EDGE_SQUARED_INTEGRAL,
    MIN_RAMP_FRACTION,
    TestFunction,
    convergence_study,
    z_numerical,
)

C0 = NormalizationConstants()
# lengths are in units of lambda_bar_g, so one optical period of the atom is
# 2 pi / delta_u: 5.8e8 on hydrogen, 628 on synthetic:1e-2
HYDROGEN_PERIOD = 2 * math.pi / hydrogen_1s2p_preset().delta_u
# synthetic delta_u: the bracket formulas are scale-free in u and the
# physical 1e-8 separation is numerically pointless to resolve here
DELTA_U = 1e-2


def _pieces(g: TestFunction):
    """The rising edge, the plateau and the falling edge, on each of which g
    is smooth."""
    lo, hi = g.support
    return [(lo, 0.0), (0.0, g.plateau), (g.plateau, hi)]


def _quad(f, lo, hi, **kw):
    """scipy's QUADPACK over a scalar function of an array integrand."""
    return scipy.integrate.quad(lambda x: float(f(np.array([x]))[0]), lo, hi, limit=200,
                                **kw)[0]


def g_fourier(g: TestFunction, q: float) -> complex:
    """Fourier transform (1/sqrt(2pi)) int g(x) e^{iqx} dx at a single q
    (1/lambda_bar_g), with e^{iqx} as the weight of QUADPACK's oscillatory
    rule (qawo)."""
    lo, hi = g.support
    # absolute floor scaled to the support: deep sidelobes are tiny compared
    # with g~(0) ~ plateau and need not be resolved to 12 relative digits
    kw = {"wvar": q, "epsrel": 1e-12, "epsabs": 1e-14 * (hi - lo)}
    value = sum(complex(_quad(g.evaluate, a, b, weight="cos", **kw),
                        _quad(g.evaluate, a, b, weight="sin", **kw)) for a, b in _pieces(g))
    return value / math.sqrt(2 * math.pi)


class TestBump:
    def test_plateau_and_outside(self):
        g = TestFunction(1e4, 1e3)
        assert g.evaluate(np.array([0.5 * g.plateau]))[0] == 1.0
        assert g.evaluate(np.array([-1.01 * g.edge]))[0] == 0.0
        assert g.evaluate(np.array([g.plateau + 1.01 * g.edge]))[0] == 0.0

    def test_squared_integral_window(self):
        # the closed form against quadrature of g^2, at hydrogen's plateaus
        for ramp_fraction, n in itertools.product((0.1, 0.3), 10 ** np.arange(1, 7)):
            plateau = n * HYDROGEN_PERIOD
            g = TestFunction(plateau, 2 * ramp_fraction * plateau)
            val = g.squared_integral()
            assert g.plateau <= val <= g.plateau + g.edge
            r = sum(_quad(lambda x: g.evaluate(x) ** 2, a, b, epsrel=1e-13,
                          epsabs=1e-16 * g.plateau) for a, b in _pieces(g))
            assert abs(r - val) <= 1e-14 * val

    def test_smooth_in_range(self):
        g = TestFunction(1e4, 1e3)
        xs = np.linspace(*g.support, 500)
        vals = g.evaluate(xs)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals[xs <= 0.0]) >= -1e-15)  # monotone rise

    def test_bad_args(self):
        for plateau, edge in [(-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="plateau and edge must be positive"):
                TestFunction(plateau, edge)


class TestGFourier:
    def test_zero_frequency(self):
        g = TestFunction(1e4, 2e2)  # small edges: the integral ~ plateau
        val = g_fourier(g, 0.0)
        assert val.imag == pytest.approx(0.0, abs=1e-6 * abs(val.real))
        assert val.real == pytest.approx(g.plateau / math.sqrt(2 * math.pi), rel=0.05)

    def test_superpolynomial_decay(self):
        # C^6 edges: the transform falls like the inverse eighth power of
        # frequency once past the edge-kernel mainlobe.  (A hard 1e-8 bound
        # at q = 20/edge is unattainable for any edge confined to the
        # allowed width: window theory caps the attenuation there.)
        g = TestFunction(1e4, 2e3)
        near = abs(g_fourier(g, 0.0))
        r20 = abs(g_fourier(g, 40.0 / g.edge)) / near
        r40 = abs(g_fourier(g, 80.0 / g.edge)) / near
        assert r20 < 1e-6
        assert r40 < 1e-8
        assert r40 < r20 / 30.0  # much faster than quadratic decay

    def test_conjugate_symmetry(self):
        g = TestFunction(1e4, 2e3)
        q = 2.0 / g.plateau
        assert g_fourier(g, -q) == pytest.approx(np.conj(g_fourier(g, q)), rel=1e-10)


def at_resonance(d, c):
    """B(1 + d; C) with d held exactly, as the Z integral evaluates it."""
    return complex(sym_bracket(c=c, d=d))


def _z_integral_full_spectrum(delta_u, c_norm, g, n_fft, pad):
    """The Z integral over the full FFT spectrum: the complex transform with
    its phase e^{i q x0}, and the bracket at every q of np.fft.fftfreq."""
    from causalatom.selfenergy import sym_bracket   # as a test patches it

    two_pi = 2.0 * math.pi
    lo, hi = g.support
    margin = 0.02 * (hi - lo)
    x0 = lo - margin
    window = (hi - lo + 2 * margin) * pad
    dx = window / n_fft
    gx = g.evaluate(x0 + dx * np.arange(n_fft))
    q = two_pi * np.fft.fftfreq(n_fft, d=dx)
    gt = dx / math.sqrt(two_pi) * np.exp(1j * q * x0) * np.fft.ifft(gx) * n_fft
    weight = np.abs(gt) ** 2
    dq = two_pi / window
    z = np.sum(sym_bracket(c=c_norm, d=delta_u + q) * weight) * dq
    total = float(np.sum(weight) * dq)
    mean_q = float(np.sum(q * weight) * dq / total)
    var_q = float(np.sum((q - mean_q) ** 2 * weight) * dq / total)
    return complex(z), math.sqrt(max(var_q, 0.0))


# hydrogen, synthetic:1e-2 and the atom of a preset file
_Z_ATOMS = {
    "hydrogen": hydrogen_1s2p_preset,
    "synthetic": lambda: synthetic_atom(1e-2),
    "file": lambda: atom_from_dict({"m_g_kg": 1.6735575e-27, "omega_eg_rad_s": 1.5497e16,
                                    "d_eg_Cm": 6.3e-30, "t_g_s": 1.0}),
}


class TestHalfSpectrum:
    @pytest.mark.parametrize("name", sorted(_Z_ATOMS))
    def test_matches_full_spectrum(self, name):
        # the default plateau decades
        from causalatom import wavepacket as wp
        delta_u = _Z_ATOMS[name]().delta_u
        for n in (10, 100, 1000, 10000):
            plateau = n * 2 * math.pi / delta_u
            g = TestFunction(plateau, 0.2 * plateau)
            total, change, width_half = wp._z_integral_fft(delta_u, C0, g)
            z_half = at_resonance(delta_u, C0) * total + change
            z_full, width_full = _z_integral_full_spectrum(delta_u, C0, g, wp._N_FFT, wp._PAD)
            assert abs(z_half - z_full) <= 1e-14 * abs(z_full)
            assert abs(width_half - width_full) <= 1e-14 * width_full

    @pytest.mark.parametrize("signs", [(1,), (1, -1)])
    def test_nyquist_bin_counted_once_at_minus_half(self, monkeypatch, signs):
        # a bracket that is 1 at q = -N/2 (fftfreq's label for the Nyquist
        # bin), or at +-N/2, and 0 elsewhere picks out that bin's weight:
        # counted at +N/2 the first would read 0, counted at both the second
        # would double.  At NORMALIZATION_EXACT the bins carry all of the
        # change, and the moment terms vanish
        from causalatom import selfenergy, wavepacket as wp
        n_fft, pad, delta_u = 64, 1.6, DELTA_U
        period = 2 * math.pi / delta_u
        g = TestFunction(10 * period, 2 * period)
        lo, hi = g.support
        dx = (hi - lo) * 1.04 * pad / n_fft
        nyquist = 2 * math.pi * np.fft.fftfreq(n_fft, d=dx)[n_fft // 2]
        assert nyquist < 0

        def spike(c, d):
            off = np.asarray(d, dtype=float) - delta_u
            hit = sum(np.isclose(off, sign * nyquist, rtol=1e-12, atol=0.0) for sign in signs)
            return np.where(hit, 1.0 + 0j, 0j)

        monkeypatch.setattr(wp, "sym_bracket", spike)
        monkeypatch.setattr(selfenergy, "sym_bracket", spike)
        monkeypatch.setattr(wp, "_N_FFT", n_fft)
        monkeypatch.setattr(wp, "_PAD", pad)
        _, z_half, _ = wp._z_integral_fft(delta_u, NORMALIZATION_EXACT, g)
        z_full, _ = _z_integral_full_spectrum(delta_u, NORMALIZATION_EXACT, g, n_fft, pad)
        assert z_full != 0
        assert z_half == pytest.approx(z_full, rel=1e-12)

    def test_bins_below_zero_take_the_signed_step(self, monkeypatch):
        # at delta_u = 1e-2 with 10 periods the mirrored bins reach u ~ -6,
        # where B has the step -2 pi i, as at the same u read alone
        from causalatom import wavepacket as wp
        seen = []

        def spy(c, d):
            b = sym_bracket(c=c, d=d)
            seen.append((np.atleast_1d(1.0 + d), np.atleast_1d(b)))
            return b

        monkeypatch.setattr(wp, "sym_bracket", spy)
        plateau = 10 * 2 * math.pi / 1e-2
        wp._z_integral_fft(1e-2, C0, TestFunction(plateau, 0.2 * plateau))
        u, b = (np.concatenate(part) for part in zip(*seen))
        below = u < -1.0
        assert u.min() < -5.0
        assert (b[below].imag < 0.0).all()
        alone = sym_bracket(u[below], NORMALIZATION_EXACT)
        assert np.abs(b[below] - alone).max() <= 1e-14 * np.abs(alone).max()


class TestZNumerical:
    def test_converges_and_monotone(self):
        study = convergence_study(DELTA_U, C0, [10, 100, 1000])
        errs = [zc.rel_error for zc in study]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert errs[2] < 1e-6
        assert all(zc.regime_ok for zc in study)

    def test_hydrogen_error_at_rounding(self):
        # delta_u ~ 1e-8: the reduction error lies below double precision's
        # resolution of Z itself at every default plateau length
        study = convergence_study(hydrogen_1s2p_preset().delta_u, C0,
                                  [10, 100, 1000, 10000])
        assert all(zc.rel_error <= 1e-14 for zc in study)

    @pytest.mark.parametrize("ramp_fraction", [0.1, 0.3])
    def test_error_falls_as_inverse_square_plateau(self, ramp_fraction):
        # at a fixed ramp fraction each decade of plateau cuts rel_error 100-fold
        study = convergence_study(1e-3, C0, [10, 100, 1000, 10000], ramp_fraction)
        errs = [zc.rel_error for zc in study]
        assert all(99 <= a / b <= 101 for a, b in zip(errs, errs[1:])), errs

    def test_hydrogen_error_falls_as_inverse_square_plateau(self):
        # the bracket's change is summed without B's own rounding, so the
        # reduction error resolves on hydrogen too: 8.5e-18 at 10 periods
        study = convergence_study(hydrogen_1s2p_preset().delta_u, C0,
                                  [10, 100, 1000, 10000])
        errs = [zc.rel_error for zc in study]
        assert all(99 <= a / b <= 101 for a, b in zip(errs, errs[1:])), errs

    def test_error_is_the_window_mean_of_the_bracket_change(self):
        # rel_error is |<B> - B(u_res)| / |B(u_res)| over the FFT's |gt|^2;
        # z_numerical also carries the FFT's rounding of int |gt|^2 = int g^2,
        # so the two measures of the error agree to a few 1e-16
        period = 2 * math.pi / 1e-3
        for n in (10, 1000):
            g = TestFunction(n * period, 0.6 * n * period)
            zc = z_numerical(1e-3, C0, g)
            direct = abs(zc.z_numerical - zc.z_closed) / abs(zc.z_closed)
            assert abs(direct - zc.rel_error) <= 1e-15

    @pytest.mark.parametrize("c", [C0, NORMALIZATION_EXACT])
    @pytest.mark.parametrize("delta_u", [hydrogen_1s2p_preset().delta_u,
                                         synthetic_atom(1e-3).delta_u])
    def test_error_and_narrowness_from_the_bracket_derivatives(self, c, delta_u):
        # with <q^2> = int g'^2 / int g^2 the window's mean square offset,
        # rel_error ~ (1/2) |B''/B| <q^2> and narrowness = |B'/B| sqrt(<q^2>);
        # int g'^2 = 2 * 2.31/edge, as int_0^1 s'^2 = 924/400 for the sin^6
        # edge.  B, B' and B'' of the rational form _sym_bracket in 60
        # digits, at C_exact = (-7/2, 8, -29/6) for NORMALIZATION_EXACT
        def bracket(u):
            x = u * u - 1
            return _sym_bracket(u, x, mpmath.log(x), 2j * mpmath.pi, ref_c)

        with mpmath.workdps(60):
            ref_c = (NormalizationConstants(mpmath.mpf(-7) / 2, 8, mpmath.mpf(-29) / 6)
                     if c == NORMALIZATION_EXACT else c)
            b, slope, curvature = mpmath.diffs(bracket, 1 + mpmath.mpf(delta_u), 2)
            slope, curvature = float(abs(slope / b)), float(abs(curvature / b))
        periods = [10, 100, 1000, 10000]
        study = convergence_study(delta_u, c, periods, 0.1)
        for n, zc in zip(periods, study):
            plateau = n * 2 * math.pi / delta_u
            g = TestFunction(plateau, 0.2 * plateau)
            mean_square = 2 * 2.31 / g.edge / g.squared_integral()
            assert abs(zc.narrowness / (slope * math.sqrt(mean_square)) - 1) <= 1e-12
            if n >= 100:
                assert abs(zc.rel_error / (0.5 * curvature * mean_square) - 1) <= 1e-3
        # at C_exact |B'/B| ~ 3/delta_u: 10 periods are a wide window
        # (narrowness 0.208 on hydrogen), 100 are not
        assert [zc.regime_ok for zc in study] == [c == C0, True, True, True]

    def test_large_plateau_error(self):
        study = convergence_study(DELTA_U, C0, [10 ** 6])
        assert study[0].rel_error <= 1e-2

    @pytest.mark.parametrize("periods, ramp_fraction, message", [
        ([10, 0], 0.1, "plateau_periods must be >= 1, got 0"),
        ([-3], 0.1, "plateau_periods must be >= 1, got -3"),
        ([10], 0.0, "ramp_fraction must be finite and > 0, got 0.0"),
        ([10], math.inf, "ramp_fraction must be finite and > 0, got inf"),
        ([10], math.nan, "ramp_fraction must be finite and > 0, got nan"),
        # the next float below the narrowest ramp the FFT grid resolves
        ([10], math.nextafter(MIN_RAMP_FRACTION, 0.0),
         f"ramp_fraction must be >= {MIN_RAMP_FRACTION!r} (57 FFT samples per edge of the "
         f"Z integral), got {math.nextafter(MIN_RAMP_FRACTION, 0.0)!r}"),
    ])
    def test_bad_arguments_refused_before_any_integral(self, monkeypatch, periods,
                                                       ramp_fraction, message):
        from causalatom import wavepacket as wp

        def fft(*args):
            raise AssertionError("a Z integral ran")
        monkeypatch.setattr(wp, "_z_integral_fft", fft)
        with pytest.raises(ValueError) as info:
            convergence_study(DELTA_U, C0, periods, ramp_fraction)
        assert str(info.value) == message

    def test_smallest_ramp_keeps_the_z_columns_at_rounding(self):
        # at MIN_RAMP_FRACTION each edge spans 57 FFT samples, and the z
        # columns part from rel_error by no more than at the default ramp's
        # rounding; at 1e-4 (4 samples) they part by 4.5e-7
        from causalatom import wavepacket as wp
        study = convergence_study(hydrogen_1s2p_preset().delta_u, C0,
                                  [10, 100, 1000, 10000], MIN_RAMP_FRACTION)
        for zc in study:
            direct = abs(zc.z_numerical - zc.z_closed) / abs(zc.z_closed)
            assert abs(direct - zc.rel_error) <= 5e-16
        g = TestFunction(1.0, 2 * MIN_RAMP_FRACTION)
        dx = (1.0 + 2 * g.edge) * 1.04 * wp._PAD / wp._N_FFT
        assert g.edge / dx == pytest.approx(57, rel=1e-12)

    def test_float_range_refusal_names_the_arguments(self):
        with pytest.raises(CausalAtomError) as info:
            convergence_study(DELTA_U, C0, [10], 1e300)
        assert str(info.value).startswith(
            "Z integral leaves the float range for plateau_periods = 10 and "
            "ramp_fraction = 1e+300 at delta_u = 0.01 (")
        with pytest.raises(CausalAtomError, match="plateau_periods value of 1329 bits"):
            convergence_study(DELTA_U, C0, [10, 10 ** 400])

    def test_pipeline_against_gaussian_reference(self, monkeypatch):
        # replace the bump by a Gaussian (centered inside the FFT window)
        # whose transform is analytic, and compare the FFT pipeline against
        # direct quadrature of the analytically transformed integrand
        import scipy.integrate as si
        from causalatom import wavepacket as wp

        delta_u = DELTA_U
        s_len = 3e4
        plateau = 10 * s_len  # sets the window via .support
        center = 0.5 * plateau

        class GaussianProfile(TestFunction):
            def evaluate(self, x0):
                x0 = np.asarray(x0, dtype=float)
                return np.exp(-(x0 - center) ** 2 / (2 * s_len ** 2))

        gobj = GaussianProfile(plateau, plateau)
        assert gobj.support[0] < center - 10 * s_len
        assert gobj.support[1] > center + 10 * s_len
        monkeypatch.setattr(wp, "_N_FFT", 2 ** 14)
        monkeypatch.setattr(wp, "_PAD", 1.8)
        total, change, _ = wp._z_integral_fft(delta_u, C0, gobj)
        z_fft = at_resonance(delta_u, C0) * total + change

        def integrand(q, part):
            # |gt|^2 of the shifted Gaussian: the shift is a pure phase
            v = (at_resonance(delta_u + q, C0)
                 * s_len ** 2 * math.exp(-s_len ** 2 * q ** 2))
            return v.real if part == "re" else v.imag

        lim = 40.0 / s_len
        re = si.quad(lambda q: integrand(q, "re"), -lim, lim, limit=600,
                     epsabs=1e-300, epsrel=1e-12)[0]
        im = si.quad(lambda q: integrand(q, "im"), -lim, lim, limit=600,
                     epsabs=1e-300, epsrel=1e-12)[0]
        ref = complex(re, im)
        assert z_fft == pytest.approx(ref, rel=1e-9)

    def test_rate_from_imaginary_part(self):
        # converged regime: long plateau, small ramp fraction, small delta_u.
        # gamma_leading t_g is 8 pi delta_u^3 plateau in units of the scale
        # 6 S lambda_bar_g / c, S = shift_prefactor, as plateau = c t_g / lambda_bar_g
        # and omega_eg lambda_bar_g / c = delta_u
        delta_u = 1e-3
        plateau = 1000 * 2 * math.pi / delta_u
        zc = z_numerical(delta_u, C0, TestFunction(plateau, plateau / 50.0))
        rate = zc.z_numerical.imag / (8 * math.pi * delta_u ** 3 * plateau)
        assert abs(rate - 1.0) < 0.02

    def test_reported_variants(self):
        delta_u = DELTA_U
        period = 2 * math.pi / delta_u
        g = TestFunction(100 * period, 20 * period)
        zc = z_numerical(delta_u, C0, g)
        # the plateau approximation int g^2 ~ plateau differs by the edge
        # fraction of int g^2
        ratio = (zc.z_closed / (at_resonance(delta_u, C0) * g.plateau)).real
        expect = 1.0 + 2 * EDGE_SQUARED_INTEGRAL * g.edge / g.plateau
        assert ratio == pytest.approx(expect, rel=1e-9)
        # rate-consistent weight divides by u_res
        assert zc.z_closed_inverse_u == pytest.approx(zc.z_closed / (1 + delta_u), rel=1e-13)
