import itertools
import math

import numpy as np
import pytest
import scipy.integrate

from causalatom.observables import (
    CODATA2018,
    NormalizationConstants,
    atom_from_dict,
    gamma_leading,
    hydrogen_1s2p_preset,
    synthetic_atom,
    t2_prefactor,
)
from causalatom.selfenergy import t2_bracket_resonant
from causalatom.wavepacket import (
    EDGE_SQUARED_INTEGRAL,
    TestFunction,
    convergence_study,
    z_numerical,
)

C0 = NormalizationConstants()


def _pieces(g: TestFunction):
    """The rising edge, the plateau and the falling edge, on each of which g
    is smooth."""
    lo, hi = g.support
    return [(lo, 0.0), (0.0, g.plateau_length), (g.plateau_length, hi)]


def _quad(f, lo, hi, **kw):
    """scipy's QUADPACK over a scalar function of an array integrand."""
    return scipy.integrate.quad(lambda x: float(f(np.array([x]))[0]), lo, hi, limit=200,
                                **kw)[0]


def g_fourier(g: TestFunction, q: float) -> complex:
    """Fourier transform (1/sqrt(2pi)) int g(x) e^{iqx} dx at a single q (1/m),
    with e^{iqx} as the weight of QUADPACK's oscillatory rule (qawo)."""
    lo, hi = g.support
    # absolute floor scaled to the support: deep sidelobes are tiny compared
    # with g~(0) ~ c t_g and need not be resolved to 12 relative digits
    kw = {"wvar": q, "epsrel": 1e-12, "epsabs": 1e-14 * (hi - lo)}
    value = sum(complex(_quad(g.evaluate, a, b, weight="cos", **kw),
                        _quad(g.evaluate, a, b, weight="sin", **kw)) for a, b in _pieces(g))
    return value / math.sqrt(2 * math.pi)


@pytest.fixture(scope="module")
def atom():
    # synthetic delta_u: the bracket formulas are scale-free in u and the
    # physical 1e-8 separation is numerically pointless to resolve here
    return synthetic_atom(1e-2)


class TestBump:
    def test_plateau_and_outside(self):
        g = TestFunction(1e-6, 1e-7, CODATA2018.c)
        mid = 0.5 * g.plateau_length
        assert g.evaluate(np.array([mid]))[0] == 1.0
        assert g.evaluate(np.array([-1.01 * g.edge_length]))[0] == 0.0
        assert g.evaluate(np.array([g.plateau_length + 1.01 * g.edge_length]))[0] == 0.0

    def test_squared_integral_window(self):
        # the closed form against quadrature of g^2, whose absolute floor is
        # scaled to the value: int g^2 is a length in metres, far below 1
        period = 2 * math.pi / hydrogen_1s2p_preset().omega_eg
        for ramp_fraction, n in itertools.product((0.1, 0.3), 10 ** np.arange(1, 7)):
            g = TestFunction(n * period, ramp_fraction * n * period, CODATA2018.c)
            val = g.squared_integral()
            assert g.c * g.t_g <= val <= g.c * (g.t_g + 2 * g.ramp)
            r = sum(_quad(lambda x: g.evaluate(x) ** 2, a, b, epsrel=1e-13,
                          epsabs=1e-16 * g.c * g.t_g) for a, b in _pieces(g))
            assert abs(r - val) <= 1e-14 * val

    def test_smooth_in_range(self):
        g = TestFunction(1e-6, 1e-7, CODATA2018.c)
        xs = np.linspace(*g.support, 500)
        vals = g.evaluate(xs)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals[xs <= 0.0]) >= -1e-15)  # monotone rise

    def test_bad_args(self):
        with pytest.raises(ValueError):
            TestFunction(t_g=-1.0, ramp=1.0, c=3e8)


class TestGFourier:
    def test_zero_frequency(self):
        g = TestFunction(1e-6, 1e-8, CODATA2018.c)  # small ramp: integral ~ c t_g
        val = g_fourier(g, 0.0)
        expect = CODATA2018.c * g.t_g / math.sqrt(2 * math.pi)
        assert val.imag == pytest.approx(0.0, abs=1e-6 * abs(val.real))
        assert val.real == pytest.approx(expect, rel=0.05)

    def test_superpolynomial_decay(self):
        # C^6 edges: the transform falls like the inverse eighth power of
        # frequency once past the edge-kernel mainlobe.  (A hard 1e-8 bound
        # at q = 10/(c ramp) is unattainable for any edge confined to the
        # allowed width: window theory caps the attenuation there.)
        g = TestFunction(1e-6, 1e-7, CODATA2018.c)
        near = abs(g_fourier(g, 0.0))
        r20 = abs(g_fourier(g, 20.0 / (g.c * g.ramp))) / near
        r40 = abs(g_fourier(g, 40.0 / (g.c * g.ramp))) / near
        assert r20 < 1e-6
        assert r40 < 1e-8
        assert r40 < r20 / 30.0  # much faster than quadratic decay

    def test_conjugate_symmetry(self):
        g = TestFunction(1e-6, 1e-7, CODATA2018.c)
        q = 2.0 / g.plateau_length
        assert g_fourier(g, -q) == pytest.approx(np.conj(g_fourier(g, q)), rel=1e-10)


def _z_integral_full_spectrum(atom, c_norm, g, n_fft, pad):
    """The Z integral over the full FFT spectrum: the complex transform with
    its phase e^{i q x0}, and the bracket at every q of np.fft.fftfreq."""
    from causalatom.selfenergy import t2_bracket_resonant

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
    bracket = t2_bracket_resonant(atom.delta_u, c_norm, offset=atom.lambda_bar_g * q)
    z = two_pi ** 2 * 2.0 * t2_prefactor(atom) * np.sum(bracket * weight) * dq
    total = float(np.sum(weight) * dq)
    mean_q = float(np.sum(q * weight) * dq / total)
    var_q = float(np.sum((q - mean_q) ** 2 * weight) * dq / total)
    return complex(z), atom.lambda_bar_g * math.sqrt(max(var_q, 0.0))


# hydrogen, synthetic:1e-2 and the atom of a preset file
_Z_ATOMS = {
    "hydrogen": hydrogen_1s2p_preset,
    "synthetic": lambda: synthetic_atom(1e-2),
    "file": lambda: atom_from_dict({"m_g_kg": 1.6735575e-27, "omega_eg_rad_s": 1.5497e16,
                                    "d_eg_Cm": 6.3e-30, "t_g_s": 1.0}),
}


class TestHalfSpectrum:
    @pytest.mark.parametrize("name", sorted(_Z_ATOMS))
    @pytest.mark.parametrize("n_fft", [2 ** 15, 2 ** 12 + 1])
    def test_matches_full_spectrum(self, name, n_fft):
        # the default plateau decades; an odd N has no Nyquist bin
        from causalatom import wavepacket as wp
        atom = _Z_ATOMS[name]()
        period = 2 * math.pi / atom.omega_eg
        for n in (10, 100, 1000, 10000):
            g = TestFunction(n * period, 0.1 * n * period, atom.constants.c)
            z_half, width_half = wp._z_integral_fft(atom, C0, g, n_fft, 1.6)
            z_full, width_full = _z_integral_full_spectrum(atom, C0, g, n_fft, 1.6)
            assert abs(z_half - z_full) <= 1e-14 * abs(z_full)
            assert abs(width_half - width_full) <= 1e-14 * width_full

    @pytest.mark.parametrize("signs", [(1,), (1, -1)])
    def test_nyquist_bin_counted_once_at_minus_half(self, atom, monkeypatch, signs):
        # a bracket that is 1 at q = -N/2 (fftfreq's label for the Nyquist
        # bin), or at +-N/2, and 0 elsewhere picks out that bin's weight:
        # counted at +N/2 the first would read 0, counted at both the second
        # would double
        from causalatom import selfenergy, wavepacket as wp
        n_fft, pad = 64, 1.6
        period = 2 * math.pi / atom.omega_eg
        g = TestFunction(10 * period, period, atom.constants.c)
        lo, hi = g.support
        dx = (hi - lo) * 1.04 * pad / n_fft
        nyquist = atom.lambda_bar_g * 2 * math.pi * np.fft.fftfreq(n_fft, d=dx)[n_fft // 2]
        assert nyquist < 0

        def spike(delta_u, c, offset=0.0):
            off = np.asarray(offset, dtype=float)
            hit = sum(np.isclose(off, sign * nyquist, rtol=1e-12, atol=0.0) for sign in signs)
            return np.where(hit, 1.0 + 0j, 0j)

        monkeypatch.setattr(wp, "t2_bracket_resonant", spike)
        monkeypatch.setattr(selfenergy, "t2_bracket_resonant", spike)
        z_half, _ = wp._z_integral_fft(atom, C0, g, n_fft, pad)
        z_full, _ = _z_integral_full_spectrum(atom, C0, g, n_fft, pad)
        assert z_full != 0
        assert z_half == pytest.approx(z_full, rel=1e-12)


class TestZNumerical:
    def test_converges_and_monotone(self, atom):
        study = convergence_study(atom, C0, [10, 100, 1000])
        errs = [zc.rel_error for _, zc in study]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert errs[2] < 1e-6
        assert all(zc.regime_ok for _, zc in study)

    def test_hydrogen_error_at_rounding(self):
        # delta_u ~ 1e-8: the reduction error lies below double precision at
        # every default plateau length, so rel_error is rounding
        study = convergence_study(hydrogen_1s2p_preset(), C0, [10, 100, 1000, 10000])
        assert all(zc.rel_error <= 1e-14 for _, zc in study)

    @pytest.mark.parametrize("ramp_fraction", [0.1, 0.3])
    def test_error_falls_as_inverse_square_plateau(self, ramp_fraction):
        # at a fixed ramp fraction each decade of plateau cuts rel_error 100-fold
        study = convergence_study(synthetic_atom(1e-3), C0, [10, 100, 1000, 10000],
                                  ramp_fraction)
        errs = [zc.rel_error for _, zc in study]
        assert all(99 <= a / b <= 101 for a, b in zip(errs, errs[1:])), errs

    def test_large_plateau_error(self, atom):
        study = convergence_study(atom, C0, [10 ** 6])
        assert study[0][1].rel_error <= 1e-2

    def test_pipeline_against_gaussian_reference(self, atom):
        # replace the bump by a Gaussian (centered inside the FFT window)
        # whose transform is analytic, and compare the FFT pipeline against
        # direct quadrature of the analytically transformed integrand
        import scipy.integrate as si
        from causalatom import wavepacket as wp

        s_len = 3e4 * atom.lambda_bar_g
        c = atom.constants.c
        plateau = 10 * s_len  # sets the window via .support
        center = 0.5 * plateau

        class GaussianProfile(TestFunction):
            def evaluate(self, x0):
                x0 = np.asarray(x0, dtype=float)
                return np.exp(-(x0 - center) ** 2 / (2 * s_len ** 2))

        gobj = GaussianProfile(t_g=plateau / c, ramp=plateau / (2 * c), c=c)
        assert gobj.support[0] < center - 10 * s_len
        assert gobj.support[1] > center + 10 * s_len
        z_fft, _ = wp._z_integral_fft(atom, C0, gobj, n_fft=2 ** 14, pad=1.8)

        lam = atom.lambda_bar_g
        pref = t2_prefactor(atom)

        def integrand(q, part):
            # |gt|^2 of the shifted Gaussian: the shift is a pure phase
            b = complex(t2_bracket_resonant(atom.delta_u, C0, offset=lam * q))
            w2 = s_len ** 2 * math.exp(-s_len ** 2 * q ** 2)
            v = (2 * math.pi) ** 2 * 2.0 * pref * b * w2
            return v.real if part == "re" else v.imag

        lim = 40.0 / s_len
        re = si.quad(lambda q: integrand(q, "re"), -lim, lim, limit=600,
                     epsabs=1e-300, epsrel=1e-12)[0]
        im = si.quad(lambda q: integrand(q, "im"), -lim, lim, limit=600,
                     epsabs=1e-300, epsrel=1e-12)[0]
        ref = complex(re, im)
        assert z_fft == pytest.approx(ref, rel=1e-9)

    def test_rate_from_imaginary_part(self):
        # converged regime: long plateau, small ramp fraction, small delta_u
        atom = synthetic_atom(1e-3)
        period = 2 * math.pi / atom.omega_eg
        t_g = 1000 * period
        g = TestFunction(t_g, t_g / 100.0, atom.constants.c)
        zc = z_numerical(atom, C0, g)
        rate = zc.z_numerical.imag / t_g
        assert abs(rate / gamma_leading(atom) - 1.0) < 0.02

    def test_dipole_scaling(self, atom):
        import dataclasses
        period = 2 * math.pi / atom.omega_eg
        g = TestFunction(100 * period, 10 * period, atom.constants.c)
        double = dataclasses.replace(atom, d_eg_abs=2 * atom.d_eg_abs)
        z1 = z_numerical(atom, C0, g)
        z2 = z_numerical(double, C0, g)
        assert z2.z_numerical == pytest.approx(4.0 * z1.z_numerical, rel=1e-12)
        assert z2.z_closed == pytest.approx(4.0 * z1.z_closed, rel=1e-12)

    def test_reported_variants(self, atom):
        period = 2 * math.pi / atom.omega_eg
        g = TestFunction(100 * period, 10 * period, atom.constants.c)
        zc = z_numerical(atom, C0, g)
        # the plateau approximation int g^2 ~ c t_g differs by the edge
        # fraction of int g^2
        z_plateau = ((2 * math.pi) ** 2 * 2.0 * t2_prefactor(atom)
                     * complex(t2_bracket_resonant(atom.delta_u, C0)) * atom.constants.c * g.t_g)
        ratio = (zc.z_closed / z_plateau).real
        expect = 1.0 + 4 * EDGE_SQUARED_INTEGRAL * g.ramp / g.t_g
        assert ratio == pytest.approx(expect, rel=1e-9)
        # rate-consistent weight divides by u_res
        assert zc.z_closed_inverse_u == pytest.approx(zc.z_closed / atom.u_res,
                                                      rel=1e-13)
