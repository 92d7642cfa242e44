"""Numerical check that the second-order S-matrix action on a slow atom
reduces to the scalar Z.

Only the final 1-D frequency integral of the reduction is evaluated:

    Z = (2pi)^2 int dp0 [T2(p0) + T2(-p0)] gt(p0 - 1/lbe) gt(1/lbe - p0)
      = (2pi)^2 int dq  2 T2s(1/lbe + q) |gt(q)|^2            (g real),

the earlier 3+1-dimensional steps (convolution collapse onto the wavepacket
momentum, dispersion neglect) are enforced as validated preconditions, not
computed: they are hopeless numerically at physical scale separations and
analytically trivial once the premise inequalities hold.

The integral is evaluated on a uniform FFT grid with a trapezoid sum.  For a
compactly supported smooth g this is exact up to aliasing terms that are
themselves compactly-supported autocorrelations, so a modest padding makes
the quadrature error negligible (the pipeline reproduces an analytic
Gaussian reference at machine precision; tests pin this).

The comparison value z_closed uses the exact int g^2 dx0 (the plateau-time
approximation int g^2 ~ c t_g is reported separately), so rel_error isolates
the narrow-window reduction T2s(p0) ~ T2s(1/lbe) and converges ~ 1/t_g^2 as
the plateau grows at fixed ramp fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CausalAtomError
from .numerics import Interval, integrate_adaptive
from .observables import AtomParams
from .selfenergy import NormalizationConstants, t2_bracket_resonant, t2_prefactor

__all__ = [
    "TestFunction",
    "Wavepacket",
    "ZComparison",
    "bump_g",
    "g_fourier",
    "z_numerical",
    "convergence_study",
]

TWO_PI = 2.0 * math.pi

# premise inequality for neglecting wavepacket dispersion
SIGMA_LAMBDA_LIMIT = 1e-3
# premise metric for freezing T2s across the window
REGIME_LIMIT = 0.1


def _edge_profile(y):
    """Monotone C^6 step on [0, 1]: the normalized integral of sin^6(pi t).

    Closed form s(y) = [60 pi y - 16 sin^4(pi y) sin(2 pi y) - 40 sin(2 pi y)
    + 5 sin(4 pi y)]/(60 pi); derivatives vanish through order 6 at both
    ends, so the transform decays like the inverse eighth power of frequency
    before the plateau suppression.  s(y) + s(1-y) = 1 and
    int_0^1 s^2 = (7007/7200 + pi^2/3)/pi^2 ~ 0.43194.
    """
    y = np.asarray(y, dtype=float)
    yc = np.clip(y, 0.0, 1.0)
    sp = np.sin(math.pi * yc)
    s = (60.0 * math.pi * yc - 16.0 * sp ** 4 * np.sin(2 * math.pi * yc)
         - 40.0 * np.sin(2 * math.pi * yc) + 5.0 * np.sin(4 * math.pi * yc)
         ) / (60.0 * math.pi)
    return np.where(y <= 0.0, 0.0, np.where(y >= 1.0, 1.0, s))


# int_0^1 s^2 dy for the edge profile above
EDGE_SQUARED_INTEGRAL = (7007.0 / 7200.0 + math.pi ** 2 / 3.0) / math.pi ** 2


@dataclass(frozen=True)
class TestFunction:
    """Smooth switching profile in the light-front coordinate x0 (meters).

    Plateau value 1 on [0, c t_g]; C^6 edges spanning the full allowed width
    2 c ramp on each side (support exactly [-2 c ramp, c (t_g + 2 ramp)]).
    The squared profile integrates to c t_g + 4 kappa c ramp with
    kappa ~ 0.432 < 1/2, inside [c t_g, c (t_g + 2 ramp)].
    """

    __test__ = False  # not a pytest class

    t_g: float   # s
    ramp: float  # s
    c: float     # m/s

    def __post_init__(self):
        if not (self.t_g > 0 and self.ramp > 0):
            raise ValueError("t_g and ramp must be positive")

    @property
    def plateau_length(self) -> float:
        return self.c * self.t_g

    @property
    def edge_length(self) -> float:
        return 2.0 * self.c * self.ramp

    @property
    def support(self) -> tuple:
        return (-self.edge_length, self.plateau_length + self.edge_length)

    def evaluate(self, x0):
        x0 = np.asarray(x0, dtype=float)
        length, width = self.plateau_length, self.edge_length
        out = np.ones_like(x0)
        out = np.where(x0 < 0.0, _edge_profile((x0 + width) / width), out)
        out = np.where(x0 > length,
                       _edge_profile((length + width - x0) / width), out)
        return out

    def squared_integral(self) -> float:
        """int g^2 dx0 by quadrature (analytically c t_g + 4 kappa c ramp)."""
        lo, hi = self.support
        r = integrate_adaptive(lambda x: self.evaluate(x) ** 2,
                               Interval(lo, hi), rel_tol=1e-12)
        return float(r.value.real)


def bump_g(t_g: float, ramp: float, constants) -> TestFunction:
    """Switching function with plateau t_g and smoothing width ramp (seconds)."""
    return TestFunction(t_g=t_g, ramp=ramp, c=constants.c)


def g_fourier(g: TestFunction, q: float) -> complex:
    """Fourier transform (1/sqrt(2pi)) int g(x) e^{iqx} dx at a single q (1/m)."""
    lo, hi = g.support

    def integrand(x):
        return g.evaluate(x) * np.exp(1j * q * x)

    # absolute floor scaled to the support: deep sidelobes are tiny compared
    # with g~(0) ~ c t_g and need not be resolved to 12 relative digits
    r = integrate_adaptive(integrand, Interval(lo, hi), rel_tol=1e-12,
                           abs_tol=1e-14 * (hi - lo))
    return complex(r.value) / math.sqrt(TWO_PI)


@dataclass(frozen=True)
class Wavepacket:
    """Gaussian center-of-mass momentum amplitude, unit L2 norm in 3-D."""

    center_k: float  # 1/m
    sigma_k: float   # 1/m

    def __post_init__(self):
        if self.sigma_k <= 0:
            raise ValueError("sigma_k must be positive")

    def evaluate(self, kvec):
        kvec = np.asarray(kvec, dtype=float)
        dk2 = np.sum((kvec - np.array([0.0, 0.0, self.center_k])) ** 2, axis=-1)
        return (TWO_PI * self.sigma_k ** 2) ** -0.75 * np.exp(-dk2 / (4.0 * self.sigma_k ** 2))

    def validate_narrow(self, atom: AtomParams) -> None:
        """Premise for neglecting dispersion: sigma_k * lambda_bar_e < 1e-3."""
        if self.sigma_k * atom.lambda_bar_e >= SIGMA_LAMBDA_LIMIT:
            raise CausalAtomError(
                f"wavepacket too broad: sigma_k * lambda_bar_e = "
                f"{self.sigma_k * atom.lambda_bar_e:.3e} >= {SIGMA_LAMBDA_LIMIT}")


@dataclass(frozen=True)
class ZComparison:
    z_numerical: complex
    z_closed: complex          # uses the exact int g^2
    rel_error: float
    z_closed_plateau: complex  # int g^2 replaced by c t_g
    z_closed_inverse_u: complex  # additionally weighted by 1/u_res (rate-consistent)
    narrowness: float          # |T2s'| * window width / |T2s| at resonance
    regime_ok: bool


def _z_integral_fft(atom: AtomParams, c_norm: NormalizationConstants,
                    g: TestFunction, n_fft: int, pad: float):
    lo, hi = g.support
    margin = 0.02 * (hi - lo)
    x0 = lo - margin
    window = (hi - lo + 2 * margin) * pad
    dx = window / n_fft
    x = x0 + dx * np.arange(n_fft)
    gx = g.evaluate(x)
    # sum_n g_n e^{i q_j x_n} = e^{i q_j x0} (N ifft(g))_j at q_j = 2pi j/(N dx)
    ft = np.fft.ifft(gx) * n_fft
    q = TWO_PI * np.fft.fftfreq(n_fft, d=dx)
    gt = dx / math.sqrt(TWO_PI) * np.exp(1j * q * x0) * ft
    weight = np.abs(gt) ** 2
    dq = TWO_PI / window
    offsets = atom.lambda_bar_g * q
    bracket = t2_bracket_resonant(atom.delta_u, c_norm, offset=offsets)
    pref = t2_prefactor(atom)
    z = TWO_PI ** 2 * 2.0 * pref * np.sum(bracket * weight) * dq

    # window width (rms of |gt|^2) in u units, for the regime metric
    total = float(np.sum(weight) * dq)
    mean_q = float(np.sum(q * weight) * dq / total)
    var_q = float(np.sum((q - mean_q) ** 2 * weight) * dq / total)
    width_u = atom.lambda_bar_g * math.sqrt(max(var_q, 0.0))
    return complex(z), width_u


def z_numerical(atom: AtomParams,
                c_norm: NormalizationConstants = NormalizationConstants(),
                g: TestFunction | None = None,
                wavepacket: Wavepacket | None = None,
                n_fft: int = 2 ** 15,
                pad: float = 1.6) -> ZComparison:
    """Evaluate the frequency integral for Z and compare with the frozen-bracket value.

    The regime premise |T2s'| * width / |T2s| < 0.1 is checked and reported;
    a violation flags the result rather than suppressing it.  If a wavepacket
    is supplied, its narrowness premise is asserted (the integral itself is
    wavepacket-free once the reduction holds).
    """
    if g is None:
        raise ValueError("a TestFunction g is required")
    if wavepacket is not None:
        wavepacket.validate_narrow(atom)

    try:  # a window too long for floats overflows in the FFT sums
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            z_num, width_u = _z_integral_fft(atom, c_norm, g, n_fft, pad)
    except FloatingPointError as exc:
        raise CausalAtomError(f"Z integral leaves the float range for t_g = {g.t_g:.3e} s "
                              f"and ramp = {g.ramp:.3e} s ({exc})") from exc

    pref = t2_prefactor(atom)
    bracket0 = complex(t2_bracket_resonant(atom.delta_u, c_norm))
    g2 = g.squared_integral()
    z_closed = TWO_PI ** 2 * 2.0 * pref * bracket0 * g2
    z_plateau = TWO_PI ** 2 * 2.0 * pref * bracket0 * atom.constants.c * g.t_g
    rel = abs(z_num - z_closed) / abs(z_closed)

    h = max(width_u, 1e-9 * atom.delta_u)
    b_plus = complex(t2_bracket_resonant(atom.delta_u, c_norm, offset=h))
    b_minus = complex(t2_bracket_resonant(atom.delta_u, c_norm, offset=-h))
    deriv = abs(b_plus - b_minus) / (2.0 * h)
    narrowness = deriv * width_u / abs(bracket0)

    return ZComparison(
        z_numerical=z_num,
        z_closed=z_closed,
        rel_error=float(rel),
        z_closed_plateau=z_plateau,
        z_closed_inverse_u=z_closed / atom.u_res,
        narrowness=float(narrowness),
        regime_ok=bool(narrowness < REGIME_LIMIT),
    )


def convergence_study(atom: AtomParams,
                      c_norm: NormalizationConstants,
                      plateau_periods,
                      ramp_fraction: float = 0.1):
    """ZComparison per plateau length, t_g in optical periods of the atom."""
    period = TWO_PI / atom.omega_eg
    out = []
    for n in plateau_periods:
        t_g = n * period
        g = bump_g(t_g, ramp_fraction * t_g, atom.constants)
        out.append((t_g, z_numerical(atom, c_norm, g)))
    return out
