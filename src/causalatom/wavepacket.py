"""Numerical check that the second-order S-matrix action on a slow atom
reduces to the scalar Z.

Only the final 1-D frequency integral of the reduction is evaluated:

    Z = (2pi)^2 int dp0 [T2(p0) + T2(-p0)] gt(p0 - 1/lbe) gt(1/lbe - p0)
      = (2pi)^2 int dq  2 T2s(1/lbe + q) |gt(q)|^2            (g real),

the earlier 3+1-dimensional steps (convolution collapse onto the wavepacket
momentum, dispersion neglect) are not computed: they are hopeless
numerically at physical scale separations and analytically trivial once the
premise inequalities hold.  Of the premises, the window's narrowness is
checked and reported (ZComparison.regime_ok).

The integral is evaluated on a uniform FFT grid with a trapezoid sum.  For a
compactly supported smooth g this is exact up to aliasing terms that are
themselves compactly-supported autocorrelations, so a modest padding makes
the quadrature error negligible (the pipeline reproduces an analytic
Gaussian reference at machine precision; tests pin this).  g is real and
the grid offset only adds a phase, so |gt(q)|^2 is even in q: the sum runs
over the half spectrum of a real FFT, each bin q_j > 0 standing for +-q_j
(q = 0 and the Nyquist bin, at -N/2 as np.fft.fftfreq labels it, once),
with the bracket evaluated in blocks of offsets.

The comparison value z_closed uses the exact int g^2 dx0, in closed form
(not the plateau-time approximation c t_g), so rel_error isolates the
narrow-window reduction T2s(p0) ~ T2s(1/lbe) and converges ~ 1/t_g^2 as the
plateau grows at fixed ramp fraction.  That convergence shows on synthetic
presets (delta_u ~ 1e-3).  On hydrogen (delta_u ~ 1e-8) the reduction error
lies below double precision at every plateau length, so rel_error sits at
rounding and a monotone fall of it across plateau lengths compares noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CausalAtomError
from .observables import TWO_PI, AtomParams, NormalizationConstants, t2_prefactor
from .selfenergy import t2_bracket_resonant

__all__ = [
    "TestFunction",
    "ZComparison",
    "z_factor",
    "z_numerical",
    "convergence_study",
]

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
    s2 = np.sin(2 * math.pi * yc)
    s = (60.0 * math.pi * yc - 16.0 * sp ** 4 * s2 - 40.0 * s2
         + 5.0 * np.sin(4 * math.pi * yc)) / (60.0 * math.pi)
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
        # 1 on the plateau and 0 past the support, which take most nodes; the
        # edge profile on the edge nodes only
        out = ((0.0 <= x0) & (x0 <= length)).astype(float)
        rise, fall = (-width < x0) & (x0 < 0.0), (length < x0) & (x0 < length + width)
        out[rise] = _edge_profile((x0[rise] + width) / width)
        out[fall] = _edge_profile((length + width - x0[fall]) / width)
        return out

    def squared_integral(self) -> float:
        """int g^2 dx0 = c t_g + 4 kappa c ramp: the plateau and two edges."""
        return self.c * (self.t_g + 4.0 * EDGE_SQUARED_INTEGRAL * self.ramp)


def z_factor(atom: AtomParams, c: NormalizationConstants = NormalizationConstants(),
             resonant_weight: str = "inverse_u") -> complex:
    """Scalar action of the second-order S-matrix term on a slow excited atom.

    Z = 2 (2pi)^2 c t_g T2s(u_res) w.  The slow-atom reduction leaves an
    O(delta_u) ambiguity in the energy-denominator weight w:
      "inverse_u"  w = 1/u_res, consistent with the displayed closed-form
                   rate (fifth-power denominator); default.
      "unity"      w = 1 exactly (literal proportionality; fourth power).
    The bracket is evaluated in the cancellation-free delta_u form, so
    arbitrarily small delta_u > 0 is fine.
    """
    if resonant_weight not in ("inverse_u", "unity"):
        raise ValueError("resonant_weight must be 'inverse_u' or 'unity'")
    k = atom.constants
    bracket = complex(t2_bracket_resonant(atom.delta_u, c))
    w = 1.0 / atom.u_res if resonant_weight == "inverse_u" else 1.0
    return 2.0 * TWO_PI ** 2 * k.c * atom.t_g * t2_prefactor(atom) * bracket * w


@dataclass(frozen=True)
class ZComparison:
    z_numerical: complex
    z_closed: complex          # uses the exact int g^2
    rel_error: float
    z_closed_inverse_u: complex  # additionally weighted by 1/u_res (rate-consistent)
    narrowness: float          # |T2s'| * window width / |T2s| at resonance
    regime_ok: bool


# offsets per t2_bracket_resonant call: bounds its temporaries
_BRACKET_BLOCK = 4096


def _z_integral_fft(atom: AtomParams, c_norm: NormalizationConstants,
                    g: TestFunction, n_fft: int, pad: float):
    lo, hi = g.support
    margin = 0.02 * (hi - lo)
    x0 = lo - margin
    window = (hi - lo + 2 * margin) * pad
    dx = window / n_fft
    # gt(q_j) = dx/sqrt(2pi) e^{i q_j x0} sum_n g_n e^{i q_j n dx} at q_j = 2pi j/(N dx):
    # the phase has modulus 1 and g is real, so |gt(q)|^2 is even in q and the
    # half spectrum j = 0 .. N/2 of the real FFT carries all of it
    x = np.arange(n_fft, dtype=float)   # x0 + n dx, built in place and freed
    x *= dx                              # before the FFT: the largest arrays here
    x += x0
    weight = np.abs(np.fft.rfft(g.evaluate(x)))
    del x
    weight **= 2
    weight *= dx * dx / TWO_PI
    j = np.arange(weight.size, dtype=float)
    if n_fft % 2 == 0:
        j[-1] = -j[-1]   # np.fft.fftfreq labels the Nyquist bin of an even N -N/2
    q = TWO_PI * (j * (1.0 / (n_fft * dx)))
    # each bin with q_j > 0 stands for q_j and -q_j; q = 0 and the Nyquist bin once
    mirror = np.where(q > 0.0, weight, 0.0)
    dq = TWO_PI / window
    total_sum = 0j
    for s in range(0, q.size, _BRACKET_BLOCK):
        b = slice(s, s + _BRACKET_BLOCK)
        offsets = atom.lambda_bar_g * q[b]
        total_sum += (np.sum(weight[b] * t2_bracket_resonant(atom.delta_u, c_norm, offsets))
                      + np.sum(mirror[b] * t2_bracket_resonant(atom.delta_u, c_norm, -offsets)))
    pref = t2_prefactor(atom)
    z = TWO_PI ** 2 * 2.0 * pref * total_sum * dq

    # window width (rms of |gt|^2) in u units, for the regime metric; each
    # sum runs over the full spectrum
    total = float((np.sum(weight) + np.sum(mirror)) * dq)
    mean_q = float((np.sum(q * weight) - np.sum(q * mirror)) * dq / total)
    var_q = float((np.sum((q - mean_q) ** 2 * weight) + np.sum((q + mean_q) ** 2 * mirror))
                  * dq / total)
    width_u = atom.lambda_bar_g * math.sqrt(max(var_q, 0.0))
    return complex(z), width_u


def z_numerical(atom: AtomParams,
                c_norm: NormalizationConstants,
                g: TestFunction,
                n_fft: int = 2 ** 15,
                pad: float = 1.6) -> ZComparison:
    """Evaluate the frequency integral for Z and compare with the frozen-bracket value.

    The regime premise |T2s'| * width / |T2s| < 0.1 is checked and reported;
    a violation flags the result rather than suppressing it.
    """
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
        try:
            t_g = n * period
        except OverflowError:  # an int past the float range
            raise CausalAtomError(f"a plateau_periods value of {n.bit_length()} bits "
                                  "leaves the float range (t_g = n * period)") from None
        g = TestFunction(t_g, ramp_fraction * t_g, atom.constants.c)
        out.append((t_g, z_numerical(atom, c_norm, g)))
    return out
