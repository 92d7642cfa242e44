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

Units: T2s is 3 S/(4 pi^2 c) times the bracket B(u), S = shift_prefactor,
and B reads the atom only through delta_u = hbar omega_eg/(m_g c^2).  So the
check runs with lengths in units of lambda_bar_g, where q is B's offset from
u_res = 1 + delta_u and one optical period is 2pi/delta_u, and with Z in
units of the SI scale 6 S lambda_bar_g/c: Z/scale = int dq B(u_res + q) |gt(q)|^2.
SI enters only in cli._cmd_wavepacket_check, which multiplies the z columns
by the scale, and in z_factor, the SI observable.

The integral is a trapezoid sum on a uniform FFT grid.  For a compactly
supported smooth g this is exact up to aliasing terms that are themselves
compactly-supported autocorrelations, so a modest padding makes the
quadrature error negligible (tests pin an analytic Gaussian reference).
|gt(q)|^2 is even in q (g is real; the grid offset is a phase), so the sum
runs over the half spectrum of a real FFT, each bin q_j > 0 standing for
+-q_j (q = 0 and the Nyquist bin, at -N/2 as np.fft.fftfreq labels it,
once), with the bracket evaluated in blocks of offsets.

z_closed uses the exact int g^2 dx0 in closed form.  The bins sum
B(u_res + q) - B(u_res) at C_exact (selfenergy.t2_bracket_resonant), the
quadratic another C adds is exact from the moments of |gt|^2, and
z_numerical adds B(u_res) int |gt|^2 dq back.  rel_error is the narrow-window
reduction error alone, |<B> - B(u_res)| / |B(u_res)| with <B> the
|gt|^2-weighted mean of B, so it falls ~ 1/plateau^2 at a fixed ramp fraction
on synthetic presets and on hydrogen (8.5e-18 at 10 periods) alike, at C = 0
and at C_exact.  |z_numerical - z_closed| / |z_closed| also carries the FFT's
rounding of int |gt|^2 dq = int g^2 dx0, a few 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CausalAtomError
from .observables import (NORMALIZATION_EXACT, TWO_PI, AtomParams, NormalizationConstants,
                          shift_prefactor)
from .selfenergy import _c_quadratic, t2_bracket_resonant, t2_bracket_slope

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
    """Smooth switching profile in the light-front coordinate x0, in units of
    lambda_bar_g.

    Value 1 on the plateau [0, plateau]; C^6 edges of width ``edge`` on each
    side, so the support is exactly [-edge, plateau + edge].  The squared
    profile integrates to plateau + 2 kappa edge with kappa ~ 0.432 < 1/2,
    inside [plateau, plateau + edge].
    """

    __test__ = False  # not a pytest class

    plateau: float
    edge: float

    def __post_init__(self):
        if not (self.plateau > 0 and self.edge > 0):
            raise ValueError("plateau and edge must be positive")

    @property
    def support(self) -> tuple:
        return (-self.edge, self.plateau + self.edge)

    def evaluate(self, x0):
        x0 = np.asarray(x0, dtype=float)
        length, width = self.plateau, self.edge
        # 1 on the plateau and 0 past the support, which take most nodes; the
        # edge profile on the edge nodes only
        out = ((0.0 <= x0) & (x0 <= length)).astype(float)
        rise, fall = (-width < x0) & (x0 < 0.0), (length < x0) & (x0 < length + width)
        out[rise] = _edge_profile((x0[rise] + width) / width)
        out[fall] = _edge_profile((length + width - x0[fall]) / width)
        return out

    def squared_integral(self) -> float:
        """int g^2 dx0 = plateau + 2 kappa edge: the plateau and two edges."""
        return self.plateau + 2.0 * EDGE_SQUARED_INTEGRAL * self.edge


def z_factor(atom: AtomParams, c: NormalizationConstants = NormalizationConstants(),
             resonant_weight: str = "inverse_u") -> complex:
    """Scalar action of the second-order S-matrix term on a slow excited atom.

    Z = 6 t_g S B(u_res) w, S = shift_prefactor(atom).  The slow-atom
    reduction leaves an O(delta_u) ambiguity in the energy-denominator weight w:
      "inverse_u"  w = 1/u_res, consistent with the displayed closed-form
                   rate (fifth-power denominator); default.
      "unity"      w = 1 exactly (literal proportionality; fourth power).
    The bracket is evaluated in the cancellation-free delta_u form, so
    arbitrarily small delta_u > 0 is fine.
    """
    if resonant_weight not in ("inverse_u", "unity"):
        raise ValueError("resonant_weight must be 'inverse_u' or 'unity'")
    bracket = complex(t2_bracket_resonant(atom.delta_u, c))
    w = 1.0 / atom.u_res if resonant_weight == "inverse_u" else 1.0
    return 6.0 * atom.t_g * shift_prefactor(atom) * bracket * w


class ZComparison(NamedTuple):
    """The Z integral against its frozen-bracket value; the z fields are in
    units of the SI scale 6 S lambda_bar_g/c, S = shift_prefactor."""

    z_numerical: complex
    z_closed: complex          # uses the exact int g^2
    rel_error: float           # |<B> - B(u_res)| / |B(u_res)|, <B> the |gt|^2 mean
    z_closed_inverse_u: complex  # additionally weighted by 1/u_res (rate-consistent)
    narrowness: float          # |B'| * window width / |B| at resonance
    regime_ok: bool


# offsets per t2_bracket_resonant call: bounds its temporaries
_BRACKET_BLOCK = 4096

# z_numerical's FFT: its number of samples, and the length of its window over
# that of the test function's support with 2% margins
_N_FFT = 2 ** 15
_PAD = 1.6


def _z_integral_fft(delta_u: float, c_norm: NormalizationConstants,
                    g: TestFunction, n_fft: int, pad: float):
    """int |gt|^2 dq, int (B(u_res + q) - B(u_res)) |gt|^2 dq and the rms
    width of |gt|^2 in q."""
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
    # q, in 1/lambda_bar_g, is the bracket's offset from u_res
    q = TWO_PI * (j * (1.0 / (n_fft * dx)))
    # each bin with q_j > 0 stands for q_j and -q_j; q = 0 and the Nyquist bin once
    mirror = np.where(q > 0.0, weight, 0.0)
    dq = TWO_PI / window
    # the bins sum the change of B at C_exact; the quadratic another C adds
    # changes by (k1 + 2 k2 delta_u) q + k2 q^2, exact from the moments
    at_res = t2_bracket_resonant(delta_u, NORMALIZATION_EXACT)
    change = 0j
    for s in range(0, q.size, _BRACKET_BLOCK):
        b = slice(s, s + _BRACKET_BLOCK)
        change += (np.sum(weight[b] * (t2_bracket_resonant(delta_u, NORMALIZATION_EXACT, q[b])
                                       - at_res))
                   + np.sum(mirror[b] * (t2_bracket_resonant(delta_u, NORMALIZATION_EXACT, -q[b])
                                         - at_res)))
    total = float((np.sum(weight) + np.sum(mirror)) * dq)
    m1 = float((np.sum(q * weight) - np.sum(q * mirror)) * dq)
    m2 = float((np.sum(q * q * weight) + np.sum(q * q * mirror)) * dq)
    _, k1, k2 = _c_quadratic(c_norm)
    change = complex(change * dq) + (k1 + 2.0 * k2 * delta_u) * m1 + k2 * m2
    # the window width, the rms of |gt|^2, for the regime metric
    return total, change, math.sqrt(max(m2 / total - (m1 / total) ** 2, 0.0))


def z_numerical(delta_u: float,
                c_norm: NormalizationConstants,
                g: TestFunction) -> ZComparison:
    """Evaluate the frequency integral for Z and compare with the frozen-bracket value.

    The regime premise |B'| * width / |B| < 0.1, with B' in closed form
    (selfenergy.t2_bracket_slope), is checked and reported; a violation
    flags the result rather than suppressing it.  A window too long for
    floats overflows in the FFT sums: FloatingPointError.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        total, change, width = _z_integral_fft(delta_u, c_norm, g, _N_FFT, _PAD)

    # int B |gt|^2 dq = B(u_res) int |gt|^2 dq + int (B - B(u_res)) |gt|^2 dq
    bracket0 = complex(t2_bracket_resonant(delta_u, c_norm))
    z_num = bracket0 * total + change
    z_closed = bracket0 * g.squared_integral()
    # the reduction error alone: int |gt|^2 dq = int g^2 dx0, but the FFT
    # rounds it (a few 1e-16), which |z_num - z_closed| / |z_closed| carries
    rel = abs(change) / (abs(bracket0) * total)
    narrowness = abs(complex(t2_bracket_slope(delta_u, c_norm))) * width / abs(bracket0)

    return ZComparison(
        z_numerical=z_num,
        z_closed=z_closed,
        rel_error=float(rel),
        z_closed_inverse_u=z_closed / (1.0 + delta_u),
        narrowness=float(narrowness),
        regime_ok=bool(narrowness < REGIME_LIMIT),
    )


def convergence_study(delta_u: float,
                      c_norm: NormalizationConstants,
                      plateau_periods,
                      ramp_fraction: float = 0.1):
    """ZComparison per plateau of n optical periods, 2 pi n / delta_u in
    lambda_bar_g, each edge 2 ramp_fraction times the plateau.  Every count
    and the fraction are checked before any integral runs."""
    if not (math.isfinite(ramp_fraction) and ramp_fraction > 0):
        raise ValueError(f"ramp_fraction must be finite and > 0, got {ramp_fraction}")
    for n in plateau_periods:
        if n < 1:
            raise ValueError(f"plateau_periods must be >= 1, got {n}")
    out = []
    for n in plateau_periods:
        try:
            plateau = n * (TWO_PI / delta_u)
        except OverflowError:  # an int past the float range
            raise CausalAtomError(f"a plateau_periods value of {n.bit_length()} bits "
                                  "leaves the float range") from None
        try:
            out.append(z_numerical(delta_u, c_norm,
                                   TestFunction(plateau, 2.0 * ramp_fraction * plateau)))
        except FloatingPointError as exc:
            raise CausalAtomError(
                f"Z integral leaves the float range for plateau_periods = {n:.6g} and "
                f"ramp_fraction = {ramp_fraction:.6g} at delta_u = {delta_u:.6g} "
                f"({exc})") from None
    return out
