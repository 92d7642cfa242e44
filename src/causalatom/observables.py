"""Physical constants, atom presets, decay rate and line-shift observables.

SI enters through one unit on the one registry, CODATA2018: the line shift
per bracket unit S = shift_prefactor(atom) = |d|^2/(144 pi^2 eps0 hbar lb^3),
lb = lambda_bar_g = hbar/(m_g c).  Every SI number is S times a unit-free
factor: the rate 48 pi delta_u^3 S, r2_prefactor 3 S/(2 pi^2 c), and in the
CLI the Z scale 6 S lb/c.  S is the square of |d|/(12 pi sqrt(eps0 hbar))
over lb^(3/2), so a dipole whose square is subnormal keeps its digits.

This is the scalar layer: the SI prefactors, the normalization constants
and the symmetrized bracket live here, and every formula runs on floats or
in decimal.  It imports no numpy and no package module but errors, so the
rate, the shift and its series fit load neither numpy nor the quadrature.

Series conventions: the atomic line shift is the real part of Z/t_g, where
Z = 2 (2pi)^2 c t_g T2s(u_res) w(u_res) (wavepacket.z_factor) and the
resonant weight w is either 1/u_res (the reading consistent with the
displayed fifth-power decay-rate denominator; default) or exactly 1 (the
literal proportionality).  It is shift_prefactor(atom) times a bracket whose
low-order expansion in delta_u = u_res - 1 is

    -48 du^3 log(2 du) + c0 + c1 du + c2 du^2 + c3 du^3,

produced both analytically (lineshift_series) and by fitting samples of the
bracket (extract_series_numerically); the two must agree, which is the
oracle pinning the closed form.  No atom enters either: the CLI applies
shift_prefactor once.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import CausalAtomError, FitResidualError, PresetError

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "AtomParams",
    "LineShiftSeries",
    "DISCREPANCY_NOTES",
    "hydrogen_1s2p_preset",
    "synthetic_atom",
    "atom_from_dict",
    "atom_to_dict",
    "gamma_exact",
    "gamma_leading",
    "gamma_ratio_minus_one",
    "lineshift_series",
    "extract_series_numerically",
    "solve_normalization",
    "NORMALIZATION_EXACT",
    "delta_final",
    "lineshift_log_bracket",
    "lamb_reference",
    "shift_ratio",
    "NormalizationConstants",
    "r2_prefactor",
    "shift_prefactor",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# constants registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float        # J s
    c: float           # m/s
    eps0: float        # F/m
    e_charge: float    # C
    a0: float          # m
    alpha: float       # dimensionless
    m_electron: float  # kg
    m_proton: float    # kg

    def __post_init__(self):
        for name in ("hbar", "c", "eps0", "e_charge", "a0", "alpha",
                     "m_electron", "m_proton"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")
        if self.alpha_consistency_rel > 1e-6:
            raise ValueError(
                f"inconsistent registry: e^2/(4 pi eps0 hbar c) is "
                f"{self.alpha_consistency_rel:.3g} relative off alpha = {self.alpha}")

    @property
    def alpha_consistency_rel(self) -> float:
        """|e^2/(4 pi eps0 hbar c)/alpha - 1|: how far the registry is from consistent."""
        return abs(self.e_charge ** 2 / (4.0 * math.pi * self.eps0 * self.hbar * self.c)
                   / self.alpha - 1.0)


CONSTANTS_VERSION = "CODATA-2018"

CODATA2018 = PhysicalConstants(
    hbar=1.054571817e-34,
    c=299792458.0,
    eps0=8.8541878128e-12,
    e_charge=1.602176634e-19,
    a0=5.29177210903e-11,
    alpha=7.2973525693e-3,
    m_electron=9.1093837015e-31,
    m_proton=1.67262192369e-27,
)


# ---------------------------------------------------------------------------
# atom parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomParams:
    """Two-level atom: ground-state mass, transition frequency, dipole matrix
    element magnitude, and interaction duration."""

    m_g: float        # kg
    omega_eg: float   # rad/s
    d_eg_abs: float   # C m
    t_g: float        # s

    def __post_init__(self):
        for name in ("m_g", "omega_eg", "d_eg_abs", "t_g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("m_g", "omega_eg", "t_g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_eg_abs < 0:
            raise ValueError("d_eg_abs must be >= 0")
        if self.delta_u >= 0.1:
            raise ValueError(
                f"delta_u = {self.delta_u:.3g} is not << 1; the resting-atom "
                "expansion breaks down (rejecting delta_u >= 0.1)")
        _check_si_prefactors(self)

    @property
    def lambda_bar_g(self) -> float:
        return CODATA2018.hbar / (self.m_g * CODATA2018.c)

    @property
    def delta_u(self) -> float:
        return CODATA2018.hbar * self.omega_eg / (self.m_g * CODATA2018.c ** 2)

    @property
    def u_res(self) -> float:
        return 1.0 + self.delta_u


def _check_si_prefactors(atom: AtomParams) -> None:
    """Raise ValueError, naming the fields, if the SI unit shift_prefactor
    leaves the float range, as finite fields can make it, or would lose
    digits to a subnormal lb^(3/2) (m_g past about 1e163 kg).  Every other
    SI prefactor is at most S, so this one check covers them."""
    try:
        if atom.lambda_bar_g ** 1.5 < sys.float_info.min:
            raise ValueError(f"lambda_bar_g^(3/2) is subnormal for m_g = {atom.m_g:.6g}, "
                             f"so shift_prefactor would lose digits")
        if math.isfinite(shift_prefactor(atom)):
            return
    except OverflowError:   # lb^(3/2) for a tiny m_g, or the square, overflows
        pass
    raise ValueError(f"shift_prefactor leaves the float range for "
                     f"d_eg_abs = {atom.d_eg_abs:.6g}, m_g = {atom.m_g:.6g}")


_ATOM_KEYS = ("m_g_kg", "omega_eg_rad_s", "d_eg_Cm", "t_g_s")


def atom_from_dict(doc: dict) -> AtomParams:
    """Build AtomParams from a JSON-style document; unknown keys are rejected,
    and every value must be a number (a JSON true or "1.5e16" is not)."""
    if not isinstance(doc, dict):
        raise PresetError(f"an atom document is a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(_ATOM_KEYS)
    if unknown:
        raise PresetError(f"unknown atom keys {sorted(unknown)}; allowed: {list(_ATOM_KEYS)}")
    missing = set(_ATOM_KEYS) - set(doc)
    if missing:
        raise PresetError(f"missing atom keys {sorted(missing)}")
    for key in _ATOM_KEYS:
        if type(doc[key]) not in (int, float):   # bool is an int subclass
            raise PresetError(f"atom key {key} must be a number, got {doc[key]!r}")
    try:
        return AtomParams(m_g=float(doc["m_g_kg"]),
                          omega_eg=float(doc["omega_eg_rad_s"]),
                          d_eg_abs=float(doc["d_eg_Cm"]),
                          t_g=float(doc["t_g_s"]))
    except (OverflowError, ValueError) as exc:   # an int past the float range, or a bad value
        raise PresetError(f"invalid atom document: {exc}") from exc


def atom_to_dict(atom: AtomParams) -> dict:
    return {"m_g_kg": atom.m_g, "omega_eg_rad_s": atom.omega_eg,
            "d_eg_Cm": atom.d_eg_abs, "t_g_s": atom.t_g}


def hydrogen_1s2p_preset() -> AtomParams:
    """Hydrogen 1s->2p parameters: hbar omega = 0.75 * 13.6 eV,
    |d_eg| = sqrt(2) 2^7 3^-5 e a0, m_g = m_p + m_e, and t_g = 1 s.

    t_g only scales Z; rates and shifts are per unit time.
    """
    k = CODATA2018
    omega = 0.75 * 13.6 * k.e_charge / k.hbar
    dipole = math.sqrt(2.0) * 2 ** 7 * 3 ** -5.0 * k.e_charge * k.a0
    return AtomParams(m_g=k.m_proton + k.m_electron, omega_eg=omega,
                      d_eg_abs=dipole, t_g=1.0)


def synthetic_atom(delta_u: float) -> AtomParams:
    """Atom with a chosen delta_u (mass tuned to the hydrogen frequency and
    dipole).  All bracket formulas are scale-free in u, so convergence
    studies run at exaggerated delta_u where double precision can resolve
    the cubic terms; physical presets are used only for one-shot numbers.
    """
    if not 0.0 < delta_u < 0.1:
        raise ValueError("delta_u must be in (0, 0.1)")
    hydrogen = hydrogen_1s2p_preset()
    return replace(hydrogen, m_g=CODATA2018.hbar * hydrogen.omega_eg
                   / (delta_u * CODATA2018.c ** 2))


# ---------------------------------------------------------------------------
# decay rate
# ---------------------------------------------------------------------------

def _dipole_factor(atom: AtomParams) -> float:
    """|d|/(12 pi sqrt(eps0 hbar)), the square root of S lb^3."""
    return atom.d_eg_abs / (12.0 * math.pi * math.sqrt(CODATA2018.eps0 * CODATA2018.hbar))


def gamma_leading(atom: AtomParams) -> float:
    """Leading-order two-level spontaneous emission rate |d|^2 w^3/(3 pi hbar eps0 c^3)
    = 48 pi delta_u^3 S, with delta_u/lb = w/c exactly: the mass never enters.
    Each factor lies between the dipole factor and the root of the rate, so
    none leaves the float range where the rate does not."""
    k = atom.omega_eg / CODATA2018.c
    return 48.0 * math.pi * (_dipole_factor(atom) * math.sqrt(k) * k) ** 2


def gamma_ratio_minus_one(delta_u: float, denominator_power: int = 5) -> float:
    """gamma_exact/gamma_leading - 1 = (1 + delta_u/2)^3/(1 + delta_u)^P - 1,
    unit-free, as expm1 of its logarithm: nothing cancels at small delta_u."""
    if denominator_power not in (4, 5):
        raise ValueError("denominator_power must be 4 or 5")
    return math.expm1(3.0 * math.log1p(0.5 * delta_u)
                      - denominator_power * math.log1p(delta_u))


def gamma_exact(atom: AtomParams, denominator_power: int = 5) -> float:
    """All-orders rate delta_u^3 (2+delta_u)^3 |d|^2 / (24 pi (1+delta_u)^P eps0 hbar lb^3),
    as gamma_leading times a ratio <= 1: finite wherever gamma_leading is.

    P = 5 is the displayed closed-form denominator; P = 4 is what direct
    substitution of u = 1 + delta_u into the symmetrized bracket gives (the
    difference is the resonant weight, see wavepacket.z_factor).  Both are
    exposed; they differ at relative order delta_u.
    """
    return gamma_leading(atom) * (1.0 + gamma_ratio_minus_one(atom.delta_u, denominator_power))


# ---------------------------------------------------------------------------
# self-energy prefactors and the symmetrized bracket
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationConstants:
    """Coefficients of the degree-2 splitting-ambiguity polynomial."""

    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        for v in (self.c0, self.c1, self.c2):
            if not math.isfinite(v):
                raise ValueError("normalization constants must be finite")


def r2_prefactor(atom) -> float:
    """3 S/(2 pi^2 c): the unit of the split check, in 1/m."""
    return shift_prefactor(atom) * (1.5 / math.pi ** 2) / CODATA2018.c


def _front_term(u, x, ln_abs_x, step):
    """x^3/(2u^4) (step - 2 ln|x|), the branch-cut and log part of every bracket.

    Generic over float, ndarray, mpf and Decimal.  The caller supplies
    x = u^2 - 1 and ln|x| in whatever cancellation-free form it has, and
    step (2 pi i on the support, 0 off it).
    """
    return x ** 3 / (2 * u ** 4) * (step - 2 * ln_abs_x)


def _sym_bracket(u, x, ln_abs_x, step, c: NormalizationConstants):
    """Symmetrized bracket, generic over float, ndarray, mpf and Decimal:
    B = x^3/(2u^4) (step - 2 ln|x|) + 1/u^2 - 5/2 + 11u^2/6 + C0 + C1 u + C2 u^2,
    with the arguments of _front_term.  The terms are added left to right;
    the CLI output depends on that order to the last bit.  Every literal is
    an int, and 5/2 is formed as 5 u^0 / 2, so a Decimal u (with int step
    and C) never meets a float; for floats each term is the same to the bit.
    """
    return (_front_term(u, x, ln_abs_x, step) + 1 / u ** 2 - 5 * u ** 0 / 2
            + 11 * u ** 2 / 6 + c.c0 + c.c1 * u + c.c2 * u ** 2)


# ---------------------------------------------------------------------------
# line-shift series
# ---------------------------------------------------------------------------

class LineShiftSeries(NamedTuple):
    """Coefficients of the line-shift bracket, c_log3 du^3 log(2 du)
    + c0 + c1 du + c2 du^2 + c3 du^3 + O(du^4), in bracket units."""

    c_log3: float
    c0: float
    c1: float
    c2: float
    c3: float


def shift_prefactor(atom: AtomParams) -> float:
    """S = |d|^2 / (144 pi^2 eps0 hbar lb^3): the line shift in 1/s per bracket
    unit, and the one SI unit.  Squared last, so |d|^2 is never formed; only
    lb^(3/2) can leave the normal range before S does, for m_g past 1e163 kg,
    and AtomParams refuses those."""
    return (_dipole_factor(atom) / atom.lambda_bar_g ** 1.5) ** 2


def lineshift_series(c: NormalizationConstants = NormalizationConstants()) -> LineShiftSeries:
    """Analytic expansion coefficients of the line-shift bracket."""
    c0, c1, c2 = c.c0, c.c1, c.c2
    return LineShiftSeries(
        c_log3=-48.0,
        c0=2.0 + 6.0 * (c0 + c1 + c2),
        c1=8.0 - 6.0 * c0 + 6.0 * c2,
        c2=3.0 * (2.0 * c0 + 7.0),
        c3=-3.0 * (2.0 * c0 + 15.0),
    )


# Extraction design: 12 log-spaced points on [1e-9, 1e-7], a basis up to
# du^5, 60-digit decimal.  The sampled bracket is analytic-plus-log to all
# orders in delta_u, so the basis carries nuisance orders (du^k and
# du^k ln du for 3 <= k <= _EXTRACT_MAX_ORDER); the orders it leaves out bias
# the coefficients by about du_max^(_EXTRACT_MAX_ORDER - 2) times a ratio of
# series coefficients.  The samples are O(1) while c3 du^3 is at most du_max^3
# of them, so the arithmetic needs that many digits beyond those c3 keeps.
# Here the bias is at most 1.8e-18 of the largest coefficient, 55 digits
# already reach it, and so every fitted coefficient sits at float rounding.
# The LU factors of the normal matrix (cond 1.9e17, column-scaled) are formed
# 10 digits higher.
_EXTRACT_GRID_DECADES = (-9.0, -7.0)
_EXTRACT_POINTS = 12
_EXTRACT_MAX_ORDER = 5
_EXTRACT_DPS = 60
_C_ZERO = NormalizationConstants(0, 0, 0)   # int zeros, which Decimal accepts


def _digits(dps: int):
    """A decimal context of ``dps`` significant digits, for ``with``."""
    import decimal  # only the series fit needs decimal: import it on first use

    return decimal.localcontext(decimal.Context(prec=dps))


def _line_shift_samples(grid, ln_grid):
    """6 Re B(1 + du; C = 0) / (1 + du) at each Decimal du of ``grid``, whose
    ln du is that of ``ln_grid``, in _EXTRACT_DPS-digit arithmetic (bracket units)."""
    out = []
    with _digits(_EXTRACT_DPS):
        for du, ln_du in zip(grid, ln_grid):
            u = 1 + du
            re_b = _sym_bracket(u, du * (2 + du), ln_du + (2 + du).ln(), 0, _C_ZERO)
            out.append(6 * re_b / u)
    return out


def _lu_factor(m):
    """Overwrite the square matrix m (a list of rows) with its Doolittle LU
    factors, unpivoted: both systems solved here have nonzero leading minors
    (A^T A is positive definite; the normalization matrix is [[6, 6, 6],
    [-6, 0, 6], [6, 0, 0]] to within the fit's accuracy, its rows scaled)."""
    n = len(m)
    for j in range(n):
        for i in range(j + 1, n):
            m[i][j] /= m[j][j]
            for k in range(j + 1, n):
                m[i][k] -= m[i][j] * m[j][k]


def _lu_solve(lu, b):
    """Solve (L U) x = b for the factors of _lu_factor."""
    n = len(lu)
    x = list(b)
    for i in range(n):
        x[i] -= sum(lu[i][j] * x[j] for j in range(i))
    for i in reversed(range(n)):
        x[i] = (x[i] - sum(lu[i][j] * x[j] for j in range(i + 1, n))) / lu[i][i]
    return x


@functools.cache
def _series_design():
    """Grid, its ln du, column-scaled basis A (du^k, and du^k ln du for
    k >= 3), column scales, the LU factors of A^T A, the samples at C = 0
    and their derivatives in (C0, C1, C2), as lists of Decimal.  B is linear
    in C, so the derivatives are 6/u, 6 and 6 u.  All are the same for every
    C, so every fit shares them and only reads them."""
    from decimal import Decimal

    with _digits(_EXTRACT_DPS):
        lo, hi = _EXTRACT_GRID_DECADES
        ln10 = Decimal(10).ln()
        ln_grid = [ln10 * Decimal(lo + (hi - lo) * i / (_EXTRACT_POINTS - 1))
                   for i in range(_EXTRACT_POINTS)]
        grid = [v.exp() for v in ln_grid]
        rows = [[du ** k for k in range(3)]
                + [v for k in range(3, _EXTRACT_MAX_ORDER + 1)
                   for v in (du ** k, du ** k * ln_du)]
                for du, ln_du in zip(grid, ln_grid)]
        scale = [max(abs(v) for v in col) for col in zip(*rows)]
        a = [[v / s for v, s in zip(row, scale)] for row in rows]
        # A^T A, which _lu_factor overwrites with its factors: a Decimal
        # product commutes exactly, so the lower triangle mirrors the upper
        cols = list(zip(*a))
        lu = [[None] * len(cols) for _ in cols]
        for i, ci in enumerate(cols):
            for j in range(i, len(cols)):
                lu[i][j] = lu[j][i] = sum(p * q for p, q in zip(ci, cols[j]))
        columns = ([6 / (1 + du) for du in grid], [Decimal(6)] * len(grid),
                   [6 * (1 + du) for du in grid])
    with _digits(_EXTRACT_DPS + 10):
        _lu_factor(lu)
    return grid, ln_grid, a, scale, lu, _line_shift_samples(grid, ln_grid), columns


def _fit(design, y):
    """Least-squares fit of samples ``y`` on the design: the coefficients of
    every column of the column-scaled basis, as Decimal."""
    a, lu = design[2], design[4]
    with _digits(_EXTRACT_DPS):
        aty = [sum(p * v for p, v in zip(col, y)) for col in zip(*a)]
    with _digits(_EXTRACT_DPS + 10):
        return _lu_solve(lu, aty)


# The largest fit residual the extraction accepts, relative to the largest
# sample.  The basis reproduces the samples to 2.3e-31 of it at most (over
# C = 0, NORMALIZATION_EXACT and 50 random C in [-10, 10]^3): the bound
# leaves eleven orders of headroom and trips on sample noise of 1e-18.
_FIT_RESIDUAL_BOUND = 1e-20


def extract_series_numerically(c: NormalizationConstants = NormalizationConstants()
                               ) -> LineShiftSeries:
    """Fit the line-shift bracket sampled from the closed form.

    This is the independent oracle for the analytic coefficients: samples of
    6 Re B(1+du)/(1+du) on the standard grid are fitted against
    {1, du, du^2, du^3, du^3 ln du} (plus higher nuisance orders; the ln 2 of
    log(2 du) is absorbed into the du^3 column and re-separated analytically).
    The samples at C are those of the design at C = 0 plus C times their
    derivatives.  Raises FitResidualError if the basis does not reproduce
    them to _FIT_RESIDUAL_BOUND of the largest sample.
    """
    from decimal import Decimal

    design = _series_design()
    a, scale = design[2:4]
    y0, columns = design[5:]
    k0, k1, k2 = (Decimal(v) for v in (c.c0, c.c1, c.c2))   # exact
    with _digits(_EXTRACT_DPS):
        y = [v + k0 * p + k1 * q + k2 * r for v, p, q, r in zip(y0, *columns)]
    beta = _fit(design, y)
    with _digits(_EXTRACT_DPS):
        resid = max(abs(sum(p * b for p, b in zip(row, beta)) - v) for row, v in zip(a, y))
        c0, c1, c2, c3, c_log3 = (b / s for b, s in zip(beta[:5], scale))
        c3 -= c_log3 * Decimal(2).ln()   # log(2 du) = ln 2 + ln du
    # the constant coefficient dominates the sampled values on this grid,
    # so the data magnitude is its degenerate-fit-proof proxy
    leading = max(float(abs(v)) for v in y)
    if float(resid) > _FIT_RESIDUAL_BOUND * leading:
        raise FitResidualError(
            f"series fit residual {float(resid):.3e} exceeds {_FIT_RESIDUAL_BOUND:.0e} "
            f"of the leading coefficient scale {leading:.3e}")
    return LineShiftSeries(c_log3=float(c_log3), c0=float(c0), c1=float(c1),
                           c2=float(c2), c3=float(c3))


# ---------------------------------------------------------------------------
# normalization constants
# ---------------------------------------------------------------------------

NORMALIZATION_EXACT = NormalizationConstants(-3.5, 8.0, -29.0 / 6.0)


def solve_normalization() -> tuple[NormalizationConstants, LineShiftSeries]:
    """Fix (C0, C1, C2) by requiring the du^0, du^1, du^2 bracket coefficients
    of the numerically extracted series to vanish; returns them and the
    series fitted at them, which is the solve's own check.

    The fitted coefficients are exactly linear in C, so the 3x3 system is
    assembled from the design's sampling of the bracket at C = 0: its fit,
    and the fits of the samples' derivatives in C; it is solved in the fit's
    decimal arithmetic, and the check is extract_series_numerically at the
    solution.  Its residual cubic coefficient must match -3 (2 C0 + 15) to
    the extraction's float rounding; a violation raises, since it would mean
    the extraction and the closed form disagree.
    """
    design = _series_design()
    y0, columns = design[5:]

    # the 3x3 system M C = -v0 from the fitted (c0, c1, c2): v0 of the samples
    # at C = 0, column j of M of their derivative in C_j.  Their column-scaled
    # coefficients scale row i of the system by a constant, which leaves its
    # solution alone; no residual is formed, as the check fit below forms one
    v0, *derivs = [_fit(design, y)[:3] for y in (y0, *columns)]
    m = [list(row) for row in zip(*derivs)]
    with _digits(_EXTRACT_DPS + 10):
        _lu_factor(m)
        solved = _lu_solve(m, [-v for v in v0])
    result = NormalizationConstants(*[float(v) for v in solved])

    check = extract_series_numerically(result)
    expected = lineshift_series(result)
    # the extraction's budget, 4e-16 of the largest analytic coefficient
    # (|c_log3| = 48: 1.9e-14).  At the solved C the fitted cubic is off by 0,
    # and a du^3 term of 2e-14 added to the samples trips the bound
    bound = 4e-16 * max(abs(v) for v in expected)
    if abs(check.c3 - expected.c3) > bound:
        raise CausalAtomError(
            f"residual cubic coefficient {check.c3} does not match "
            f"-3(2 C0 + 15) = {expected.c3} within {bound:.2g}")
    return result, check


# ---------------------------------------------------------------------------
# final shift, reference shift, ratio
# ---------------------------------------------------------------------------

def lineshift_log_bracket(delta_u: float) -> float:
    """Bracket 1 + 2 log(2 delta_u); vanishes exactly at 2 delta_u = e^{-1/2}."""
    if delta_u <= 0:
        raise ValueError("delta_u must be positive")
    return 1.0 + 2.0 * math.log(2.0 * delta_u)


def delta_final(atom: AtomParams) -> float:
    """Line shift with the low-order terms normalized away:
    -(gamma/2pi) [1 + 2 log(2 delta_u)], gamma the leading-order rate."""
    return -gamma_leading(atom) / TWO_PI * lineshift_log_bracket(atom.delta_u)


def lamb_reference() -> float:
    """Reference hydrogen 1s->2p shift (m_e c^2 alpha^5 / pi hbar) *
    (-25.25 + (4/3) ln(alpha^-2)); used as a constant, not re-derived."""
    k = CODATA2018
    bracket = -25.25 + (4.0 / 3.0) * math.log(k.alpha ** -2.0)
    return k.m_electron * k.c ** 2 * k.alpha ** 5 / (math.pi * k.hbar) * bracket


def shift_ratio(atom: AtomParams) -> float:
    """delta_final / lamb_reference, signed: direct sign propagation gives a
    negative ratio while the quoted comparison value is positive (see
    DISCREPANCY_NOTES['ratio_sign']), so the CLI reports it and its abs."""
    return delta_final(atom) / lamb_reference()


# ---------------------------------------------------------------------------
# structured notes every report embeds
# ---------------------------------------------------------------------------

DISCREPANCY_NOTES = {
    "c_ordering": (
        "The quoted normalization assignment lists C1 = -29/6, C2 = 8, but the "
        "displayed linear bracket coefficient 8 - 6 C0 + 6 C2 forces the swapped "
        "ordering: the solved triple is (C0, C1, C2) = (-7/2, 8, -29/6).  This "
        "package solves the vanishing conditions and reports the solved ordering."
    ),
    "gamma_denominator_power": (
        "The displayed exact decay rate carries (1 + delta_u)^5 in the "
        "denominator; direct substitution of u = 1 + delta_u into the "
        "symmetrized self-energy gives power 4.  The difference is the "
        "resonant weight 1/u_res of the slow-atom reduction.  Default output "
        "uses power 5 ('inverse_u' weight); gamma_exact(denominator_power=4) "
        "and z_factor(resonant_weight='unity') expose the other reading."
    ),
    "ratio_sign": (
        "Direct propagation of the two shift formulas gives a negative "
        "shift-to-reference ratio (positive final shift over a negative "
        "reference); the quoted comparison value ~0.055 is positive.  Both the "
        "signed value and the magnitude are reported; acceptance bounds apply "
        "to the magnitude."
    ),
    "r2_rational_part": (
        "The closed form r2_tilde_closed (split-check re_closed, im_closed) "
        "carries half of the rational part of the symmetrized bracket B, so "
        "re_closed - re_numeric = r2_prefactor (5/4 - 11u^2/12 - 1/(2u^2)).  "
        "The central splitting (re_numeric, im_numeric) reproduces "
        "r2_prefactor B(u; C = 0) in full, with the step 2 pi i sgn(u); "
        "re_rel_err measures its real part against that."
    ),
}
