"""Independent decay-rate oracle: mode-discretized single-excitation dynamics.

A flat band of field modes is coupled to the excited state with a uniform
strength calibrated so the golden-rule rate equals the leading-order
spontaneous emission rate; the rotating-frame amplitude equations

    dc_e/dt = -i sum_k g_k exp(+i Delta_k t) c_k
    dc_k/dt = -i g_k exp(-i Delta_k t) c_e

are integrated with an exactly norm-preserving Crank-Nicolson step.  Couplings
are flat rather than frequency-weighted: the oracle targets the on-resonance
rate, where only the on-shell mode density matters; the cutoff-logarithm
study is qualitative by design.

Everything here is in units of the target rate gamma: the detunings
Delta_k from the transition frequency, the coupling, times and the fitted
rate and shift.  The comb is calibrated so its golden-rule rate is 1, and
its edges are exactly the detunings asked for.  The caller converts to and
from SI (in the CLI, gamma = gamma_leading of the atom, in
cli._cmd_ww_sim alone).

The step is the Cayley form (I + i H dt/2) c+ = (I - i H dt/2) c with H the
rotating-frame coupling Hamiltonian frozen at the midpoint, which is exactly
unitary.  H only couples the excited state to the modes, and the step is
linear, so the mode amplitudes are eliminated exactly: with a = dt/2 and
b_m = c_e(m) + c_e(m+1), step n sees the modes only through

    s_n = -i a sum_{m<n} K(n-m) b_m,    K(j) = sum_k g_k^2 exp(i Delta_k j dt),

and sum_k |c_k|^2 grows by a^2 G |b_n|^2 + 2 Re(conj(s_n) (-i a) b_n) with
G = sum_k g_k^2.  For the flat uniform comb (equal g, Delta_k = Delta_c +
(k - (N-1)/2) delta) K is the Dirichlet sum
g^2 exp(i Delta_c j dt) sin(N x_j) / sin(x_j), x_j = delta j dt / 2, so the
comb is three numbers (its edges and mode count) and the cost does
not depend on the number of modes.

The history sum is the blocked fast convolution of Hairer, Lubich and
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): pairs (m, n) in the same
BLOCK-step block are summed directly, and every other pair lies in exactly
one square [n0 - B, n0) x [n0, n0 + B), B = n0 & -n0, added by one FFT when
step n0 is reached.  Within a block the steps form a unit lower-triangular
Toeplitz system, the same for every block.  Its inverse is the Toeplitz
matrix of the reciprocal power series of its first column, so the block's
response to its first amplitude and to the history from earlier blocks is
built once, in closed form, and the decay fit is the closed-form
least-squares line.  No product here goes to BLAS or LAPACK: their first call
in a process touches about 2 MB of buffers, which raised ww-sim's peak RSS
from 30.6 to 32.6 MB, where the block system is 64 KB.  Everything is
deterministic (fixed-order numpy reductions, no threading of our own).

Grid choices here (uniform spacing, flat couplings, window placement) are
this module's own and are recorded in the CLI output metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FitResidualError, GridResolutionError, NormDriftError

__all__ = [
    "ModeGrid",
    "build_grid",
    "build_grid_window",
    "evolve",
    "evolve_amplitudes",
    "fit_decay",
]

MIN_MODES = 1000
MAX_MODES = 1_000_000
MAX_STEPS = 1_000_000
NORM_TOLERANCE = 1e-6
BLOCK = 64  # steps whose mutual history is summed directly


@dataclass(frozen=True)
class ModeGrid:
    """Uniform comb of n_modes detunings from lo to hi, each coupled with the
    same strength coupling; all in units of gamma.

    The coupling is calibrated on the density n_modes/bandwidth
    (2 pi g^2 density = 1); the actual comb spacing is bandwidth/(n_modes - 1).
    """

    lo: float
    hi: float
    n_modes: int

    def __post_init__(self):
        if not (self.lo < self.hi and self.n_modes >= 2):
            raise GridResolutionError(
                f"a comb needs lo < hi and at least 2 modes, got "
                f"[{self.lo}, {self.hi}] with {self.n_modes}")

    @property
    def coupling(self) -> float:
        return math.sqrt((self.hi - self.lo) / (2.0 * math.pi * self.n_modes))

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_modes - 1)

    def max_detuning(self) -> float:
        """Largest |Delta_k| over the comb, reached at an edge."""
        return max(abs(self.lo), abs(self.hi))


def _calibrated_grid(lo: float, hi: float, n_modes: int) -> ModeGrid:
    if n_modes < MIN_MODES:
        raise GridResolutionError(f"need at least {MIN_MODES} modes, got {n_modes}")
    if n_modes > MAX_MODES:
        raise GridResolutionError(f"at most {MAX_MODES} modes allowed, got {n_modes}")
    spacing = (hi - lo) / (n_modes - 1)
    if spacing > 0.1:
        raise GridResolutionError(
            f"mode spacing {spacing:.4g} exceeds 0.1; the comb would not resolve the line")
    return ModeGrid(lo, hi, n_modes)


def build_grid(bandwidth: float, n_modes: int) -> ModeGrid:
    """Uniform comb of width bandwidth centred on the transition."""
    if not math.isfinite(bandwidth):
        raise GridResolutionError(f"bandwidth must be finite, got {bandwidth}")
    if bandwidth < 40.0:
        raise GridResolutionError(f"bandwidth {bandwidth:.12g} below 40")
    return _calibrated_grid(-0.5 * bandwidth, 0.5 * bandwidth, n_modes)


def build_grid_window(lo: float, hi: float, n_modes: int) -> ModeGrid:
    """Asymmetric window of detunings [lo, hi]; used for cutoff studies."""
    if not lo < 0.0 < hi:
        raise GridResolutionError(
            f"window [{lo}, {hi}] must contain detuning 0, the transition")
    return _calibrated_grid(lo, hi, n_modes)


def _dirichlet_kernel(center, spacing, n_modes, g2, dt, n_lags):
    """K(j) for j = 0 .. n_lags - 1.

    sin(N x)/sin(x) is evaluated at y = x - m pi, m = rint(x / pi), times
    (-1)^(m (N - 1)), so the peaks at the comb's revivals (sin x -> 0) stay
    at their full height N instead of becoming 0/0 in rounding.
    """
    j = np.arange(n_lags, dtype=np.float64)
    y = j * (0.5 * spacing * dt)
    m = np.rint(y / np.pi)
    y -= m * np.pi
    den = np.sin(y)
    ratio = np.sin(n_modes * y)
    np.divide(ratio, den, out=ratio, where=den != 0.0)
    ratio[den == 0.0] = n_modes
    if n_modes % 2 == 0:
        ratio[m % 2 == 1] *= -1.0
    ratio *= g2
    j *= center * dt
    out = np.exp(1j * j)
    out *= ratio
    return out


def _add_square(acc, b, lags, spectra, n0):
    """Add to acc[n0 : n0 + B] the history carried from b[n0 - B : n0],
    B = n0 & -n0: the lags 1 .. 2B - 1 of one square, by one FFT.  The
    spectrum of lags[0 : 2B] is kept while a later square of that size fits."""
    size = n0 & -n0
    spec = spectra.get(size)
    if spec is None:
        spec = np.fft.fft(lags[:2 * size])
        if n0 + 2 * size < acc.size:
            spectra[size] = spec
    conv = np.fft.ifft(np.fft.fft(b[n0 - size:n0], 2 * size) * spec)
    stop = min(n0 + size, acc.size)
    acc[n0:stop] += conv[size:size + stop - n0]


def _lower_toeplitz(col):
    """The lower-triangular Toeplitz matrix with first column col."""
    lag = np.subtract.outer(np.arange(col.size), np.arange(col.size))
    return np.where(lag >= 0, col[np.maximum(lag, 0)], 0.0)


def _block_response(k, alpha, gam):
    """(u, w) of one block: the steps x = c_e(n0+1 .. n0+B) solve
    T(a) x = alpha c_e(n0) e_0 + gam (k c_e(n0) + h), k = [0, K(1) .. K(B-1)].

    T(a) is unit lower-triangular Toeplitz with first column
    a = [1, -alpha - gam K(1), -gam (K(j) + K(j-1)) ...], so its inverse is
    T(b), b the reciprocal power series of a (b_0 = 1,
    b_j = -sum_{i=1..j} a_i b_{j-i}).  Then w = gam T(b) and
    u = alpha b + w k, summed by numpy's own loops (einsum), not by BLAS.
    """
    a = -gam * (k + np.concatenate(([0.0], k[:-1])))
    a[0], a[1] = 1.0, a[1] - alpha
    b = np.empty_like(a)
    b[0] = 1.0
    for j in range(1, b.size):
        b[j] = -np.einsum("i,i->", a[j:0:-1], b[:j])
    w = gam * _lower_toeplitz(b)
    return alpha * b + np.einsum("ij,j->i", w, k), w


def evolve_amplitudes(center, spacing, n_modes, coupling, dt, n_steps, stride):
    """Run the Crank-Nicolson steps; returns (times, c_e, norms).

    The comb is n_modes detunings spaced by ``spacing`` around ``center``,
    each with the same ``coupling``.  Samples are taken every ``stride``
    steps; the norm at a sample is |c_e|^2 plus the sum of |c_k|^2 of the
    full state, carried in O(1) per step.
    """
    g2 = coupling ** 2
    big_g = n_modes * g2
    n_pad = -(-n_steps // BLOCK) * BLOCK
    # K(j) up to the lags of the largest square, 2B for the largest power of
    # two B among the block starts; each square and the block take a prefix
    top = max(n_pad - BLOCK, BLOCK)
    lags = _dirichlet_kernel(center, spacing, n_modes, g2, dt, 2 << (top.bit_length() - 1))

    # One step is c_e(n+1) = alpha c_e(n) + gam (h_n + sum_{n0<=m<n} K(n-m) b_m),
    # h_n the history from the blocks before n0.  Over one block these steps
    # are a lower-triangular Toeplitz system in x = c_e(n0+1 .. n0+BLOCK), the
    # same for every block; its solution is x = u c_e(n0) + w h.
    a = 0.5 * dt
    alpha = (1.0 - a * a * big_g) / (1.0 + a * a * big_g)
    gam = -2.0 * a * a / (1.0 + a * a * big_g)
    k = lags[:BLOCK].copy()
    k[0] = 0.0  # lag 0, the sum G, is folded into alpha
    near = _lower_toeplitz(k)
    u, w = _block_response(k, alpha, gam)

    n_samples = n_steps // stride
    ce_out = np.empty(n_samples, dtype=np.complex128)
    norm_out = np.empty(n_samples, dtype=np.float64)
    b = np.empty(n_pad, dtype=np.complex128)
    acc = np.zeros(n_pad, dtype=np.complex128)
    spectra = {}
    c_e, mode_norm = 1.0 + 0.0j, 0.0
    for n0 in range(0, n_pad, BLOCK):
        if n0:
            _add_square(acc, b, lags, spectra, n0)
        h = acc[n0:n0 + BLOCK]
        x = u * c_e + np.einsum("ij,j->i", w, h)
        bb = b[n0:n0 + BLOCK] = np.concatenate(([c_e], x[:-1])) + x
        s = -1j * a * (h + np.einsum("ij,j->i", near, bb))
        gain = a * a * big_g * np.abs(bb) ** 2 + 2.0 * (np.conj(s) * (-1j * a) * bb).real
        modes = mode_norm + np.cumsum(gain)
        first, last = n0 // stride, min((n0 + BLOCK) // stride, n_samples)
        pick = np.arange(first + 1, last + 1) * stride - n0 - 1
        ce_out[first:last] = x[pick]
        norm_out[first:last] = np.abs(x[pick]) ** 2 + modes[pick]
        c_e, mode_norm = x[-1], modes[-1]

    # t accumulates dt step by step, as a running clock would
    t_out = np.full(n_steps, float(dt))
    np.cumsum(t_out, out=t_out)
    return t_out[stride - 1:n_samples * stride:stride], ce_out, norm_out


def evolve(grid: ModeGrid, t_end: float, dt: float | None = None):
    """Integrate the amplitude equations to t_end; returns arrays (t, c_e, norm)
    of about 600 samples, norm the total |c_e|^2 + sum |c_k|^2 of the state.

    dt must resolve the fastest detuning, dt * max|Delta| < 0.2; the default
    is 0.19 / max|Delta|.  Raises GridResolutionError, before any
    allocation, for a non-finite or non-positive dt or t_end, a dt that does
    not resolve the comb or more than MAX_STEPS steps, and NormDriftError
    if norm conservation degrades beyond 1e-6.
    """
    max_det = grid.max_detuning()
    dt = 0.19 / max_det if dt is None else dt
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not (math.isfinite(value) and value > 0.0):
            raise GridResolutionError(f"{name} must be finite and positive, got {value}")
    if dt * max_det >= 0.2:
        raise GridResolutionError(
            f"dt = {dt:.12g} does not resolve the fastest detuning {max_det:.12g} "
            "(need dt * max|detuning| < 0.2)")
    if t_end / dt > MAX_STEPS:
        raise GridResolutionError(
            f"t_end / dt = {t_end / dt:.3e} exceeds {MAX_STEPS} time steps")
    n_steps = int(math.ceil(t_end / dt))
    ts, ces, norms = evolve_amplitudes(0.5 * (grid.lo + grid.hi), grid.spacing,
                                       grid.n_modes, grid.coupling, dt, n_steps,
                                       max(1, n_steps // 600))
    drift = float(np.abs(norms - 1.0).max())
    if drift > NORM_TOLERANCE:
        raise NormDriftError(f"norm drift {drift:.3e} exceeds {NORM_TOLERANCE}",
                             drift=drift)
    return ts, ces, norms


class DecayFit(NamedTuple):
    rate: float          # decay rate of |c_e|^2, in the inverse time unit of ts
    shift: float         # energy shift of the excited level, in the same unit
    fit_residual: float  # RMS residual of the log-magnitude fit


_RESIDUAL_LIMIT = 0.05  # ln units; exponential traces sit orders below this


def fit_decay(ts, ces) -> DecayFit:
    """Rate from a straight-line fit to ln |c_e|^2; shift from the phase slope.

    ts and ces are arrays of sample times and amplitudes, as evolve returns
    them.  The fit window drops the initial transient: a rough rate from the trace
    endpoints picks [1/rate, 5/rate].  The shift sign convention is
    c_e ~ exp(-i shift t): a positive shift means the level moved up.
    """
    if ts.size < 8:
        raise FitResidualError("trace too short to fit")
    p2 = np.abs(ces) ** 2
    if np.any(p2 <= 0.0):
        raise FitResidualError("excited-state population reached zero exactly")
    rough = -(math.log(p2[-1]) - math.log(p2[0])) / (ts[-1] - ts[0])
    if rough <= 0.0:
        raise FitResidualError("no net decay over the trace")
    mask = ts >= 1.0 / rough
    if mask.sum() < 8:
        mask = ts >= ts[ts.size // 4]
    # least-squares lines in t, centred on the window's mean time
    t = ts[mask] - ts[mask].mean()
    tt = (t * t).sum()
    log_p2 = np.log(p2[mask])
    slope = (t * log_p2).sum() / tt
    residual = float(np.sqrt(np.mean((log_p2.mean() + slope * t - log_p2) ** 2)))
    if residual > _RESIDUAL_LIMIT:
        raise FitResidualError(
            f"log-magnitude fit residual {residual:.3e} exceeds {_RESIDUAL_LIMIT} "
            "(trace is not exponential over the window)")
    phase = np.unwrap(np.angle(ces[mask]))
    shift = -(t * phase).sum() / tt
    return DecayFit(rate=float(-slope), shift=float(shift), fit_residual=residual)
