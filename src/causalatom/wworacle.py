"""Independent decay-rate oracle: mode-discretized single-excitation dynamics.

A flat band of field modes is coupled to the excited state with a uniform
strength calibrated so the golden-rule rate equals the leading-order
spontaneous emission rate; the rotating-frame amplitude equations

    dc_e/dt = -i sum_k g_k exp(+i Delta_k t) c_k
    dc_k/dt = -i g_k exp(-i Delta_k t) c_e

are integrated with an exactly norm-preserving Crank-Nicolson step, with the
modes eliminated into a memory kernel (see _ww_kernels), so the cost does
not depend on the number of modes.  Couplings are flat rather than
frequency-weighted: the oracle targets the on-resonance rate, where only the
on-shell mode density matters; the cutoff-logarithm study is qualitative by
design.  Internally everything is scaled so the target rate is 1; SI units
are restored at the boundary.

Grid choices here (uniform spacing, flat couplings, window placement) are
this module's own and are recorded in the CLI output metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ww_kernels import check_uniform_comb, evolve_amplitudes
from .errors import FitResidualError, GridResolutionError, NormDriftError
from .observables import AtomParams, gamma_leading

__all__ = [
    "ModeGrid",
    "AmplitudeState",
    "build_grid",
    "build_grid_window",
    "evolve",
    "fit_decay",
]

MIN_MODES = 1000
MAX_MODES = 1_000_000
MAX_STEPS = 1_000_000
NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ModeGrid:
    """Uniform frequency comb with flat couplings.

    Frequencies that are not a uniform comb to within float rounding raise
    GridResolutionError (the kernel works from the comb's endpoints).
    density is the calibration density n_modes/bandwidth used to fix the
    coupling (2 pi g^2 density = gamma_target); the actual comb spacing is
    bandwidth/(n_modes - 1).
    """

    frequencies: np.ndarray  # rad/s, strictly increasing
    couplings: np.ndarray    # rad/s, one per mode
    density: float           # modes per rad/s
    gamma_target: float      # 1/s

    def __post_init__(self):
        if np.any(np.diff(self.frequencies) <= 0):
            raise GridResolutionError("mode frequencies must be strictly increasing")
        check_uniform_comb(self.frequencies, "mode frequencies")

    @property
    def spacing(self) -> float:
        # end-to-end difference: adjacent-pair subtraction at optical
        # frequencies loses ~9 digits to cancellation
        return float((self.frequencies[-1] - self.frequencies[0])
                     / (self.frequencies.size - 1))

    @property
    def revival_time(self) -> float:
        return 2.0 * math.pi / self.spacing


@dataclass(frozen=True)
class AmplitudeState:
    """Excited-state amplitude at time t, with the total norm
    |c_e|^2 + sum |c_k|^2 of the full state at that time."""

    c_e: complex
    norm: float
    t: float


def _calibrated_grid(omega_lo: float, omega_hi: float, n_modes: int,
                     gamma: float) -> ModeGrid:
    if n_modes < MIN_MODES:
        raise GridResolutionError(f"need at least {MIN_MODES} modes, got {n_modes}")
    if n_modes > MAX_MODES:
        raise GridResolutionError(f"at most {MAX_MODES} modes allowed, got {n_modes}")
    span = omega_hi - omega_lo
    spacing = span / (n_modes - 1)
    if spacing > gamma / 10.0:
        raise GridResolutionError(
            f"mode spacing {spacing:.3e} exceeds gamma/10 = {gamma / 10:.3e}; "
            "the comb would not resolve the line")
    density = n_modes / span
    g = math.sqrt(gamma / (2.0 * math.pi * density))
    freqs = np.linspace(omega_lo, omega_hi, n_modes)
    return ModeGrid(frequencies=freqs, couplings=np.full(n_modes, g),
                    density=density, gamma_target=gamma)


def build_grid(atom: AtomParams, bandwidth: float, n_modes: int) -> ModeGrid:
    """Uniform grid centered on the transition, calibrated to gamma_leading."""
    gamma = gamma_leading(atom)
    if not math.isfinite(bandwidth):
        raise GridResolutionError(f"bandwidth must be finite, got {bandwidth}")
    if bandwidth < 40.0 * gamma:
        raise GridResolutionError(
            f"bandwidth {bandwidth:.3e} below 40 gamma = {40 * gamma:.3e}")
    return _calibrated_grid(atom.omega_eg - bandwidth / 2.0,
                            atom.omega_eg + bandwidth / 2.0, n_modes, gamma)


def build_grid_window(atom: AtomParams, omega_lo: float, omega_hi: float,
                      n_modes: int) -> ModeGrid:
    """Asymmetric window [omega_lo, omega_hi]; used for cutoff studies."""
    if not omega_lo < atom.omega_eg < omega_hi:
        raise GridResolutionError("window must contain the transition frequency")
    return _calibrated_grid(omega_lo, omega_hi, n_modes, gamma_leading(atom))


def evolve(grid: ModeGrid, atom: AtomParams, t_end: float, dt: float,
           sample_stride: int | None = None) -> list[AmplitudeState]:
    """Integrate the amplitude equations to t_end; samples every stride steps.

    dt must resolve the fastest detuning (dt * max|Delta| < 0.2, i.e. the
    comb half-width criterion dt * bandwidth/2 < 0.1 for centered grids).
    Raises GridResolutionError, before any allocation, for a non-finite or
    non-positive dt or t_end or more than MAX_STEPS steps (and, from the
    kernel, for couplings that are not all equal), and NormDriftError if norm
    conservation degrades beyond 1e-6.
    """
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not (math.isfinite(value) and value > 0.0):
            raise GridResolutionError(f"{name} must be finite and positive, got {value}")
    gamma = grid.gamma_target
    detun = grid.frequencies - atom.omega_eg
    max_det = float(np.abs(detun).max())
    if dt * max_det >= 0.2:
        raise GridResolutionError(
            f"dt = {dt:.3e} does not resolve the fastest detuning "
            f"{max_det:.3e} rad/s (need dt * max|detuning| < 0.2)")
    if t_end / dt > MAX_STEPS:
        raise GridResolutionError(
            f"t_end / dt = {t_end / dt:.3e} exceeds {MAX_STEPS} time steps")
    n_steps = int(math.ceil(t_end / dt))
    if sample_stride is None:
        sample_stride = max(1, n_steps // 600)

    # scale time by the target rate so the kernel works near unity; the comb
    # is rewritten at the scale of the detunings, where it is uniform to the
    # last bit, rather than carrying the rounding of the optical frequencies
    scaled = np.linspace(detun[0] / gamma, detun[-1] / gamma, detun.size)
    ts, ces, norms = evolve_amplitudes(
        scaled, grid.couplings / gamma, dt * gamma, n_steps, sample_stride)
    drift = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
    if drift > NORM_TOLERANCE:
        raise NormDriftError(f"norm drift {drift:.3e} exceeds {NORM_TOLERANCE}",
                             drift=drift)
    return [AmplitudeState(c_e=complex(ces[i]), norm=float(norms[i]), t=float(ts[i] / gamma))
            for i in range(ts.size)]


@dataclass(frozen=True)
class DecayFit:
    rate: float          # 1/s
    shift: float         # rad/s; energy shift of the excited level
    fit_residual: float  # RMS residual of the log-magnitude fit


_RESIDUAL_LIMIT = 0.05  # ln units; exponential traces sit orders below this


def fit_decay(trace: list[AmplitudeState]) -> DecayFit:
    """Rate from a straight-line fit to ln |c_e|^2; shift from the phase slope.

    The fit window drops the initial transient: a rough rate from the trace
    endpoints picks [1/rate, 5/rate].  The shift sign convention is
    c_e ~ exp(-i shift t): a positive shift means the level moved up.
    """
    ts = np.array([s.t for s in trace])
    ces = np.array([s.c_e for s in trace])
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
    a = np.column_stack([np.ones(int(mask.sum())), ts[mask]])
    coef, *_ = np.linalg.lstsq(a, np.log(p2[mask]), rcond=None)
    rate = -coef[1]
    residual = float(np.sqrt(np.mean((a @ coef - np.log(p2[mask])) ** 2)))
    if residual > _RESIDUAL_LIMIT:
        raise FitResidualError(
            f"log-magnitude fit residual {residual:.3e} exceeds {_RESIDUAL_LIMIT} "
            "(trace is not exponential over the window)")
    phase = np.unwrap(np.angle(ces[mask]))
    pcoef, *_ = np.linalg.lstsq(a, phase, rcond=None)
    shift = -pcoef[1]
    return DecayFit(rate=float(rate), shift=float(shift), fit_residual=residual)
