"""Time-evolution kernel for the mode-discretized emission simulator.

The step is the Cayley (Crank-Nicolson) form (I + i H dt/2) c+ = (I - i H dt/2) c
with H the rotating-frame coupling Hamiltonian frozen at the midpoint, which
is exactly unitary.  H only couples the excited state to the modes, and the
step is linear, so the mode amplitudes are eliminated exactly: with a = dt/2
and b_m = c_e(m) + c_e(m+1), step n sees the modes only through

    s_n = -i a sum_{m<n} K(n-m) b_m,    K(j) = sum_k g_k^2 exp(i Delta_k j dt),

and sum_k |c_k|^2 grows by a^2 G |b_n|^2 + 2 Re(conj(s_n) (-i a) b_n) with
G = sum_k g_k^2.  For the flat uniform comb (equal g, Delta_k = Delta_c +
(k - (N-1)/2) delta) K is the Dirichlet sum
g^2 exp(i Delta_c j dt) sin(N x_j) / sin(x_j), x_j = delta j dt / 2, so the
cost no longer depends on the number of modes.

The history sum is the blocked fast convolution of Hairer, Lubich and
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): pairs (m, n) in the same
BLOCK-step block are summed directly, and every other pair lies in exactly
one square [n0 - B, n0) x [n0, n0 + B), B = n0 & -n0, added by one FFT when
step n0 is reached.  Within a block the steps form a lower-triangular linear
system, solved once for the block's response to its first amplitude and to
the history from earlier blocks.  Everything is deterministic (fixed-order
numpy reductions, no threading of our own).
"""

from __future__ import annotations

import numpy as np

from .errors import GridResolutionError

__all__ = ["evolve_amplitudes", "check_uniform_comb"]

BLOCK = 64  # steps whose mutual history is summed directly


def check_uniform_comb(values, what: str) -> None:
    """Raise GridResolutionError unless ``values`` is a uniform comb.

    A uniform comb written in floats sits off the exact comb by at most
    3.5 eps M, M the larger |endpoint|: np.linspace rounds hi - lo, the step
    and i * step, each at the scale of the span (at most 2M), and the sum at
    M.  The reference here is np.linspace through the same endpoints, so a
    uniform comb agrees with it to 7 eps M; anything further off is not one.
    """
    if values.size == 0:
        raise GridResolutionError(f"{what}: need at least one mode")
    ideal = np.linspace(values[0], values[-1], values.size)
    off = float(np.abs(values - ideal).max())
    allowed = 7.0 * np.finfo(np.float64).eps * max(abs(values[0]), abs(values[-1]))
    if not off <= allowed:
        raise GridResolutionError(
            f"{what} are not a uniform comb: a point is {off:.3e} off the comb "
            f"through the endpoints (rounding allows {allowed:.3e})")


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


def _add_square(acc, b, kernel, spectra, n0):
    """Add to acc[n0 : n0 + B] the history carried from b[n0 - B : n0],
    B = n0 & -n0: the lags 1 .. 2B - 1 of one square, by one FFT.  The
    spectrum of K[0 : 2B] is kept while a later square of that size fits."""
    size = n0 & -n0
    spec = spectra.get(size)
    if spec is None:
        spec = np.fft.fft(kernel(2 * size))
        if n0 + 2 * size < acc.size:
            spectra[size] = spec
    conv = np.fft.ifft(np.fft.fft(b[n0 - size:n0], 2 * size) * spec)
    stop = min(n0 + size, acc.size)
    acc[n0:stop] += conv[size:size + stop - n0]


def evolve_amplitudes(detunings, couplings, dt, n_steps, stride):
    """Run the Crank-Nicolson steps; returns (times, c_e, norms).

    Samples are taken every ``stride`` steps; the norm at a sample is
    |c_e|^2 plus the sum of |c_k|^2 of the full state, carried in O(1) per
    step.  The modes must be a uniform comb with equal couplings
    (GridResolutionError otherwise).  Inputs are in scaled units (caller's
    choice); the kernel is unit-agnostic.
    """
    detunings = np.ascontiguousarray(detunings, dtype=np.float64)
    couplings = np.ascontiguousarray(couplings, dtype=np.float64)
    check_uniform_comb(detunings, "detunings")
    if couplings.shape != detunings.shape or np.any(couplings != couplings[0]):
        raise GridResolutionError("couplings must be equal, one per mode")
    n_modes = detunings.size
    center = 0.5 * (detunings[0] + detunings[-1])
    spacing = (detunings[-1] - detunings[0]) / max(n_modes - 1, 1)
    g2 = float(couplings[0]) ** 2
    big_g = n_modes * g2

    def kernel(n_lags):
        return _dirichlet_kernel(center, spacing, n_modes, g2, dt, n_lags)

    # One step is c_e(n+1) = alpha c_e(n) + gam (h_n + sum_{n0<=m<n} K(n-m) b_m),
    # h_n the history from the blocks before n0.  Over one block these steps
    # are a lower-triangular system in x = c_e(n0+1 .. n0+BLOCK), the same
    # for every block; its solution is x = u c_e(n0) + w h.
    a = 0.5 * dt
    alpha = (1.0 - a * a * big_g) / (1.0 + a * a * big_g)
    gam = -2.0 * a * a / (1.0 + a * a * big_g)
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    near = np.where(lag > 0, kernel(BLOCK)[np.maximum(lag, 0)], 0.0)
    eye, shift = np.eye(BLOCK), np.eye(BLOCK, k=-1)
    system = eye - alpha * shift - gam * near @ (eye + shift)
    rhs = np.column_stack([alpha * eye[:, 0] + gam * near[:, 0], gam * eye])
    response = np.linalg.solve(system, rhs)
    u, w = response[:, 0], response[:, 1:]

    n_samples = n_steps // stride
    ce_out = np.empty(n_samples, dtype=np.complex128)
    norm_out = np.empty(n_samples, dtype=np.float64)
    n_pad = -(-n_steps // BLOCK) * BLOCK
    b = np.empty(n_pad, dtype=np.complex128)
    acc = np.zeros(n_pad, dtype=np.complex128)
    spectra = {}
    c_e, mode_norm = 1.0 + 0.0j, 0.0
    for n0 in range(0, n_pad, BLOCK):
        if n0:
            _add_square(acc, b, kernel, spectra, n0)
        h = acc[n0:n0 + BLOCK]
        x = u * c_e + w @ h
        bb = b[n0:n0 + BLOCK] = np.concatenate(([c_e], x[:-1])) + x
        s = -1j * a * (h + near @ bb)
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
