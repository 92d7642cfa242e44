"""Time-evolution kernel for the mode-discretized emission simulator.

A vectorized numpy Crank-Nicolson loop.  It is deterministic: the mode
reduction is a fixed-order numpy sum, and no threading is used.

The step is the Cayley form (I + i H dt/2) c+ = (I - i H dt/2) c with H the
rotating-frame coupling Hamiltonian frozen at the midpoint, which is exactly
unitary; the arrow structure of H (only e<->k couplings) reduces the solve
to one scalar division per step.
"""

from __future__ import annotations

import numpy as np

__all__ = ["evolve_amplitudes"]


def evolve_amplitudes(detunings, couplings, dt, n_steps, stride):
    """Run the Crank-Nicolson loop; returns (times, c_e, norms).

    Samples are taken every ``stride`` steps; the norm at a sample is
    |c_e|^2 plus the sum of |c_k|^2 over the live mode amplitudes, which are
    not kept.  Inputs are in scaled units (caller's choice); the kernel is
    unit-agnostic.
    """
    detunings = np.ascontiguousarray(detunings, dtype=np.float64)
    couplings = np.ascontiguousarray(couplings, dtype=np.float64)
    n_samples = n_steps // stride
    ce_out = np.zeros(n_samples, dtype=np.complex128)
    norm_out = np.zeros(n_samples, dtype=np.float64)
    t_out = np.zeros(n_samples, dtype=np.float64)

    c_e = 1.0 + 0.0j
    c_k = np.zeros(detunings.shape[0], dtype=np.complex128)
    a = 0.5 * dt
    big_g = float(np.sum(couplings * couplings))
    denom = 1.0 + a * a * big_g
    phase = np.exp(1j * detunings * (0.5 * dt))
    step_phase = np.exp(1j * detunings * dt)
    idx = 0
    t = 0.0
    for step in range(n_steps):
        h = couplings * phase
        s = np.sum(h * c_k)
        ce_new = ((1.0 - a * a * big_g) * c_e - 2j * a * s) / denom
        c_k = c_k - 1j * a * np.conj(h) * (c_e + ce_new)
        c_e = ce_new
        phase = phase * step_phase
        t += dt
        if (step + 1) % stride == 0:
            ce_out[idx] = c_e
            norm_out[idx] = abs(c_e) ** 2 + float(np.sum(np.abs(c_k) ** 2))
            t_out[idx] = t
            idx += 1
    return t_out, ce_out, norm_out
