"""Causal distribution splitting for the two-level-atom self-energy.

Modules:
  numerics     fixed double-exponential quadrature on a nested step ladder
  splitting    retarded/advanced parts of 1-D momentum-space causal distributions
  selfenergy   closed-form self-energy distributions and their symmetrization
  observables  constants, atom presets, decay rate, line shift, normalization
  wavepacket   test-function / wavepacket reduction cross-check
  wworacle     independent mode-discretization decay-rate oracle
  cli          batch command-line surface
"""

__version__ = "0.1.0"
