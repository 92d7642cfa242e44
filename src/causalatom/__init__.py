"""Causal distribution splitting for the two-level-atom self-energy.

Modules:
  numerics     fixed double-exponential quadrature on a nested step ladder
  splitting    retarded/advanced parts of 1-D momentum-space causal distributions
  observables  constants, presets, SI prefactors, bracket, rate, shift; no numpy
  selfenergy   closed-form self-energy distributions, the bracket over arrays
  wavepacket   Z factor and the test-function / wavepacket reduction cross-check
  wworacle     independent mode-discretization decay-rate oracle
  cli          batch command-line surface
"""

__version__ = "0.1.0"
