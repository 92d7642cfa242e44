"""Exception types shared across the package."""


class CausalAtomError(Exception):
    """Base class for all computation errors raised by this package."""


class QuadratureConvergenceError(CausalAtomError):
    """A dispersion integral did not meet its error target by the last step
    of the quadrature ladder, or its integrand left the float range
    (overflowed, or divided by zero)."""


class BranchPointError(CausalAtomError):
    """Evaluation requested at (or too close to) a branch point."""


class SingularPointError(CausalAtomError):
    """Closed-form evaluation at a hard singular point (u in {0, +-1}), or
    where the closed form leaves the float range."""


class SupportError(CausalAtomError):
    """A point expected off the distribution's support lies on it (or vice versa)."""


class GridResolutionError(CausalAtomError):
    """Grid (mode comb, time step or sample points) too coarse or otherwise
    invalid for the requested computation."""


class NormDriftError(CausalAtomError):
    """State-norm conservation violated beyond tolerance during time evolution."""

    def __init__(self, message, drift=None):
        super().__init__(message)
        self.drift = drift


class FitResidualError(CausalAtomError):
    """A decay/series fit left residuals too large to report a rate or coefficient."""


class PresetError(CausalAtomError):
    """Atom preset name unknown, file unreadable, or document malformed."""
