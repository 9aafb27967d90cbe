"""Exception types shared across the package."""


class OffGridError(ValueError):
    """A point or offset falls outside a grid (or is not a unit-step point)."""


class NearSingularError(ValueError):
    """The bordered BVP system is singular to working precision
    (cond_1 * eps >= 1).  It is singular exactly when det D = 0, when the
    homogeneous BVP admits nontrivial solutions in the basis span."""


class DegenerateDenominatorError(ValueError):
    """The closed-form conjugate Green's function denominator vanishes."""


class SingularSystemError(ValueError):
    """The dense oracle's system is singular to working precision
    (cond_1 * eps >= 1)."""


class NonFiniteError(ValueError):
    """A solve's answer holds an inf or a NaN: the solution outgrew float64."""
