"""Exception types shared across the package."""


class OffGridError(ValueError):
    """A point or offset falls outside a grid (or is not a unit-step point)."""


class NearSingularError(ValueError):
    """The boundary-condition matrix D is singular to working precision; the
    homogeneous BVP admits nontrivial solutions in the basis span."""


class DegenerateDenominatorError(ValueError):
    """The closed-form conjugate Green's function denominator vanishes."""


class SingularSystemError(ValueError):
    """A dense system is singular to working precision: the D solve's
    elimination met a vanishing pivot, or the oracle's cond_1 * eps >= 1."""
