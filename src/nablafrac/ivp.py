"""Initial value problems: forward recursion, Cauchy function, variation
of constants, and fundamental solution sets.

The recursion isolates the p(t)-weighted top term of the operator row at
each t; since the Caputo kernel weight at the diagonal is exactly 1, the
pivot is p(t) > 0 and the recursion never breaks down.  :func:`solve_ivp`
runs it as a blocked forward substitution over one kernel-weight vector:
still row by row in order, still O(b^2), with the history before each
32-row block added once per block.  When q is identically 0 it needs no
rows at all: p times the Caputo value is a running sum of h, and x is
the order-nu fractional sum of that sum over p (``frac_sum``);
:func:`cauchy_function` still rebuilds each row from scalar monomials and
stores x(t, s) as one (t, s) array, so :func:`variation_of_constants` is
one matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, isfinite
from operator import mul

import numpy as np

from .errors import OffGridError
from .fraccalc import frac_sum
from .grid import Grid, GridFunction, constant_grid_function
from .monomial import kernel_weights, taylor_monomial
from .operator import FracOperator, GhostClosure, require_finite

# rows per block of the forward substitution in solve_ivp
_BLOCK = 32


@dataclass(frozen=True)
class InitialConditions:
    """N+1 values A_i prescribing nabla^i x(a+i) = A_i, plus a ghost closure."""

    values: tuple[float, ...]
    closure: GhostClosure = field(default_factory=GhostClosure.zero)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(map(isfinite, self.values)):
            raise ValueError("initial values must be finite")

    @classmethod
    def zeros(cls, n: int) -> "InitialConditions":
        """All-zero conditions for an operator of ceiling order n."""
        return cls((0.0,) * (n + 1))


def ic_to_values(ic: InitialConditions) -> tuple[float, ...]:
    """Unfold nabla^i x(a+i) = A_i into the point values x(a), ..., x(a+N).

    nabla^j x(a+j) is the forward difference Delta^j x(a), so Newton's
    forward-difference formula gives x(a+i) = sum_j C(i, j) A_j.
    """
    A = ic.values
    return tuple(sum((comb(i, j) * A[j] for j in range(1, i + 1)), A[0]) for i in range(len(A)))


def _nabla_pow(xs: list[float], lo: int, n: int, t: int) -> float:
    """nabla^n of the offset-indexed values xs at offset t."""
    return sum((-1) ** i * comb(n, i) * xs[t - i - lo] for i in range(n + 1))


def _caputo_at(xs: list[float], lo: int, base: int, nu: float, n: int, t: int) -> float:
    acc = 0.0
    for s in range(base + 1, t + 1):
        acc += taylor_monomial(t - s + 1, n - nu - 1.0) * _nabla_pow(xs, lo, n, s)
    return acc


def _row_value(op: FracOperator, xs: list[float], lo: int, base: int, t: int) -> float:
    """(L_base x)(t) from the current values, p and q anchored at op.a."""
    n = op.N
    cap_t = _caputo_at(xs, lo, base, op.nu, n, t)
    cap_p = _caputo_at(xs, lo, base, op.nu, n, t - 1)
    return (op.p.at(t) * cap_t - op.p.at(t - 1) * cap_p
            + op.q.at(t) * xs[t - 1 - lo])


def solve_ivp(op: FracOperator, h: GridFunction, ic: InitialConditions) -> GridFunction:
    """Solve L x = h with nabla^i x(a+i) = A_i by blocked forward substitution.

    Returns x on ``op.grid``, [a-N+1, b].  The initial conditions and the
    ghost closure are satisfied exactly; the equation holds to
    accumulated rounding.  Raises :class:`NonFiniteError` when x outgrows
    float64.

    Row t reads p(t) cap(t) = h(t) + p(t-1) cap(t-1) - q(t) x(t-1), where
    the Caputo value is cap(t) = sum_u g(t-u) x(u) over u >= a+1, plus the
    initial window's part, and g holds the weights of (1-z)^nu: the
    kernel weights convolved with the N-th difference.
    cap(t-1) is carried from the previous row and the pivot is p(t), so
    the rows are solved one at a time and in order.  They run in blocks
    of ``_BLOCK``: a row sums g over the values already found in its
    block, and the history before the block is one running array that
    each finished block adds its convolution with g to.  The initial
    window [a-N+1, a+N], whose Caputo sums start at a+1, enters that
    array once, through the kernel weights.  O(b^2) time, O(b) memory,
    and no numpy call per row.

    When q is identically 0 the rows telescope instead: p(t) cap(t) =
    p(N) cap(N) + h(N+1) + ... + h(t), so cap(t) is known for every t at
    once.  Less the window's part, cap is g convolved with x beyond the
    window, so x there is ``frac_sum`` of order nu of that difference, with
    the weights of (1-z)^-nu, the inverse of g: no row loop.
    """
    n = op.N
    b = op.b_offset
    if len(ic.values) != n + 1:
        raise ValueError(f"need {n + 1} initial values, got {len(ic.values)}")
    # x on [1-N, N]: the ghosts, then the unfolded initial values
    x = list(ic.closure.ghost_values(n - 1)[::-1]) + list(ic_to_values(ic))
    # (-1)^i C(N,i) for i = 0..N, the N-th difference newest first
    binom = np.array([(-1) ** i * comb(n, i) for i in range(n + 1)], dtype=float)
    kw = kernel_weights(b, n - op.nu - 1.0)[1:]  # kw[k] = H(k+1)
    # acc[t-1]: the part of cap(t) from the x before t's block.  For the
    # first block that is the window [1-N, N], through the kernel weights
    # and nabla^N x(s) for s in [1, 2N] (only its terms in the window).
    acc = np.convolve(np.convolve(binom, x)[n:], kw)[:b]
    hv = h.values_on(op.rows)
    if not op.q.values.any():
        flux = op.p.values[0] * acc[n - 1] + np.cumsum(hv)
        rest = flux / op.p.values[1:] - acc[n:]
        x = np.concatenate((x, frac_sum(rest, op.nu)))
        return GridFunction(op.grid, require_finite(op.grid, x))
    # h, p and q indexed by offset; rows run over t in [N+1, b]
    hv = [0.0] * (n + 1) + hv.tolist()
    p = [0.0] * n + op.p.values.tolist()
    q = [0.0] * (n + 1) + op.q.values.tolist()
    g = np.convolve(kw, binom)[:b]  # g[k]: weight of x(t-k) in cap(t), t-k >= 1
    g1 = g[1:_BLOCK].tolist()
    cap = float(acc[n - 1])  # cap(N)
    for t0 in op.rows.offsets()[::_BLOCK]:
        t1 = min(t0 + _BLOCK, b + 1)
        xb = []  # this block's values, newest first
        for t, hist in zip(range(t0, t1), acc[t0 - 1:t1 - 1].tolist()):
            hist += sum(map(mul, g1, xb))
            xt = (hv[t] + p[t - 1] * cap - q[t] * x[-1]) / p[t] - hist
            cap = xt + hist
            x.append(xt)
            xb.insert(0, xt)
        if t1 <= b:
            acc[t1 - 1:] += np.convolve(xb[::-1], g[:b - t0 + 1])[t1 - t0:b + 1 - t0]
    x = GridFunction(op.grid, x)
    require_finite(op.grid, x.values)
    return x


def zero_forcing(op: FracOperator) -> GridFunction:
    return constant_grid_function(op.rows, 0.0)


@dataclass(frozen=True, eq=False)
class CauchyFunction:
    """The kernel x(t, s) on t in ``grid``, [a-N+1, b], x s in ``rows``, [a+N+1, b].

    ``values`` is (t, s)-indexed like :attr:`GreensFunction.G`.  Column s
    lives on offsets [s-N, b] and is zero below that, matching the pinned
    zero values at and below rho(s).
    """

    grid: Grid
    rows: Grid
    values: np.ndarray

    def column(self, s_offset: int) -> GridFunction:
        """x(., s) on its own grid [s-N, b]."""
        g, r = self.grid, self.rows
        if not r.contains_offset(s_offset):
            raise OffGridError(f"s offset {s_offset} outside [{r.lo}, {r.hi}]")
        lo = s_offset + g.lo - 1  # s-N, as g.lo = 1-N
        return GridFunction(Grid(g.base, lo, g.hi), self.values[lo - g.lo:, s_offset - r.lo])


def cauchy_function(op: FracOperator) -> CauchyFunction:
    """Build the Cauchy function for L x = 0.

    For each s the column solves the impulse IVP based at rho(s): zero
    values on [rho(s)-N+1, rho(s)], x(s,s) = 1/p(s) from the nabla^N
    condition, then the forward recursion of the homogeneous row from
    t = s+1 on (the row is already well defined there given the pinned
    lower values).
    """
    n = op.N
    b = op.b_offset
    values = np.zeros((len(op.grid), len(op.rows)))
    for s in op.rows.offsets():
        lo = s - n
        xs = [0.0] * (b - lo + 1)
        xs[s - lo] = 1.0 / op.p.at(s)
        for t in range(s + 1, b + 1):
            xs[t - lo] = -_row_value(op, xs, lo, s - 1, t) / op.p.at(t)
        values[s - 1:, s - n - 1] = xs
    return CauchyFunction(op.grid, op.rows, require_finite(op.grid, values))


def variation_of_constants(op: FracOperator, h: GridFunction) -> GridFunction:
    """Particular solution x(t) = sum_{s=a+N+1}^{t} x(t,s) h(s).

    Solves L x = h with all N+1 initial conditions zero; the result is 0
    on [a-N+1, a+N] and is returned on ``op.grid``.  x(t, s) = 0 for
    s > t, so the sum is one matrix-vector product.  Raises
    :class:`NonFiniteError` when x outgrows float64.
    """
    x = cauchy_function(op).values @ h.values_on(op.rows)
    return GridFunction(op.grid, require_finite(op.grid, x))


def homogeneous_basis(op: FracOperator, analytic: bool = False) -> tuple[GridFunction, ...]:
    """N+1 linearly independent solutions of L x = 0 on [a-N+1, b].

    The numeric basis uses unit initial-condition vectors with zero ghost
    closure, so the matrix of initial data is the identity.  With
    ``analytic=True`` (p == 1, q == 0 only) the monomial basis
    {H_0, ..., H_{N-1}, H_nu} is returned with its natural extension:
    polynomial below a for the integer orders, zero below a for H_nu.
    """
    n = op.N
    if analytic:
        if not op.is_basic():
            raise ValueError("analytic basis requires p == 1 and q == 0")
        whole = [[taylor_monomial(m, float(k)) for m in op.grid.offsets()] for k in range(n)]
        h_nu = np.concatenate((np.zeros(n - 1), kernel_weights(op.b_offset, op.nu)))
        return tuple(GridFunction(op.grid, values) for values in whole + [h_nu])
    h0 = zero_forcing(op)
    return tuple(
        solve_ivp(op, h0, InitialConditions(np.eye(n + 1)[i])) for i in range(n + 1)
    )
