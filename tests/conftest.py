import math

import mpmath
import numpy as np
import pytest

from nablafrac import FracOperator, Grid, GridFunction


def random_operator(rng, a, nu, b_off, p_range=(0.5, 2.0), q_range=(-1.0, 1.0)):
    n = math.ceil(nu)
    p = GridFunction(Grid(a, n, b_off), tuple(rng.uniform(*p_range, b_off - n + 1)))
    q = GridFunction(Grid(a, n + 1, b_off), tuple(rng.uniform(*q_range, b_off - n)))
    return FracOperator(a, nu, p, q)


def random_forcing(rng, op, lo=-1.0, hi=1.0):
    n = op.N
    return GridFunction(
        Grid(op.a, n + 1, op.b_offset),
        tuple(rng.uniform(lo, hi, op.b_offset - n)),
    )


def max_gap(x, y, offsets=None):
    if offsets is None:
        offsets = range(max(x.grid.lo, y.grid.lo), min(x.grid.hi, y.grid.hi) + 1)
    return max(abs(x.at(k) - y.at(k)) for k in offsets)


def _mp_kernel(op):
    """H_{N-nu-1}(m) = Gamma(m+N-nu-1) / (Gamma(m) Gamma(N-nu)) for m = 1..b, at the
    working precision; entry 0 is unused."""
    mu = op.N - mpmath.mpf(op.nu) - 1
    return [None] + [mpmath.gamma(m + mu) / (mpmath.gamma(m) * mpmath.gamma(mu + 1))
                     for m in range(1, op.b_offset + 1)]


def _mp_march(op, kernel, h, values, ghosts):
    """x(1-N), ..., x(b) at the working precision by forward substitution.

    Row t is p(t) cap(t) - p(t-1) cap(t-1) + q(t) x(t-1) = h[t-N-1] with
    cap(t) = sum_{s=1}^{t} H(t-s+1) nabla^N x(s), from nabla^i x(a+i) =
    values[i] and the ghosts x(a-1), ..., x(a-N+1).  Every input float
    is taken exactly.
    """
    n, b = op.N, op.b_offset
    binom = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
    x = {-1 - i: mpmath.mpf(v) for i, v in enumerate(ghosts)}
    for i, a_i in enumerate(values):  # nabla^i x(a+i) = A_i
        x[i] = mpmath.mpf(a_i) - mpmath.fsum((-1) ** j * math.comb(i, j) * x[i - j]
                                              for j in range(1, i + 1))
    d = {s: mpmath.fsum(c * x[s - i] for i, c in enumerate(binom)) for s in range(1, n + 1)}
    cap = mpmath.fsum(kernel[n - s + 1] * d[s] for s in range(1, n + 1))
    for t in range(n + 1, b + 1):
        # cap(t) = nabla^N x(t) + the history, and x(t) enters with weight 1
        rest = (mpmath.fsum(kernel[t - s + 1] * d[s] for s in range(1, t))
                + mpmath.fsum(c * x[t - i] for i, c in enumerate(binom) if i))
        cap = (mpmath.mpf(h[t - n - 1]) + mpmath.mpf(op.p.at(t - 1)) * cap
               - mpmath.mpf(op.q.at(t)) * x[t - 1]) / mpmath.mpf(op.p.at(t))
        x[t] = cap - rest
        d[t] = mpmath.fsum(c * x[t - i] for i, c in enumerate(binom))
    return [x[k] for k in range(1 - n, b + 1)]


def mp_solve_ivp(op, h, ic, dps=60):
    """x on [a-N+1, b] for L x = h by forward substitution in ``dps`` digits.

    Built from the definitions alone (see ``_mp_march``); only the answer
    is rounded back to float64.
    """
    with mpmath.workdps(dps):
        x = _mp_march(op, _mp_kernel(op), h.values_on(Grid(op.a, op.N + 1, op.b_offset)), ic.values,
                      ic.closure.ghost_values(op.N - 1))
        return np.array([float(v) for v in x])


def mp_solve_bvp(op, spec, h, dps=50):
    """x on [a-N+1, b] for L x = h subject to ``spec``, in ``dps`` digits.

    ``h`` holds h(a+N+1), ..., h(b), or one such column per forcing; the
    answer has one column per forcing too.  Built from the definitions by
    superposition over the numeric basis (unit initial data, zero
    ghosts, as ``solve_bvp`` uses): x = x_p + sum_k c_k x_k, where x_p
    has zero initial data and D c = spec.values - the functionals of x_p,
    with row i = sum_j alpha_ij nabla^j x(a+j) and row N = sum_j beta_j
    nabla^j x(b).
    """
    n, b = op.N, op.b_offset
    h = np.asarray(h, dtype=float)
    cols = h.reshape(b - n, -1).T
    with mpmath.workdps(dps):
        kernel = _mp_kernel(op)
        zeros = [0.0] * (n - 1)

        def functionals(x):
            def nabla(j, t):  # nabla^j x(a+t); x starts at offset 1-N
                return mpmath.fsum((-1) ** i * math.comb(j, i) * x[t - i + n - 1]
                                   for i in range(j + 1))
            return ([mpmath.fsum(c * nabla(j, j) for j, c in enumerate(row)) for row in spec.alpha]
                    + [mpmath.fsum(c * nabla(j, b) for j, c in enumerate(spec.beta))])

        basis = [_mp_march(op, kernel, [0.0] * (b - n), np.eye(n + 1)[k], zeros)
                 for k in range(n + 1)]
        d = mpmath.matrix([functionals(x) for x in basis]).T
        out = []
        for col in cols:
            xp = _mp_march(op, kernel, col, [0.0] * (n + 1), zeros)
            c = mpmath.lu_solve(d, mpmath.matrix(
                [mpmath.mpf(v) - f for v, f in zip(spec.values, functionals(xp))]))
            out.append([float(xp[k] + mpmath.fsum(c[i] * x[k] for i, x in enumerate(basis)))
                        for k in range(b + n)])
        return np.array(out).T.reshape((b + n,) + h.shape[1:])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
