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


def mp_solve_ivp(op, h, ic, dps=60):
    """x on [a-N+1, b] for L x = h by forward substitution in ``dps`` digits.

    Built from the definitions alone: the Caputo kernel is the gamma
    ratio H_{N-nu-1}(m) = Gamma(m+N-nu-1) / (Gamma(m) Gamma(N-nu)), and
    row t is p(t) cap(t) - p(t-1) cap(t-1) + q(t) x(t-1) = h(t) with
    cap(t) = sum_{s=1}^{t} H(t-s+1) nabla^N x(s).  Every input float is
    taken exactly; only the answer is rounded back to float64.
    """
    n, b = op.N, op.b_offset
    with mpmath.workdps(dps):
        mu = n - mpmath.mpf(op.nu) - 1
        kernel = [None] + [mpmath.gamma(m + mu) / (mpmath.gamma(m) * mpmath.gamma(mu + 1))
                           for m in range(1, b + 1)]
        binom = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
        x = {-1 - i: mpmath.mpf(v) for i, v in enumerate(ic.closure.ghost_values(n - 1))}
        for i, a_i in enumerate(ic.values):  # nabla^i x(a+i) = A_i
            x[i] = mpmath.mpf(a_i) - mpmath.fsum((-1) ** j * math.comb(i, j) * x[i - j]
                                                  for j in range(1, i + 1))
        d = {s: mpmath.fsum(c * x[s - i] for i, c in enumerate(binom)) for s in range(1, n + 1)}
        cap = mpmath.fsum(kernel[n - s + 1] * d[s] for s in range(1, n + 1))
        for t in range(n + 1, b + 1):
            # cap(t) = nabla^N x(t) + the history, and x(t) enters with weight 1
            rest = (mpmath.fsum(kernel[t - s + 1] * d[s] for s in range(1, t))
                    + mpmath.fsum(c * x[t - i] for i, c in enumerate(binom) if i))
            cap = (mpmath.mpf(h.at(t)) + mpmath.mpf(op.p.at(t - 1)) * cap
                   - mpmath.mpf(op.q.at(t)) * x[t - 1]) / mpmath.mpf(op.p.at(t))
            x[t] = cap - rest
            d[t] = mpmath.fsum(c * x[t - i] for i, c in enumerate(binom))
        return np.array([float(x[k]) for k in range(1 - n, b + 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
