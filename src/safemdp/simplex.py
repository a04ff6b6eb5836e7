"""Dense one-phase primal simplex with Bland's rule.

Solves   min c.x   subject to   A x <= b,  x >= 0,  for b >= 0.

With a nonnegative right-hand side the slack basis (x = 0, slacks = b)
is feasible, so the tableau [A | I | b] starts there and needs no phase
one.  The only programs this package builds come from
``constrained.build_lp``, whose right-hand sides are stage costs, and
``validate_model`` rejects negative costs.  A negative (or NaN)
right-hand side, or a non-finite cost or constraint coefficient, raises
ValueError.

Bland's rule, which makes cycling impossible at the cost of more pivots
than steepest-edge variants: the entering column is the first one whose
reduced cost is below -RED_COST_TOL.  The leaving row is chosen among
the rows whose entry in that column exceeds ZERO_TOL: of those whose
ratio b_i / a_i lies within 1e-12 of the least ratio, the one with the
lowest basic index.  Fine for the small dense programs this package
builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import LpNumericalError, LpUnboundedError

RED_COST_TOL = 1e-9
PIVOT_MIN = 1e-9
ZERO_TOL = 1e-12
ITER_CAP = 200_000


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    basis: tuple[int, ...]
    iterations: int


def solve_min(c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray) -> SimplexResult:
    """Minimize ``c . x`` over ``A_ub x <= b_ub``, ``x >= 0``, with ``b_ub >= 0``.

    Raises ValueError for a negative or NaN right-hand side or a
    non-finite entry of ``c`` or ``A_ub``, LpUnboundedError or
    LpNumericalError.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    if A.ndim != 2 or A.shape != (b.shape[0], c.shape[0]):
        raise ValueError("inconsistent LP dimensions")
    if not (b >= 0).all():
        raise ValueError("right-hand side must be nonnegative for the slack basis")
    if not (np.isfinite(c).all() and np.isfinite(A).all()):
        raise ValueError("costs and constraint coefficients must be finite")
    m, n = A.shape

    # Rows 0..m-1 are the constraints; row m holds the reduced costs.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = c
    basis = np.arange(n, n + m)
    update = np.empty_like(T)  # the rank-1 pivot update, one buffer per solve

    iterations = 0
    while True:
        eligible = np.flatnonzero(T[m, :-1] < -RED_COST_TOL)
        if not eligible.size:
            break
        col = eligible[0]
        candidates = np.flatnonzero(T[:m, col] > ZERO_TOL)
        if not candidates.size:
            raise LpUnboundedError("objective improves along an unbounded ray")
        ratios = T[candidates, -1] / T[candidates, col]
        tied = candidates[ratios <= ratios.min() + 1e-12]
        row = tied[basis[tied].argmin()]
        if T[row, col] < PIVOT_MIN:
            raise LpNumericalError(f"pivot {T[row, col]:.3g} below stability threshold")
        T[row] /= T[row, col]
        factor = T[:, col].copy()
        factor[row] = 0.0
        np.multiply.outer(factor, T[row], out=update)
        T -= update
        basis[row] = col
        iterations += 1
        if iterations > ITER_CAP:
            raise LpNumericalError("pivot cap exceeded")

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    xs = x[:n]
    return SimplexResult(
        x=xs, objective=float(c @ xs), basis=tuple(int(v) for v in basis),
        iterations=iterations,
    )
