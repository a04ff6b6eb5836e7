"""Dense one-phase primal simplex with Bland's rule on a condensed tableau.

The tests' reference LP solver: ``test_simplex`` checks it on
hand-checkable programs and against its earlier forms, and it runs the
programs of ``safemdp.build_lp``.  The package itself answers
``solve_lp`` from the dual's kink and pivots no tableau.

Solves   min c.x   subject to   A x <= b,  x >= 0,  for b >= 0.

With a nonnegative right-hand side the slack basis (x = 0, slacks = b)
is feasible, so the simplex starts there and needs no phase one.  The
programs of ``build_lp`` have stage costs as right-hand sides, and
``validate_model`` rejects negative costs.  A negative (or NaN)
right-hand side, or a non-finite cost or constraint coefficient, raises
ValueError.

The tableau is the condensed ("dictionary") one (Chvatal, *Linear
Programming*, 1983, ch. 2-3).  The variables are the n originals,
indexed 0..n-1, and the m slacks, n..n+m-1.  The full tableau
[A | I | b] keeps a column per variable, but a basic variable's column
is a unit vector, so only the n nonbasic columns and the right-hand
side are kept: (m + 1) x (n + 1), the last row holding the reduced
costs.  ``nonbasic[j]`` labels the variable column j holds and
``basis[i]`` the variable row i solves for.  A pivot swaps the two
labels, and the leaving variable takes over the entering column as the
unit vector it had: the column is set to 0 and its pivot entry to 1
before the pivot row is divided.  Every kept entry then goes through
the same arithmetic as in the full tableau, so pivots, x and basis
equal the full tableau's bit for bit.  On a 300 x 101 program (a dense
100-state, 3-action model) the tableau and the rank-1 update buffer
are about 0.25 MB each.

Bland's rule, which makes cycling impossible at the cost of more pivots
than steepest-edge variants: the entering column is the one, among
those whose reduced cost is below -RED_COST_TOL, that holds the
variable of lowest index.  The leaving row is chosen among the rows
whose entry in that column exceeds ZERO_TOL: of those whose ratio
b_i / a_i lies within 1e-12 of the least ratio, the one with the lowest
basic index.  Fine for the small dense programs this package builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from safemdp.exceptions import LpNumericalError, LpUnboundedError

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
    # Column j < n holds variable nonbasic[j]; column n is the right-hand side.
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, n] = b
    T[m, :n] = c
    nonbasic = np.arange(n)
    basis = np.arange(n, n + m)
    update = np.empty_like(T)  # the rank-1 pivot update, one buffer per solve

    iterations = 0
    while True:
        eligible = np.flatnonzero(T[m, :n] < -RED_COST_TOL)
        if not eligible.size:
            break
        col = eligible[nonbasic[eligible].argmin()]
        candidates = np.flatnonzero(T[:m, col] > ZERO_TOL)
        if not candidates.size:
            raise LpUnboundedError("objective improves along an unbounded ray")
        ratios = T[candidates, n] / T[candidates, col]
        tied = candidates[ratios <= ratios.min() + 1e-12]
        row = tied[basis[tied].argmin()]
        pivot = T[row, col]
        if pivot < PIVOT_MIN:
            raise LpNumericalError(f"pivot {pivot:.3g} below stability threshold")
        factor = T[:, col].copy()
        factor[row] = 0.0
        T[:, col] = 0.0  # the leaving variable's unit column
        T[row, col] = 1.0
        T[row] /= pivot
        np.multiply.outer(factor, T[row], out=update)
        T -= update
        nonbasic[col], basis[row] = basis[row], nonbasic[col]
        iterations += 1
        if iterations > ITER_CAP:
            raise LpNumericalError("pivot cap exceeded")

    x = np.zeros(n + m)
    x[basis] = T[:m, n]
    xs = x[:n]
    return SimplexResult(
        x=xs, objective=float(c @ xs), basis=tuple(int(v) for v in basis),
        iterations=iterations,
    )
