"""Dense one-phase simplex on hand-checkable programs and against the two-phase original."""
import numpy as np
import pytest

import safemdp as sm
from corpus import _fill, corridor_model
from safemdp import simplex
from safemdp.simplex import SimplexResult, solve_min


def test_bounded_two_variable():
    # min -x - y  s.t.  x + 2y <= 4, 3x + y <= 6
    res = solve_min(
        np.array([-1.0, -1.0]),
        np.array([[1.0, 2.0], [3.0, 1.0]]),
        np.array([4.0, 6.0]),
    )
    assert np.allclose(res.x, [8 / 5, 6 / 5], atol=1e-9)
    assert res.objective == pytest.approx(-14 / 5, abs=1e-9)


def test_slack_only_optimum():
    # Origin is already optimal when costs are nonnegative.
    res = solve_min(np.array([2.0, 1.0]), np.array([[1.0, 1.0]]), np.array([3.0]))
    assert np.allclose(res.x, [0.0, 0.0], atol=0)
    assert res.objective == 0.0


RHS_ERROR = "right-hand side must be nonnegative"
FINITE_ERROR = "costs and constraint coefficients must be finite"


@pytest.mark.parametrize(
    "c, A, b, error",
    [
        # -x <= -2 asks for x >= 2.
        ([1.0], [[-1.0]], [-2.0], RHS_ERROR),
        # x + y = 1 encoded as a pair of opposite inequalities.
        ([1.0, 0.0], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0], RHS_ERROR),
        # x <= 1 and x >= 2 cannot both hold.
        ([1.0], [[1.0], [-1.0]], [1.0, -2.0], RHS_ERROR),
        # NaN fails every ratio test.
        ([-1.0], [[1.0]], [np.nan], RHS_ERROR),
        # A NaN reduced cost never enters; the objective came back NaN.
        ([np.nan, -1.0], [[1.0, 1.0]], [1.0], FINITE_ERROR),
        # A NaN coefficient never leaves; the objective came back -1.
        ([0.0, -1.0], [[np.nan, 1.0]], [1.0], FINITE_ERROR),
    ],
    ids=["lower-bound", "equality-pair", "infeasible", "nan", "nan-cost", "nan-row"],
)
def test_negative_rhs_rejected(c, A, b, error):
    """The slack basis is the only start; it is infeasible when some b < 0.

    Non-finite costs or coefficients are rejected alongside.
    """
    with pytest.raises(ValueError, match=error):
        solve_min(np.array(c), np.array(A), np.array(b))


def test_inconsistent_dimensions_rejected():
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        solve_min(np.array([1.0, 2.0]), np.array([[1.0]]), np.array([1.0]))


@pytest.mark.parametrize(
    "cap,A,message",
    [
        (simplex.ITER_CAP, [[1e-10]], "pivot 1e-10 below stability threshold"),
        (0, [[1.0]], "pivot cap exceeded"),
    ],
    ids=["small pivot", "pivot cap"],
)
def test_numerical_errors(monkeypatch, cap, A, message):
    monkeypatch.setattr(simplex, "ITER_CAP", cap)
    with pytest.raises(sm.LpNumericalError, match=message):
        solve_min(np.array([-1.0]), np.array(A), np.array([1.0]))


def test_unbounded_detected():
    with pytest.raises(sm.LpUnboundedError):
        solve_min(np.array([-1.0]), np.array([[-1.0]]), np.array([1.0]))


def test_degenerate_vertex_terminates():
    """Three constraints meet at (1, 0); Bland's rule must not cycle."""
    res = solve_min(
        np.array([-1.0, 0.0]),
        np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]]),
        np.array([1.0, 1.0, 1.0]),
    )
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_redundant_rows_tolerated():
    rows = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    res = solve_min(np.array([-1.0, -2.0]), rows, np.array([1.0, 1.0, 2.0]))
    assert res.objective == pytest.approx(-2.0, abs=1e-9)
    assert res.x[1] == pytest.approx(1.0, abs=1e-9)


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, k = 4, 6
        A = rng.normal(size=(k, n))
        b = rng.uniform(0.5, 2.0, size=k)
        c = rng.normal(size=n)
        try:
            res = solve_min(c, A, b)
        except sm.LpUnboundedError:
            continue
        assert (A @ res.x <= b + 1e-8).all()
        assert (res.x >= -1e-12).all()
        assert res.iterations >= 0


# ------------------------------------------------------------ reference

# The two-phase simplex the one-phase solver replaced, kept as the
# reference: on b >= 0 phase one never runs, and both must agree bit for
# bit on basis, pivot count, x, objective and error.

REF_RED_COST_TOL = 1e-9
REF_PIVOT_MIN = 1e-9
REF_ZERO_TOL = 1e-12
REF_FEAS_TOL = 1e-8
REF_ITER_CAP = 200_000


class ReferenceInfeasibleError(sm.SafeMdpError):
    """Phase one of the reference ended with artificial mass left."""


def reference_solve_min(c, A_ub, b_ub):
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    if A.ndim != 2 or A.shape != (b.shape[0], c.shape[0]):
        raise ValueError("inconsistent LP dimensions")
    m, n = A.shape

    # Columns: n originals, m slacks, then one artificial per negative row.
    neg = b < 0
    n_art = int(neg.sum())
    art_start = n + m
    width = n + m + n_art + 1
    T = np.zeros((m, width))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    T[neg] *= -1.0

    basis = np.empty(m, dtype=int)
    art_col = art_start
    for i in range(m):
        if neg[i]:
            T[i, art_col] = 1.0
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = n + i

    iterations = 0
    if n_art:
        red = np.zeros(width)
        red[art_start:-1] = 1.0
        for i in range(m):
            if basis[i] >= art_start:
                red -= T[i]
        iterations += _reference_run(T, basis, red, phase_one=True)
        if -red[-1] > REF_FEAS_TOL:
            raise ReferenceInfeasibleError(
                f"phase one left artificial mass {-red[-1]:.3g}"
            )
        _reference_expel_artificials(T, basis, art_start)

    # Phase two on the original objective, artificial columns masked off.
    red = np.zeros(width)
    red[:n] = c
    for i in range(m):
        if red[basis[i]] != 0.0:
            red -= red[basis[i]] * T[i]
    iterations += _reference_run(
        T, basis, red, phase_one=False, forbidden_from=art_start
    )

    x = np.zeros(n + m + n_art)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    xs = x[:n]
    return SimplexResult(
        x=xs, objective=float(c @ xs), basis=tuple(int(v) for v in basis),
        iterations=iterations,
    )


def _reference_run(T, basis, red, phase_one, forbidden_from=None):
    m, width = T.shape
    limit = width - 1 if forbidden_from is None else forbidden_from
    count = 0
    while True:
        entering = -1
        for j in range(limit):
            if red[j] < -REF_RED_COST_TOL:
                entering = j
                break
        if entering < 0:
            return count
        col = T[:, entering]
        best_ratio, leaving = None, -1
        for i in range(m):
            if col[i] > REF_ZERO_TOL:
                ratio = T[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            if phase_one:
                raise sm.LpNumericalError("phase one claims an unbounded direction")
            raise sm.LpUnboundedError("objective improves along an unbounded ray")
        if col[leaving] < REF_PIVOT_MIN:
            raise sm.LpNumericalError(
                f"pivot {col[leaving]:.3g} below stability threshold"
            )
        _reference_pivot(T, basis, red, leaving, entering)
        count += 1
        if count > REF_ITER_CAP:
            raise sm.LpNumericalError("pivot cap exceeded")


def _reference_pivot(T, basis, red, row, col):
    T[row] /= T[row, col]
    piv_row = T[row]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * piv_row
    if red[col] != 0.0:
        red -= red[col] * piv_row
    basis[row] = col


def _reference_expel_artificials(T, basis, art_start):
    m = T.shape[0]
    for i in range(m):
        if basis[i] < art_start:
            continue
        pivot_col = -1
        for j in range(art_start):
            if abs(T[i, j]) > REF_PIVOT_MIN:
                pivot_col = j
                break
        if pivot_col < 0:
            T[i, -1] = 0.0
            continue
        T[i] /= T[i, pivot_col]
        piv_row = T[i].copy()
        for k in range(m):
            if k != i and T[k, pivot_col] != 0.0:
                T[k] -= T[k, pivot_col] * piv_row
        basis[i] = pivot_col


def outcome(solve, c, A, b):
    """Everything a solve reports, in a form compared bit for bit."""
    try:
        res = solve(c, A, b)
    except sm.SafeMdpError as exc:
        return type(exc), str(exc)
    return res.basis, res.iterations, res.x.tobytes(), res.objective


def assert_matches_reference(c, A, b):
    got = outcome(solve_min, c, A, b)
    assert got == outcome(reference_solve_min, c, A, b)
    return got


def lp_args(model, p):
    problem = sm.build_lp(model, p)
    return -problem.objective, problem.rows, problem.rhs


def test_matches_reference_on_ex1(ex1_model):
    outcomes = [
        assert_matches_reference(*lp_args(ex1_model, p))
        for p in (0.0, 0.1, 0.3, 0.35, 0.4, 0.5, 0.7, 1.0)
    ]
    assert (sm.LpUnboundedError, "objective improves along an unbounded ray") in outcomes
    assert sum(len(o) == 4 for o in outcomes) >= 4


def test_matches_reference_on_corpora(solver_corpus, oracle_cases):
    for model, p in solver_corpus + oracle_cases:
        assert_matches_reference(*lp_args(model, p))


def test_build_lp_rhs_is_nonnegative(solver_corpus, oracle_cases):
    """Stage costs are the right-hand sides, so the slack basis is feasible."""
    for model, p in solver_corpus + oracle_cases:
        assert (sm.build_lp(model, p).rhs >= 0).all()


def random_program(rng, integer):
    """A small program with b >= 0.

    Integer data makes degenerate vertices (zeros in b), tied ratios and
    repeated (redundant) rows common; Gaussian data makes generic ones.
    """
    m, n = rng.integers(1, 9), rng.integers(1, 7)
    if integer:
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 4, size=m).astype(float)
        c = rng.integers(-3, 3, size=n).astype(float)
        if m > 1 and rng.random() < 0.5:
            src, dst = rng.choice(m, size=2, replace=False)
            scale = rng.integers(1, 3)
            A[dst], b[dst] = scale * A[src], scale * b[src]
    else:
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m) * (rng.random(m) < 0.8)
        c = rng.normal(size=n)
    return c, A, b


def test_matches_reference_on_random_programs():
    rng = np.random.default_rng(2024)
    kinds = {"solved": 0, "unbounded": 0, "degenerate": 0}
    for k in range(1200):
        c, A, b = random_program(rng, integer=k % 2 == 0)
        got = assert_matches_reference(c, A, b)
        if len(got) == 4:
            kinds["solved"] += 1
        elif got[0] is sm.LpUnboundedError:
            kinds["unbounded"] += 1
        kinds["degenerate"] += bool((b == 0).any())
    assert min(kinds.values()) >= 100, kinds


# ------------------------------------------------------- previous pivot

def previous_solve_min(c, A_ub, b_ub):
    """``solve_min`` as it was before the pivot wrote into one update buffer.

    Each pivot gathered the rows with a nonzero entry in the entering
    column and subtracted a freshly allocated outer product from a copy
    of them.  The buffered pivot must agree bit for bit.
    """
    c, A, b = (np.asarray(x, dtype=float) for x in (c, A_ub, b_ub))
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n : n + m], T[:m, -1], T[m, :n] = A, np.eye(m), b, c
    basis = np.arange(n, n + m)
    iterations = 0
    while True:
        eligible = np.flatnonzero(T[m, :-1] < -simplex.RED_COST_TOL)
        if not eligible.size:
            break
        col = eligible[0]
        candidates = np.flatnonzero(T[:m, col] > simplex.ZERO_TOL)
        if not candidates.size:
            raise sm.LpUnboundedError("objective improves along an unbounded ray")
        ratios = T[candidates, -1] / T[candidates, col]
        tied = candidates[ratios <= ratios.min() + 1e-12]
        row = tied[basis[tied].argmin()]
        if T[row, col] < simplex.PIVOT_MIN:
            raise sm.LpNumericalError(f"pivot {T[row, col]:.3g} below stability threshold")
        T[row] /= T[row, col]
        rows = np.flatnonzero(T[:, col])
        rows = rows[rows != row]
        T[rows] -= np.outer(T[rows, col], T[row])
        basis[row] = col
        iterations += 1
        if iterations > simplex.ITER_CAP:
            raise sm.LpNumericalError("pivot cap exceeded")
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    return SimplexResult(
        x=x[:n], objective=float(c @ x[:n]), basis=tuple(int(v) for v in basis),
        iterations=iterations,
    )


def assert_matches_previous(c, A, b):
    got = outcome(solve_min, c, A, b)
    assert got == outcome(previous_solve_min, c, A, b)
    return got


def test_buffered_pivot_matches_previous_on_corpora(ex1_model, solver_corpus, oracle_cases):
    for model, p in [(ex1_model, 0.5)] + solver_corpus + oracle_cases:
        assert_matches_previous(*lp_args(model, p))


def test_buffered_pivot_matches_previous_on_random_programs():
    rng = np.random.default_rng(2025)
    for k in range(400):
        assert_matches_previous(*random_program(rng, integer=k % 2 == 0))


def test_buffered_pivot_matches_previous_at_benchmark_size():
    """A 100-state, 3-action dense model and a 100-state corridor.

    Hundreds of pivots on 300x101 and 200x101 programs, where most
    entries of the entering column are nonzero (dense) or zero (corridor).
    """
    rng = np.random.default_rng(31)
    dense = _fill(rng, 100, 1, 2, 3, 0.1)
    got = assert_matches_previous(*lp_args(dense, 0.5))
    assert got[1] >= 100
    got = assert_matches_previous(*lp_args(corridor_model(rng, 100, 0.002), 0.5))
    assert got[1] >= 100
