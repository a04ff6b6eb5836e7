"""Safety-constrained solvers.

Four routes to the same problem, minimizing expected cost subject to a
bound on the probability of absorption in a forbidden state:

* the Lagrangian dual over one multiplier level, maximized by walking
  the breakpoints where its optimal policy changes,
* a linear program over pure-policy constraint rows,
* exact enumeration of the admissible pure policies and the brute-force
  optimum over them, the reference oracle of the other routes,
* value iteration over the per-state projection of the admissible set.

A fifth solver handles the local one-step variant, where per-state action
distributions are constrained by the ratio of forbidden-exit to
target-exit mass; ``relative_admissible`` holds the vertices of those
per-state polytopes as one weight array, built without a Python loop.

The dual and the LP price safety with one multiplier level t common to
every state: over per-state multipliers the search is unbounded even on
feasible models.

Shared machinery: every solver here reads the stage costs, taboo block
and exit masses from the model view on :class:`~safemdp.model.MdpModel`;
``dual_ascent`` starts from the policy iteration of
:mod:`safemdp.bellman` over the actions and prices every candidate with
its candidate-major rows, ``constrained_vi_pure`` runs its sweep kernel
over the admissible actions, and ``relative_vi`` value iteration's
sweeps and certificate (``bellman._settle``) over the vertices; every
exact policy evaluation goes through the evaluation core of
:mod:`safemdp.evaluate`, whose pure-policy kernel ``_pure_blocks``
``_admissible_blocks`` filters; its streaming ``_admissible_scan`` serves
``brute_force_constrained`` and ``constrained_vi_pure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bellman import _bellman, _candidate_major, _greedy_policy, _improve, _settle, _sweep
from .bellman import safest_policy
from .evaluate import _pure_blocks, _solve
from .exceptions import InfeasibleError, MaxIterationsError
from .model import MdpModel, Policy, _taboo_policy
from .simplex import solve_min

ADMISSIBLE_TOL = 1e-10
RELATIVE_TOL = 1e-12
_INNER_ROUNDS = 100_000  # policy-iteration rounds, and solves of the dual's walk


@dataclass(frozen=True)
class ConstrainedSolveReport:
    """Common result shape for the constrained solvers.

    ``value`` is a vector over taboo states; ``gap`` is the summed
    value of the best admissible pure policy less the sweep limit for
    ``constrained_vi_pure`` and None for the other solvers; ``info``
    carries method-specific diagnostics.  Only ``dual_ascent`` reports
    ``feasible`` False: its value is then the unconstrained optimum
    (``_improve`` at t = 0), its policy the safest policy, and ``info``
    holds the minimal safety.
    """

    value: np.ndarray
    policy: Policy
    method: str
    feasible: bool
    gap: float | None
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BruteForceResult:
    """Best admissible pure policy by exhaustive enumeration."""

    feasible: bool
    assignment: tuple[int, ...] | None
    policy: Policy | None
    value: np.ndarray | None
    safety: np.ndarray | None
    admissible_count: int
    total: int


@dataclass(frozen=True)
class AdmissibleSet:
    """Admissible pure policies as rows (P, h) of actions, exact V and S.

    ``non_transient`` (Q, h) holds the assignments that cannot be evaluated.
    """

    assignments: np.ndarray
    value: np.ndarray
    safety: np.ndarray
    non_transient: np.ndarray
    total: int
    p: float


def _check_level(level, name: str = "p") -> None:
    """Reject a non-finite level: nan fails every bound test, +-inf decides all of them."""
    if not math.isfinite(level):
        raise ValueError(f"{name} must be finite, got {level}")


def dual_ascent(
    model: MdpModel,
    p: float,
    inner_tol: float = 1e-10,
) -> ConstrainedSolveReport:
    """Maximize the summed dual over multiplier levels t >= 0 at its kink.

    D(t) = sum_i min_pi [V(i) + t (S(i) - p)] over proper policies is
    concave and piecewise linear: the policy optimal for the stage cost
    rho + t K changes only at breakpoints.  The walk starts at t = 0 from
    ``_improve``'s policy, begun from the safest policy's choice; each
    step solves its policy for V and S at once, and a candidate costs
    a + t b over the state's own choice, a = rho + QV - V and
    b = K + QS - S.  A candidate counts when b times the state's expected
    visits (summed over the starts) is below -inner_tol.  The next level
    is the least -a/b of those, at least t, and each state moves to the
    counting candidate with the least b whose -a/b is within the factor
    1 + inner_tol of it (README, Numerical notes); where none counts, to
    the safest policy, the t = inf piece.  Past _INNER_ROUNDS solves,
    steps at an unchanged level included, raises MaxIterationsError.

    The kink is the first policy with sum(S) <= |H| (p + ADMISSIBLE_TOL),
    entered where its summed line V + t S crosses the last policy's;
    ``value`` is its V + t (S - p), the dual's maximum.  ``policy`` is
    the first policy walked within p + ADMISSIBLE_TOL at every state,
    walking on past a kink at t > 0 to find it, and after a kink at
    t = 0 outside p the safest policy.
    ``info`` holds the ``level``, the policies solved
    (``outer_iterations``), the levels stepped (``breakpoints``), the
    ``exit`` ("unconstrained" at t = 0, else "kink") and whether the
    kink's policy is within p (``inner_policy_feasible``).  Infeasibility
    (some coordinate of the minimal safety above p) is reported, not
    raised: ``value`` is then the unconstrained optimum, ``_improve``'s
    at t = 0, and ``policy`` the safest policy.
    """
    _check_level(p)
    h, states = model.n_taboo, np.arange(model.n_taboo)
    s_star, safe_pol = safest_policy(model)
    safe = safe_pol.assignment()[:h]
    v0, choice = _improve(model.stage_costs, model.taboo_block, safe, inner_tol, _INNER_ROUNDS)
    if (s_star > p + ADMISSIBLE_TOL).any():
        info = {"min_safety": s_star, "p": p}
        return ConstrainedSolveReport(v0, safe_pol, "dual-ascent", False, None, info)

    rows, cost = _candidate_major(model.stage_costs, model.taboo_block)
    risk = model.forbidden_exit.T.ravel()
    rhs = np.stack([cost, risk], axis=1)
    bound = h * (p + ADMISSIBLE_TOL)
    t, kink, steps = 0.0, None, []
    for solves in range(1, _INNER_ROUNDS + 1):
        at = choice * h + states
        v, s = _solve(rows[at], rhs[at]).T
        within = bool((s <= p + ADMISSIBLE_TOL).all())
        if t == np.inf or (kink is None and t > 0.0 and s.sum() <= bound):
            # entered where the summed lines of this policy and the last cross
            t = steps[-1] = max(last[2], float((v - last[0]).sum() / (last[1] - s).sum()))
        if kink is None and s.sum() <= bound:
            kink = t, v + t * (s - p), within
        if kink is not None and (within or t == 0.0):
            break
        a, b = _bellman(rows, cost, v), _bellman(rows, risk, s)
        a, b = a - a[choice, states], b - b[choice, states]
        visits = np.linalg.solve(np.eye(h) - rows[at].T, np.ones(h))
        drop = visits * b < -inner_tol
        last = v, s, t
        if drop.any():
            cross = np.full(b.shape, np.inf)
            cross[drop] = -a[drop] / b[drop]
            t = max(t, float(cross.min()))
            tied = cross <= t * (1.0 + inner_tol)
            choice = np.where(tied.any(axis=0), np.where(tied, b, np.inf).argmin(axis=0), choice)
        else:  # the t = inf piece: the safest policy
            choice, t = safe, np.inf
        steps.append(t)
    else:
        raise MaxIterationsError(f"the walk did not end within {_INNER_ROUNDS} solves", last=v)

    level, value, feasible = kink
    policy = _greedy_policy(model, choice) if within else safe_pol
    info = {
        "level": level,
        "outer_iterations": solves,
        "breakpoints": steps,
        "exit": "kink" if level > 0.0 else "unconstrained",
        "inner_policy_feasible": feasible,
    }
    return ConstrainedSolveReport(value, policy, "dual-ascent", True, None, info)


@dataclass(frozen=True)
class LpProblem:
    """Maximize ``objective @ x`` over ``rows @ x <= rhs``, ``x >= 0``.

    Variables are the value candidates l, one per taboo state, followed
    by the multiplier level t when the model has forbidden states.  One
    row per (taboo state, action), except rows whose coefficients all
    vanish (a self-looping action that never leaves its state).
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    n_taboo: int
    p: float

    @property
    def has_multiplier(self) -> bool:
        return self.rows.shape[1] > self.n_taboo

    def dump(self) -> str:
        """Readable tableau: objective, then one constraint per line."""
        terms = [
            f"{c:+g} {name}"
            for c, name in zip(self.objective, self.column_labels)
            if c != 0.0
        ]
        lines = ["maximize " + " ".join(terms), "subject to"]
        width = max(len(r) for r in self.row_labels) if self.row_labels else 0
        for label, row, b in zip(self.row_labels, self.rows, self.rhs):
            body = " ".join(
                f"{c:+.6g} {name}"
                for c, name in zip(row, self.column_labels)
                if c != 0.0
            )
            lines.append(f"  {label:<{width}}  {body} <= {b:g}")
        lines.append("  all variables >= 0")
        return "\n".join(lines)


@dataclass(frozen=True)
class LpSolution:
    """Optimal l, the multiplier level t, and the penalized value l - p*t."""

    l: np.ndarray
    level: float
    value: np.ndarray
    objective: float
    iterations: int


def build_lp(model: MdpModel, p: float) -> LpProblem:
    """Assemble the pure-policy constraint program for the bound p.

    Row (i, u) reads ``l(i) - sum_j p_iuj l(j) - K(u, i) t <= rho(u, i)``;
    the objective maximizes ``sum_i l(i) - p |H| t``.  Stochastic
    policies add no further constraints: their rows are convex
    combinations of these.  Models without forbidden states get no t
    column.
    """
    _check_level(p)
    h, m = model.n_taboo, model.n_actions
    with_t = model.n_forbidden > 0
    width = h + 1 if with_t else h

    rows = np.zeros((h, m, width))
    rows[:, :, :h] = -model.taboo_block
    rows[np.arange(h), :, np.arange(h)] += 1.0
    if with_t:
        rows[:, :, h] = -model.forbidden_exit
    rows = rows.reshape(h * m, width)
    keep = np.abs(rows).max(axis=1) > 1e-15
    labels = tuple(
        f"{model.states[k // m]}:{model.actions[k % m]}" for k in np.flatnonzero(keep)
    )

    objective = np.ones(width)
    if with_t:
        objective[h] = -p * h
    columns = [f"l[{s}]" for s in model.states[:h]]
    if with_t:
        columns.append("t")
    return LpProblem(
        objective=objective,
        rows=rows[keep],
        rhs=model.stage_costs.reshape(h * m)[keep],
        row_labels=labels,
        column_labels=tuple(columns),
        n_taboo=h,
        p=p,
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the assembled program with the in-package simplex.

    An unbounded program means no multiplier level can discharge the
    penalty: the summed minimal safety exceeds |H| p, so p is infeasible;
    the LpUnboundedError from the solver propagates to the caller.  A
    bounded program does not make p feasible at every state, which
    ``dual_ascent`` decides.
    """
    res = solve_min(-problem.objective, problem.rows, problem.rhs)
    h = problem.n_taboo
    l = res.x[:h]
    t = float(res.x[h]) if problem.has_multiplier else 0.0
    return LpSolution(
        l=l,
        level=t,
        value=l - problem.p * t,
        objective=float(-res.objective),
        iterations=res.iterations,
    )


def _admissible_blocks(model: MdpModel, p: float, cap: int):
    """``_pure_blocks`` and each block's mask of transient policies within p."""
    _check_level(p)
    for picks, transient, X in _pure_blocks(model, cap):
        within = (X[:, 1] <= p + ADMISSIBLE_TOL).all(axis=1)
        yield picks, transient, X, transient & within


def _admissible_scan(model: MdpModel, p: float, cap: int):
    """One pass over the pure policies, holding one PURE_CHUNK block.

    Returns the first-wins argmin of summed V among admissible policies as
    (assignment, rows V S T) or None, the admissible and non-transient
    counts, and the (h, m) mask of actions some admissible policy takes.
    """
    h = model.n_taboo
    best, best_sum, admissible, skipped = None, np.inf, 0, 0
    mask = np.zeros((h, model.n_actions), dtype=bool)
    for picks, transient, X, keep in _admissible_blocks(model, p, cap):
        keep = np.flatnonzero(keep)
        admissible += keep.size
        skipped += len(transient) - int(transient.sum())
        mask[np.arange(h), picks[keep]] = True
        sums = X[keep, 0].sum(axis=1)
        if keep.size and sums.min() < best_sum:
            k = keep[sums.argmin()]
            best_sum, best = sums.min(), (picks[k], X[k].copy())
    return best, admissible, skipped, mask


def brute_force_constrained(
    model: MdpModel, p: float, cap: int = 10**6
) -> BruteForceResult:
    """Exhaustively find the admissible pure policy with the least summed value.

    The reference oracle for the constrained solvers: every pure policy
    is evaluated exactly by the evaluation core's pure-policy kernel;
    those with any safety coordinate above p + ADMISSIBLE_TOL or with a
    non-transient chain are rejected.  Ties on the summed value keep the
    earliest policy in product order.
    """
    best, admissible, _, _ = _admissible_scan(model, p, cap)
    total = model.n_actions**model.n_taboo
    if best is None:
        return BruteForceResult(False, None, None, None, None, 0, total)
    a, (v, s, _) = best
    policy = _greedy_policy(model, a)
    return BruteForceResult(True, tuple(a.tolist()), policy, v, s, admissible, total)


def enumerate_admissible(model: MdpModel, p: float, cap: int = 10**6) -> AdmissibleSet:
    """Evaluate every pure policy and keep those with safety <= p throughout.

    Enumeration order is the action-index product over taboo states in
    canonical order, last state varying fastest, as ``_pure_blocks``
    yields it.  Policies whose induced chain is not transient cannot be
    evaluated and are listed separately.
    """
    blocks = [
        (picks[keep], X[keep, 0], X[keep, 1], picks[~transient])
        for picks, transient, X, keep in _admissible_blocks(model, p, cap)
    ]
    assignments, value, safety, skipped = map(np.concatenate, zip(*blocks))
    total = model.n_actions**model.n_taboo
    return AdmissibleSet(assignments, value, safety, skipped, total, p)


def constrained_vi_pure(
    model: MdpModel,
    p: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    cap: int = 10**6,
) -> ConstrainedSolveReport:
    """Value iteration over the per-state projection of the admissible set.

    State i minimizes R + Q V over the actions admissible pure policies
    take at i.  The sweep limit can undercut every single admissible
    policy (coordinates may be claimed by different policies), so the
    report carries both: ``value`` is the sweep limit, ``policy`` the
    admissible policy with the smallest summed exact value (the first in
    product order), and ``info`` flags a gap between the two beyond 1e-8.
    """
    best, admissible, skipped, mask = _admissible_scan(model, p, cap)
    h, total = model.n_taboo, model.n_actions**model.n_taboo
    if best is None:
        raise InfeasibleError(
            f"no pure policy keeps safety within {p} everywhere "
            f"({total} enumerated, {skipped} non-transient)"
        )
    stage = np.where(mask, model.stage_costs, np.inf)
    v, _, sweep = _sweep(stage, model.taboo_block, np.zeros(h), tol, max_iter)

    assignment, (best_value, _, _) = best
    spread = float(np.abs(best_value - v).max())
    return ConstrainedSolveReport(
        value=v,
        policy=_greedy_policy(model, assignment),
        method="constrained-vi",
        feasible=True,
        gap=float(best_value.sum() - v.sum()),
        info={
            "sweeps": sweep,
            "admissible_count": admissible,
            "non_transient_count": skipped,
            "sweep_matches_best_policy": bool(spread <= 1e-8),
            "sweep_vs_best_policy": spread,
        },
    )


@dataclass(frozen=True)
class RelativeVertexSet:
    """Vertices of every taboo state's admissible action-distribution polytope.

    ``weights`` (h, k, m) holds vertex c of state i as a weight row over
    actions at ``weights[i, c]`` where ``valid[i, c]``, and zeros past
    the state's vertices: the pure admissible actions first (ascending
    index, ``pure_count[i]`` of them), then the boundary mixtures of one
    strictly admissible and one strictly violating action, ordered by
    that index pair.  k is the most vertices any state has; a state
    with no valid row admits no distribution at level ``q``.
    """

    weights: np.ndarray
    valid: np.ndarray
    pure_count: np.ndarray
    q: float


def relative_admissible(model: MdpModel, q: float) -> RelativeVertexSet:
    """Vertex description of {d : d.K <= q d.L} at every taboo state.

    The constraint is a half-space cut through the action simplex, so
    every vertex is either an admissible pure action (g <= RELATIVE_TOL,
    where g = K - qL) or the boundary point on an edge from an action s
    with g_s < -RELATIVE_TOL to one v with g_v > RELATIVE_TOL: weight
    x = g_v / (g_v - g_s) on s and 1 - x on v.  Built by array
    operations: each state's admissible actions and (s, v) pairs, in
    that order, fill its rows from the front.
    """
    _check_level(q, "q")
    if q < 0:
        raise ValueError("q must be nonnegative")
    g = model.forbidden_exit - q * model.target_exit
    h, m = g.shape
    pure = g <= RELATIVE_TOL
    pair = (g < -RELATIVE_TOL)[:, :, None] & (g > RELATIVE_TOL)[:, None]
    # Candidate u < m is pure action u, candidate m + s*m + v the pair (s, v);
    # a valid candidate's row is the number of valid candidates before it.
    candidates = np.concatenate([pure, pair.reshape(h, m * m)], axis=1)
    row = np.cumsum(candidates, axis=1) - 1
    count = candidates.sum(axis=1)
    weights = np.zeros((h, count.max(), m))
    i, u = np.nonzero(pure)
    weights[i, row[i, u], u] = 1.0
    i, s, v = np.nonzero(pair)
    x = g[i, v] / (g[i, v] - g[i, s])
    at = row[i, m + s * m + v]
    weights[i, at, s] = x
    weights[i, at, v] = 1.0 - x
    valid = np.arange(count.max()) < count[:, None]
    return RelativeVertexSet(weights, valid, pure.sum(axis=1), q)


def relative_vi(
    model: MdpModel, q: float, tol: float = 1e-10, max_iter: int = 100_000
) -> ConstrainedSolveReport:
    """Bellman iteration with per-state minimization over admissible vertices.

    The per-state objective is linear in the action distribution, so the
    minimum over the cut simplex is attained at one of the vertices from
    ``relative_admissible``; ties resolve to the first vertex in that
    ordering.  Entirely local: each state's update reads only its own
    vertex data and the current values of its successors.  Candidate c
    of state i costs ``weights[i, c] @ stage_costs[i]`` (+inf where not
    valid) and moves by ``weights[i, c] @ taboo_block[i]``; the sweeps
    end as ``value_iteration``'s do (``bellman._settle``, ``tol`` its
    change rule and improvement threshold), so ``value`` is the exact
    value of ``policy``, whose row i is ``weights[i, chosen[i]]``.
    """
    vs = relative_admissible(model, q)
    empty = np.flatnonzero(~vs.valid.any(axis=1))
    if empty.size:
        raise InfeasibleError(
            f"state '{model.states[empty[0]]}' admits no action distribution "
            f"at relative level q={q}"
        )
    h = model.n_taboo
    stage = np.where(vs.valid, np.einsum("ikm,im->ik", vs.weights, model.stage_costs), np.inf)
    Q = vs.weights @ model.taboo_block
    v, chosen, sweep = _settle(stage, Q, np.zeros(h), tol, max_iter)
    policy = _taboo_policy(model, vs.weights[np.arange(h), chosen])
    info = {
        "sweeps": sweep,
        "q": q,
        "vertices_per_state": vs.valid.sum(axis=1).tolist(),
        "chosen_vertex": chosen.tolist(),
    }
    return ConstrainedSolveReport(v, policy, "relative-vi", True, None, info)


def p_to_q(p):
    """Convert a global safety level to the matching one-step ratio p/(1-p).

    Exact for Fraction inputs; floats go through float division.
    """
    if not 0 <= p < 1:
        raise ValueError("p must lie in [0, 1)")
    return p / (1 - p)
