"""Safety-constrained solvers.

Four routes to the same problem, minimizing expected cost subject to a
bound on the probability of absorption in a forbidden state:

* the Lagrangian dual over one multiplier level, maximized by walking
  the breakpoints where its optimal policy changes,
* a linear program over pure-policy constraint rows, whose optimum the
  same walk reads off the dual's kink and a primal-dual certificate
  checks against the program's own rows,
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
``dual_ascent`` and ``solve_lp`` share one breakpoint walk (``_walk``),
which prices every candidate with the candidate-major rows of
:mod:`safemdp.bellman`, ``constrained_vi_pure`` runs its sweep kernel
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
from typing import NamedTuple

import numpy as np

from .bellman import _bellman, _candidate_major, _greedy_policy, _improve, _settle, _sweep
from .bellman import safest_policy
from .evaluate import _SUBNORMAL, _gamma, _pure_blocks, _solve, _witness
from .exceptions import InfeasibleError, LpUnboundedError, MaxIterationsError, NotTransientError
from .model import MdpModel, Policy, _taboo_policy

ADMISSIBLE_TOL = 1e-10
INNER_TOL = 1e-10  # the walk's improvement threshold and count cut, dual_ascent's default
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


class _Step(NamedTuple):
    """A policy of the walk, whether it is the kink, and the rounds so far."""

    t: float
    choice: np.ndarray
    v: np.ndarray
    s: np.ndarray
    visits: np.ndarray
    kink: bool
    solves: int


def _walk(model: MdpModel, p: float, choice: np.ndarray, inner_tol: float, safe=None):
    """Walk the breakpoints of the summed dual from the proper ``choice``.

    D(t) = sum_i min_pi [V(i) + t (S(i) - p)] is concave and piecewise
    linear in t.  Each round solves V, S and the visits 1^T G at once.
    Rounds run policy iteration on rho at t = 0 by ``bellman._round``'s
    rule until none switches, then each yields its policy as a ``_Step``
    and steps on by README's rules (Numerical notes) for candidates that
    cost a + t b over the state's choice, a = rho + QV - V and b = K +
    QS - S; where none counts, to ``safe`` (``safest_policy``'s choice
    when None), the t = inf piece.
    ``kink`` marks the first policy with sum(S) <= |H| (p +
    ADMISSIBLE_TOL); its level, as that of a policy entered from the
    t = inf piece, is where its summed line V + t S crosses the last
    one's.  The t = inf piece before the kink raises LpUnboundedError,
    more than _INNER_ROUNDS rounds MaxIterationsError.
    """
    h, states = model.n_taboo, np.arange(model.n_taboo)
    rows, cost = _candidate_major(model.stage_costs, model.taboo_block)
    risk = model.forbidden_exit.T.ravel()
    rhs, ones = np.stack([cost, risk], axis=1), np.ones(h)
    bound = h * (p + ADMISSIBLE_TOL)
    t, kinked, started = 0.0, False, False
    for solves in range(1, _INNER_ROUNDS + 1):
        at = choice * h + states
        X, visits = _solve(rows[at], rhs[at], ones)
        v, s = X.T
        a = _bellman(rows, cost, v)
        if not started:
            greedy = a.argmin(axis=0)
            switch = a[choice, states] - a[greedy, states] > inner_tol * np.maximum(1.0, np.abs(v))
            if switch.any():
                choice = np.where(switch, greedy, choice)
                continue
            started = True
        kink = not kinked and s.sum() <= bound
        if t == np.inf or (kink and t > 0.0):
            if not (kinked or kink):
                raise LpUnboundedError("objective improves along an unbounded ray")
            # entered where the summed lines of this policy and the last cross
            t = max(last[2], float((v - last[0]).sum() / (last[1] - s).sum()))
        kinked |= kink
        yield _Step(t, choice, v, s, visits, kink, solves)
        b = _bellman(rows, risk, s)
        a, b = a - a[choice, states], b - b[choice, states]
        drop = visits * b < -inner_tol
        last = v, s, t
        if drop.any():
            cross = np.full(b.shape, np.inf)
            cross[drop] = -a[drop] / b[drop]
            t = max(t, float(cross.min()))
            tied = cross <= t * (1.0 + inner_tol)
            choice = np.where(tied.any(axis=0), np.where(tied, b, np.inf).argmin(axis=0), choice)
        else:  # the t = inf piece: the safest policy
            if safe is None:
                safe = safest_policy(model)[1].assignment()[:h]
            choice, t = safe, np.inf
    raise MaxIterationsError(f"the walk did not end within {_INNER_ROUNDS} solves", last=v)


def dual_ascent(
    model: MdpModel,
    p: float,
    inner_tol: float = INNER_TOL,
) -> ConstrainedSolveReport:
    """Maximize the summed dual over multiplier levels t >= 0 at its kink.

    The breakpoint walk (``_walk``) starts at t = 0 from ``_improve``'s
    policy, begun from the safest policy's choice, and ``value`` is the
    V + t (S - p) of its kink, the dual's maximum.  ``policy`` is the
    first policy walked within p + ADMISSIBLE_TOL at every state,
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
    h = model.n_taboo
    s_star, safe_pol = safest_policy(model)
    safe = safe_pol.assignment()[:h]
    v0, choice = _improve(model.stage_costs, model.taboo_block, safe, inner_tol, _INNER_ROUNDS)
    if (s_star > p + ADMISSIBLE_TOL).any():
        info = {"min_safety": s_star, "p": p}
        return ConstrainedSolveReport(v0, safe_pol, "dual-ascent", False, None, info)

    levels, kink = [], None
    for step in _walk(model, p, choice, inner_tol, safe):
        levels.append(step.t)
        within = bool((step.s <= p + ADMISSIBLE_TOL).all())
        if step.kink:
            kink = step.t, step.v + step.t * (step.s - p), within
        if kink is not None and (within or step.t == 0.0):
            break

    level, value, feasible = kink
    policy = _greedy_policy(model, step.choice) if within else safe_pol
    info = {
        "level": level,
        "outer_iterations": len(levels),
        "breakpoints": levels[1:],
        "exit": "kink" if level > 0.0 else "unconstrained",
        "inner_policy_feasible": feasible,
    }
    return ConstrainedSolveReport(value, policy, "dual-ascent", True, None, info)


@dataclass(frozen=True)
class LpProblem:
    """Maximize ``objective @ z`` over ``rows @ z <= rhs``, ``z >= 0``.

    Variables are the value candidates l, one per taboo state, followed
    by the multiplier level t when the model has forbidden states.  One
    row per (taboo state, action), except rows whose coefficients all
    vanish (a self-looping action that never leaves its state).
    ``model`` is the model ``build_lp`` assembled the program from.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    n_taboo: int
    p: float
    model: MdpModel = field(repr=False, compare=False)

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
    """Optimal l, the multiplier level t and the penalized value l - p*t, from
    ``iterations`` exact solves; ``certified`` where none of ``_certify``'s
    checks fails, with the duality ``gap`` and the ``failed`` checks."""

    l: np.ndarray
    level: float
    value: np.ndarray
    objective: float
    iterations: int
    certified: bool
    gap: float
    failed: tuple[str, ...]


def _kept(model: MdpModel) -> np.ndarray:
    """The mask, state-major over (taboo state, action), of the rows ``build_lp``
    keeps: those with a coefficient above 1e-15 in magnitude."""
    Q, states = model.taboo_block, np.arange(model.n_taboo)
    big = Q > 1e-15
    big[states, :, states] = np.abs(1.0 - Q[states, :, states]) > 1e-15
    return (big.any(axis=2) | (model.forbidden_exit > 1e-15)).ravel()


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
    keep = _kept(model)
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
        rows=rows.reshape(h * m, width)[keep],
        rhs=model.stage_costs.reshape(h * m)[keep],
        row_labels=labels,
        column_labels=tuple(columns),
        n_taboo=h,
        p=p,
        model=model,
    )


def _certify(problem: LpProblem, z: np.ndarray, x: np.ndarray) -> tuple[float, tuple[str, ...]]:
    """The duality gap of ``z`` and ``x`` on ``problem``, and the checks they fail.

    ``z`` is a point of max c.z over A z <= b, z >= 0 (``problem``'s
    objective, rows and right-hand side) and ``x`` of its dual, min b.x
    over A^T x >= c, x >= 0.  The checks: every row and z >= 0; x >= 0;
    the flow equations, A^T x = 1 on the l columns; the mean constraint,
    A^T x >= -p |H| on t; and the gap b.x - c.z = 0.  A residual passes
    within gamma_k times the sum of the magnitudes of its k terms, the
    bound of its rounding (Higham 2002, §3.5), as in
    ``evaluate._transience_residual``.
    """
    A, b, c = problem.rows, problem.rhs, problem.objective
    r, w = A.shape
    absA, tiny = np.abs(A), 4 * (r + w + 1) * _SUBNORMAL
    slack = b - A @ z
    slack_tol = _gamma(w + 1) * (absA @ np.abs(z) + np.abs(b)) + tiny
    flow = A.T @ x - c
    flow_tol = _gamma(r + 1) * (absA.T @ np.abs(x) + np.abs(c)) + tiny
    gap = float(b @ x - c @ z)
    gap_tol = _gamma(r + w + 1) * float(np.abs(b) @ np.abs(x) + np.abs(c) @ np.abs(z)) + tiny

    h, rows, columns = problem.n_taboo, problem.row_labels, problem.column_labels
    failed = [f"row {rows[i]}" for i in np.flatnonzero(~(slack >= -slack_tol))]
    failed += [f"{columns[j]} >= 0" for j in np.flatnonzero(~(z >= 0.0))]
    failed += [f"x[{rows[i]}] >= 0" for i in np.flatnonzero(~(x >= 0.0))]
    failed += [f"flow {columns[j]}" for j in np.flatnonzero(~(np.abs(flow[:h]) <= flow_tol[:h]))]
    if w > h and not flow[h] >= -flow_tol[h]:
        failed.append("mean constraint")
    if not abs(gap) <= gap_tol:
        failed.append("duality gap")
    return gap, tuple(failed)


def solve_lp(problem: LpProblem) -> LpSolution:
    """The program's optimum, read off the dual's kink and certified.

    The optimum is the summed dual's maximum, at the kink of ``_walk``
    begun from ``evaluate._witness``: l = V + t S and the value
    V + t (S - p) of the kink policy at its level t.  The dual point x
    is that policy's occupation measure, at t > 0 mixed with the last
    policy's so that sum x K = p |H|, and ``_certify`` checks the pair
    (README, Numerical notes).  A summed minimal safety above
    |H| (p + ADMISSIBLE_TOL), or taboo states that no policy leads out
    of H, make the program unbounded: LpUnboundedError.
    """
    model, p, h = problem.model, problem.p, problem.n_taboo
    try:
        start = _witness(model.taboo_block)
    except NotTransientError as exc:  # l rises freely on states that never leave H
        raise LpUnboundedError("objective improves along an unbounded ray") from exc
    last = None
    for step in _walk(model, p, start, INNER_TOL):
        if step.kink:
            break
        last = step

    t, states = step.t, np.arange(h)
    measure = np.zeros((h, model.n_actions))
    measure[states, step.choice] = step.visits
    if t > 0.0:
        mix = (p * h - step.s.sum()) / (last.s.sum() - step.s.sum())
        mix = min(max(mix, 0.0), 1.0)
        measure *= 1.0 - mix
        measure[states, last.choice] += mix * last.visits
    x = measure.ravel()[_kept(model)]
    l, value = step.v + t * step.s, step.v + t * (step.s - p)
    z = np.append(l, t) if problem.has_multiplier else l
    gap, failed = _certify(problem, z, x)
    return LpSolution(l, t, value, float(value.sum()), step.solves, not failed, gap, failed)


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
