"""Constrained solvers: Lagrangian machinery, LP, enumeration, relative safety."""
import dataclasses
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safemdp as sm
from safemdp import constrained
from safemdp.bellman import _bellman, _candidate_major, _greedy_policy, _improve, _sweep
from safemdp.constrained import ADMISSIBLE_TOL, RELATIVE_TOL
from safemdp.evaluate import _exact, _solve, _trapped
from corpus import _fill, corridor_model, sparse_model
from test_policy_iteration import finish, improve_penalized

GOLDEN = np.array([1.0, 3.6, 4.0])


def members_entrywise_min(adm):
    return adm.value.min(axis=0)


# ---------------------------------------------------------------- dual inner


def test_dual_inner_zero_is_unconstrained(ex1_model):
    q, pol = improve_penalized(ex1_model, 0.0)
    assert np.allclose(q, GOLDEN, atol=1e-9)
    assert tuple(pol.assignment()[:3]) == (0, 1, 0)


def test_dual_inner_single_policy_matches_lagrangian():
    """At level t the dual's inner optimum is V + t (S - p): rho + t K's less p t."""
    doc = {
        "states": ["h0", "u0", "e0"],
        "actions": ["a0"],
        "partition": {"taboo": ["h0"], "forbidden": ["u0"], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h0", "p": 0.2},
            {"from": "h0", "action": "a0", "to": "u0", "p": 0.3},
            {"from": "h0", "action": "a0", "to": "e0", "p": 0.5},
            {"from": "u0", "action": "a0", "to": "u0", "p": 1.0},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
        ],
        "rewards": [{"state": "h0", "action": "a0", "rho": 1.0}],
    }
    model = sm.load_model(json.dumps(doc))
    pol = sm.pure_policy(model, {0: 0})
    t, p = 2.0, 0.6
    q, _ = improve_penalized(model, t)
    L = sm.value(model, pol) + t * (sm.safety(model, pol) - p)
    assert np.abs(q - p * t - L).max() <= 1e-9


# ------------------------------------------------------------------------ lp


def test_build_lp_structure(ex1_model):
    problem = sm.build_lp(ex1_model, p=0.5)
    assert problem.has_multiplier
    assert problem.column_labels == ("l[a]", "l[b]", "l[c]", "t")
    assert problem.rows.shape == (6, 4)
    assert set(problem.row_labels) == {
        f"{s}:{u}" for s in "abc" for u in ("u1", "u2")
    }
    text = problem.dump()
    assert "maximize" in text and "a:u1" in text and "<=" in text


def no_forbidden_model():
    """One taboo state, no forbidden state, two exits at costs 1 and 2."""
    doc = {
        "states": ["h0", "e0"],
        "actions": ["cheap", "dear"],
        "partition": {"taboo": ["h0"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "cheap", "to": "e0", "p": 1.0},
            {"from": "h0", "action": "dear", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "cheap", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "dear", "to": "e0", "p": 1.0},
        ],
        "rewards": [
            {"state": "h0", "action": "cheap", "rho": 1.0},
            {"state": "h0", "action": "dear", "rho": 2.0},
        ],
    }
    return sm.load_model(json.dumps(doc))


def test_build_lp_drops_multiplier_without_forbidden():
    model = no_forbidden_model()
    problem = sm.build_lp(model, p=0.5)
    assert not problem.has_multiplier
    sol = sm.solve_lp(problem)
    assert sol.l[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.level == 0.0


def reference_build_lp(model, p):
    """The per-(state, action) loop that assembled the program's rows."""
    h, m = model.n_taboo, model.n_actions
    PH, K, stage = model.taboo_block, model.forbidden_exit, model.stage_costs
    with_t = model.n_forbidden > 0
    width = h + 1 if with_t else h

    rows, rhs, labels = [], [], []
    for i in range(h):
        for u in range(m):
            row = np.zeros(width)
            row[:h] = -PH[i, u]
            row[i] += 1.0
            if with_t:
                row[h] = -K[i, u]
            if np.abs(row).max() <= 1e-15:
                continue
            rows.append(row)
            rhs.append(stage[i, u])
            labels.append(f"{model.states[i]}:{model.actions[u]}")

    objective = np.ones(width)
    if with_t:
        objective[h] = -p * h
    columns = [f"l[{s}]" for s in model.states[:h]]
    if with_t:
        columns.append("t")
    return sm.LpProblem(
        objective=objective,
        rows=np.array(rows).reshape(len(rows), width),
        rhs=np.array(rhs),
        row_labels=tuple(labels),
        column_labels=tuple(columns),
        n_taboo=h,
        p=p,
        model=model,
    )


def lp_fingerprint(problem):
    arrays = (problem.objective, problem.rows, problem.rhs)
    return (
        tuple((a.dtype, a.shape, a.tobytes()) for a in arrays),
        problem.row_labels,
        problem.column_labels,
        problem.n_taboo,
        problem.p,
    )


def test_build_lp_matches_reference(ex1_model, solver_corpus, oracle_cases):
    cases = [(ex1_model, p) for p in (0.0, 0.3, 0.5, 1.0)]
    cases += solver_corpus + oracle_cases + [(no_forbidden_model(), 0.5)]
    dropped = 0
    for model, p in cases:
        got, want = sm.build_lp(model, p), reference_build_lp(model, p)
        assert lp_fingerprint(got) == lp_fingerprint(want)
        dropped += model.n_taboo * model.n_actions - len(want.row_labels)
    assert dropped > 0


def test_solve_lp_golden(ex1_model):
    sol = sm.solve_lp(sm.build_lp(ex1_model, p=0.5))
    assert np.abs(sol.l - GOLDEN).max() <= 1e-9
    assert sol.level == pytest.approx(0.0, abs=1e-9)
    assert sol.objective == pytest.approx(8.6, abs=1e-9)
    assert np.abs(sol.value - GOLDEN).max() <= 1e-9


def test_solve_lp_unbounded_signals_infeasible_p(ex1_model):
    with pytest.raises(sm.LpUnboundedError):
        sm.solve_lp(sm.build_lp(ex1_model, p=0.3))


def test_lp_value_bounded_by_members(solver_corpus):
    """The penalized vector never exceeds any admissible policy's value."""
    for model, p in solver_corpus:
        adm = sm.enumerate_admissible(model, p)
        if not len(adm.value):
            continue
        sol = sm.solve_lp(sm.build_lp(model, p))
        assert (sol.value <= members_entrywise_min(adm) + 1e-6).all()


def risky_safe_model():
    """One taboo state with a free risky action and a cost-10 safe one.

    Risky exits to the forbidden state with probability 0.5, safe with
    0.1, so the minimal safety is 0.1.
    """
    doc = {
        "states": ["h0", "u0", "e0"],
        "actions": ["risky", "safe"],
        "partition": {"taboo": ["h0"], "forbidden": ["u0"], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "risky", "to": "u0", "p": 0.5},
            {"from": "h0", "action": "risky", "to": "e0", "p": 0.5},
            {"from": "h0", "action": "safe", "to": "u0", "p": 0.1},
            {"from": "h0", "action": "safe", "to": "e0", "p": 0.9},
            {"from": "u0", "action": "risky", "to": "u0", "p": 1.0},
            {"from": "u0", "action": "safe", "to": "u0", "p": 1.0},
            {"from": "e0", "action": "risky", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "safe", "to": "e0", "p": 1.0},
        ],
        "rewards": [{"state": "h0", "action": "safe", "rho": 10.0}],
    }
    return sm.load_model(json.dumps(doc))


def test_lp_raw_variables_can_exceed_members():
    """With an active multiplier, l alone is not a value bound; l - p t is.

    In the risky/safe model with p between the two exit risks, the
    optimum mixes, t goes positive, and the l variable rises above the
    best pure admissible value while the penalized combination stays
    below it.
    """
    model = risky_safe_model()
    sol = sm.solve_lp(sm.build_lp(model, p=0.2))
    best_pure = 10.0
    assert sol.level == pytest.approx(25.0, abs=1e-6)
    assert sol.l[0] == pytest.approx(12.5, abs=1e-6)
    assert sol.l[0] > best_pure
    assert sol.value[0] == pytest.approx(7.5, abs=1e-6)
    assert sol.value[0] <= best_pure + 1e-9


def highs_objective(problem):
    """HiGHS's optimum of the program, or None where it finds it unbounded."""
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.linprog(-problem.objective, A_ub=problem.rows, b_ub=problem.rhs,
                           method="highs")
    assert res.status in (0, 3), res.message
    return -res.fun if res.status == 0 else None


def benchmark_size_models():
    """A 100-state dense model and a 100-state corridor, both at p = 0.5."""
    rng = np.random.default_rng(31)
    return [(_fill(rng, 100, 1, 2, 3, 0.1), 0.5), (corridor_model(rng, 100, 0.002), 0.5)]


def test_solve_lp_matches_highs(solver_corpus, oracle_cases):
    """The kink's certified optimum is HiGHS's within 1e-9, and the program
    is unbounded exactly where HiGHS finds it so, models with states that
    no policy leads out of H among them.  Among the sparse draws are
    programs where some state's minimal safety exceeds p but the summed
    one does not: ``dual_ascent`` calls them infeasible, the walk goes on
    to the kink."""
    rng = np.random.default_rng(2026)
    cases = solver_corpus + oracle_cases + benchmark_size_models()
    cases += [(sparse_model(rng), 0.5) for _ in range(300)]
    solved = unbounded = outside = trapped = 0
    for model, p in cases:
        trapped += bool(_trapped(model.taboo_block)[0].any())
        problem = sm.build_lp(model, p)
        want = highs_objective(problem)
        if want is None:
            with pytest.raises(sm.LpUnboundedError):
                sm.solve_lp(problem)
            unbounded += 1
            continue
        sol = sm.solve_lp(problem)
        assert sol.certified, sol.failed
        assert abs(sol.objective - want) <= 1e-9 * max(1.0, abs(want))
        assert abs(sol.gap) <= 1e-9 * max(1.0, abs(want))
        solved += 1
        outside += not sm.dual_ascent(model, p).feasible
    assert solved >= 300 and unbounded >= 100 and outside >= 20 and trapped >= 4


def test_solve_lp_on_lazy_gambles():
    """On the lazy gambles the optimum is the dual's exact rational maximum
    within 1e-12, certified, and HiGHS's within 1e-9 where HiGHS solves the
    program; at the minimal safety itself HiGHS calls it unbounded."""
    plain, mid = lazy_gamble(), lazy_gamble(mid=True)
    cases = [(plain, float(sm.safest_policy(one_state_model(plain))[0][0]))]
    cases += [(mid, p) for p in (0.499975, 0.49999, 0.4999625)]
    for actions, p in cases:
        problem = sm.build_lp(one_state_model(actions), p)
        sol = sm.solve_lp(problem)
        assert sol.certified, sol.failed
        want = one_state_dual(actions, p)
        assert abs(Fraction(sol.objective) - want) <= 1e-12 * want
        highs = highs_objective(problem)
        if highs is not None:
            assert abs(sol.objective - highs) <= 1e-9 * abs(highs)


def test_solve_lp_names_the_failing_check(ex1_model):
    """The certificate checks the caller's own program: a right-hand side
    lowered under the optimum breaks that row, and an objective that
    prices l differently breaks the flow equations and the duality gap."""
    problem = sm.build_lp(ex1_model, 0.5)
    assert sm.solve_lp(problem).certified
    rhs = problem.rhs.copy()
    rhs[problem.row_labels.index("a:u1")] -= 1e-9
    sol = sm.solve_lp(dataclasses.replace(problem, rhs=rhs))
    assert not sol.certified and sol.failed == ("row a:u1", "duality gap")
    objective = problem.objective.copy()
    objective[0] = 2.0
    sol = sm.solve_lp(dataclasses.replace(problem, objective=objective))
    assert sol.failed == ("flow l[a]", "duality gap")


def previous_dual_ascent(model, p, inner_tol=1e-10):
    """``dual_ascent`` with its breakpoint walk inline, as it was before
    ``solve_lp`` came to share the walk, and its visits from their own
    solve.  The shared walk must agree bit for bit."""
    h, states = model.n_taboo, np.arange(model.n_taboo)
    s_star, safe_pol = sm.safest_policy(model)
    safe = safe_pol.assignment()[:h]
    v0, choice = _improve(model.stage_costs, model.taboo_block, safe, inner_tol, 100_000)
    if (s_star > p + ADMISSIBLE_TOL).any():
        info = {"min_safety": s_star, "p": p}
        return sm.ConstrainedSolveReport(v0, safe_pol, "dual-ascent", False, None, info)
    rows, cost = _candidate_major(model.stage_costs, model.taboo_block)
    risk = model.forbidden_exit.T.ravel()
    rhs = np.stack([cost, risk], axis=1)
    bound = h * (p + ADMISSIBLE_TOL)
    t, kink, steps = 0.0, None, []
    for solves in range(1, 100_001):
        at = choice * h + states
        v, s = _solve(rows[at], rhs[at]).T
        within = bool((s <= p + ADMISSIBLE_TOL).all())
        if t == np.inf or (kink is None and t > 0.0 and s.sum() <= bound):
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
        else:
            choice, t = safe, np.inf
        steps.append(t)
    level, value, feasible = kink
    policy = _greedy_policy(model, choice) if within else safe_pol
    info = {"level": level, "outer_iterations": solves, "breakpoints": steps,
            "exit": "kink" if level > 0.0 else "unconstrained",
            "inner_policy_feasible": feasible}
    return sm.ConstrainedSolveReport(value, policy, "dual-ascent", True, None, info)


def test_dual_ascent_matches_the_inline_walk(solver_corpus, oracle_cases):
    """The walk's one solve of V and S against the matrix right-hand side
    and the tau column gives the inline walk's bits, as does its visits'
    LU of the transpose."""
    cases = solver_corpus + list(feasible_cases(oracle_cases)) + benchmark_size_models()
    cases += [(one_state_model(lazy_gamble(mid=True)), p) for p in (0.499975, 0.4999625)]
    for model, p in cases:
        got, want = sm.dual_ascent(model, p), previous_dual_ascent(model, p)
        assert got.value.tobytes() == want.value.tobytes()
        assert np.array_equal(got.policy.matrix, want.policy.matrix)
        assert repr(got.info) == repr(want.info)


# ----------------------------------------------------------------- dual ascent
def bisection_dual_ascent(model, p, inner_tol=1e-10):
    """``dual_ascent`` as it was: bisection on the sign of the dual's slope.

    Doubles a bracket from [0, 1] while the slope sum(S - p) of the
    level's policy is above |H| ADMISSIBLE_TOL (at most 60 times), then
    halves it to 1e-11 (1 + hi).  Keeps the level with the largest
    summed dual and the cheapest evaluated policy within p everywhere.
    """
    h = model.n_taboo
    _, safe_pol = sm.safest_policy(model)
    best = {"sum": -np.inf, "t": 0.0, "value": None}
    chosen = {"sum": np.inf, "policy": safe_pol}
    choice = safe_pol.assignment()[:h]
    evaluations = 0

    def rising(t):
        nonlocal choice, evaluations
        # rho + t K - p t (1 - sum_j p_iuj): for a proper policy, V + t (S - p)
        stage = model.stage_costs + model.forbidden_exit * t - p * (
            t - model.taboo_block @ np.full(h, t)
        )
        dual, choice = _improve(stage, model.taboo_block, choice, inner_tol, 100_000)
        pol = _greedy_policy(model, choice)
        evaluations += 1
        v, s, _ = _exact(model, pol)
        if dual.sum() > best["sum"]:
            best.update(sum=float(dual.sum()), t=t, value=dual)
        if (s <= p + ADMISSIBLE_TOL).all() and v.sum() < chosen["sum"]:
            chosen.update(sum=float(v.sum()), policy=pol)
        return float((s - p).sum()) > h * ADMISSIBLE_TOL

    lo = hi = 0.0
    if rising(0.0):
        hi, grow = 1.0, 60
        while hi - lo > 1e-11 * (1.0 + hi):
            t = hi if grow else 0.5 * (lo + hi)
            if not rising(t):
                hi, grow = t, 0
            elif grow:
                lo, hi, grow = t, 2.0 * t, grow - 1
            else:
                lo = t
    return sm.ConstrainedSolveReport(
        best["value"], chosen["policy"], "dual-ascent", True, None,
        {"level": best["t"], "outer_iterations": evaluations},
    )


def test_dual_ascent_golden(ex1_model):
    rep = sm.dual_ascent(ex1_model, p=0.5)
    assert rep.feasible
    assert np.abs(rep.value - GOLDEN).max() <= 1e-6
    assert rep.info["level"] == pytest.approx(0.0, abs=1e-9)
    assert rep.method == "dual-ascent"
    s = sm.safety(ex1_model, rep.policy)
    assert (s <= 0.5 + 1e-10).all()


def test_dual_ascent_infeasible_reports_floor(ex1_model):
    rep = sm.dual_ascent(ex1_model, p=0.3)
    assert not rep.feasible
    assert np.allclose(rep.info["min_safety"], 0.4, atol=1e-10)
    assert np.abs(rep.value - GOLDEN).max() <= 1e-9
    assert (sm.safety(ex1_model, rep.policy) <= 0.4 + 1e-10).all()


def test_dual_ascent_agrees_with_lp(solver_corpus):
    for model, p in solver_corpus:
        sol = sm.solve_lp(sm.build_lp(model, p))
        rep = sm.dual_ascent(model, p)
        assert rep.feasible
        assert abs(float(rep.value.sum()) - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective))


def feasible_cases(oracle_cases):
    """The oracle cases where some proper policy keeps every state within p."""
    for model, p in oracle_cases:
        if not _trapped(model.taboo_block)[0].any():
            if (sm.safest_policy(model)[0] <= p + ADMISSIBLE_TOL).all():
                yield model, p


def test_dual_ascent_matches_bisection(oracle_cases):
    """The walk's dual value is the bisection's, up to the bisection's
    bracket and never below it, and its policy is no costlier."""
    for model, p in feasible_cases(oracle_cases):
        walk, ref = sm.dual_ascent(model, p), bisection_dual_ascent(model, p)
        got, want = float(walk.value.sum()), float(ref.value.sum())
        scale = max(1.0, abs(want))
        assert abs(got - want) <= 1e-9 * scale and got >= want - 1e-12 * scale
        cost = [float(sm.value(model, rep.policy).sum()) for rep in (walk, ref)]
        assert cost[0] <= cost[1] + 1e-9 * scale
        if walk.info["level"] == 0.0:  # both keep the optimum at t = 0, or the safest
            assert np.array_equal(walk.policy.matrix, ref.policy.matrix)
        for rep in (walk, ref):
            assert (sm.safety(model, rep.policy) <= p + ADMISSIBLE_TOL).all()


def test_dual_ascent_matches_highs(oracle_cases):
    optimize = pytest.importorskip("scipy.optimize")
    for model, p in feasible_cases(oracle_cases):
        lp = sm.build_lp(model, p)
        res = optimize.linprog(-lp.objective, A_ub=lp.rows, b_ub=lp.rhs, method="highs")
        assert res.status == 0
        got = float(sm.dual_ascent(model, p).value.sum())
        assert abs(got + res.fun) <= 1e-9 * max(1.0, abs(res.fun))


def test_dual_ascent_binding_takes_few_solves(solver_corpus):
    binding = 0
    for model, p in solver_corpus:
        rep = sm.dual_ascent(model, p)
        assert rep.info["outer_iterations"] <= 8
        assert rep.info["outer_iterations"] == len(rep.info["breakpoints"]) + 1
        binding += rep.info["exit"] == "kink"
    assert binding == 3


def duplicated(model):
    """``model`` with every action listed twice, the copies after the originals."""
    return sm.MdpModel(
        states=model.states,
        actions=model.actions + tuple(f"{u}'" for u in model.actions),
        partition=model.partition,
        transitions=np.tile(model.transitions, (1, 2, 1)),
        rewards=np.tile(model.rewards, (2, 1)),
    )


def test_dual_ascent_walks_duplicated_actions_once(solver_corpus):
    """Copies tie on a and b everywhere; the walk takes the first of each
    tie, so it steps through the same levels to the same policy."""
    for model, p in solver_corpus:
        rep, twin = sm.dual_ascent(model, p), sm.dual_ascent(duplicated(model), p)
        assert twin.info == rep.info
        assert np.array_equal(twin.value, rep.value)
        assert np.array_equal(twin.policy.assignment(), rep.policy.assignment())


def nudged_copies(model):
    """``duplicated(model)`` with each copy's first two transition masses
    at a taboo state moved one ulp apart: a copy's a and b then differ
    from its original's by rounding only."""
    twin = duplicated(model)
    trans = twin.transitions.copy()
    for i, u in itertools.product(range(model.n_taboo), range(model.n_actions, trans.shape[1])):
        row = trans[i, u]
        j, k = np.flatnonzero(row)[:2]
        step = np.spacing(row[j])
        row[j] += step
        row[k] -= step
    return sm.MdpModel(twin.states, twin.actions, twin.partition, trans, twin.rewards)


def test_dual_ascent_ignores_candidates_that_differ_by_rounding():
    """A copy one ulp from its original lowers the safety by rounding
    only, far inside inner_tol once scaled by the visits, so it never
    counts: the walk takes the same solves to the same value.  With
    every b < 0 counting, 3 of these 7-state models take extra solves."""
    rng = np.random.default_rng(3)
    binding = 0
    for _ in range(16):
        model = _fill(rng, 7, 1, 2, 3, 0.1)
        s_star, _ = sm.safest_policy(model)
        s_opt = sm.safety(model, sm.value_iteration(model).policy)
        p = 0.5 * float(s_star.max() + s_opt.max())
        rep, twin = sm.dual_ascent(model, p), sm.dual_ascent(nudged_copies(model), p)
        assert twin.info["outer_iterations"] == rep.info["outer_iterations"]
        assert abs(float(twin.value.sum() - rep.value.sum())) <= 1e-12 * float(rep.value.sum())
        binding += rep.info["exit"] == "kink"
    assert binding == 6


def test_dual_ascent_at_the_tolerance_edge():
    """p within ADMISSIBLE_TOL below the minimal safety counts as feasible.

    The safe action's slope sum(S - p) = 5e-11 is positive but inside the
    tolerance, so the walk's kink is the safe action, at the mixing level.
    The program itself is unbounded there: the certificate fails on the
    mean constraint and on the duality gap.
    """
    model = risky_safe_model()
    p = 0.1 - 5e-11
    sol = sm.solve_lp(sm.build_lp(model, p))
    rep = sm.dual_ascent(model, p)
    assert rep.feasible
    assert abs(float(rep.value.sum()) - sol.objective) <= 1e-8
    assert sol.failed == ("mean constraint", "duality gap")
    assert rep.info["outer_iterations"] <= 60


def test_dual_ascent_complementary_slackness(solver_corpus):
    """An active multiplier level requires the reported policy to sit on the bound."""
    for model, p in solver_corpus:
        rep = sm.dual_ascent(model, p)
        s = sm.safety(model, rep.policy)
        assert float((rep.info["level"] * (s - p)).max()) <= 1e-6
        assert float(sm.value(model, rep.policy).sum()) >= float(rep.value.sum()) - 1e-9


def test_dual_ascent_oracle_gap(ex1_model):
    oracle = sm.brute_force_constrained(ex1_model, 0.5)
    rep = sm.dual_ascent(ex1_model, 0.5)
    assert rep.gap is None
    assert abs(float(oracle.value.sum()) - float(rep.value.sum())) <= 1e-6


def one_state_model(actions):
    """Taboo state h0, forbidden u0, target e0; ``actions`` maps each
    action to its cost at h0 and its masses to stay and to reach u0."""
    doc = {
        "states": ["h0", "u0", "e0"],
        "actions": list(actions),
        "partition": {"taboo": ["h0"], "forbidden": ["u0"], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": a, "to": to, "p": x}
            for a, (_, stay, lose) in actions.items()
            for to, x in (("h0", stay), ("u0", lose), ("e0", 1.0 - stay - lose))
            if x
        ]
        + [{"from": s, "action": a, "to": s, "p": 1.0} for a in actions for s in ("u0", "e0")],
        "rewards": [{"state": "h0", "action": a, "rho": c} for a, (c, _, _) in actions.items()],
    }
    return sm.load_model(json.dumps(doc))


def three_lines_model():
    """One taboo state whose actions' lines V + t S meet at t = 10.

    ``free`` costs 0 with safety 0.5, ``fee`` 1 with 0.4 and ``toll`` 2
    with 0.3, each leaving at once.
    """
    return one_state_model({"free": (0.0, 0.0, 0.5), "fee": (1.0, 0.0, 0.4), "toll": (2.0, 0.0, 0.3)})


def test_dual_ascent_takes_the_safest_tied_candidate():
    """At t = 10 both other actions tie with ``free``; the walk moves
    straight to ``toll``, the one with the least b, in one step."""
    model = three_lines_model()
    rep = sm.dual_ascent(model, 0.3)
    assert rep.info["breakpoints"] == [pytest.approx(10.0, rel=1e-12)]
    assert rep.info["outer_iterations"] == 2
    assert model.actions[rep.policy.assignment()[0]] == "toll"
    assert rep.value[0] == pytest.approx(2.0, rel=1e-12)


def test_dual_ascent_without_forbidden_states():
    """S is 0 for every policy, so the dual peaks at t = 0 on the first solve."""
    rep = sm.dual_ascent(no_forbidden_model(), 0.5)
    assert rep.feasible and rep.value.tolist() == [1.0]
    assert rep.info["level"] == 0.0 and rep.info["breakpoints"] == []
    assert rep.info["outer_iterations"] == 1 and rep.info["exit"] == "unconstrained"


def lazy_gamble(mid=False):
    """A gambler's ruin of one stake whose rounds end with probability 1e-6.

    ``bold`` (cost 1) loses half the ended rounds, ``timid`` (cost 2) 5e-5
    fewer and ``mid`` (cost 1.4), when asked for, 2.5e-5 fewer.  Against
    bold, timid's b is -5e-11 and mid's -2.5e-11, both inside inner_tol,
    while a million visits make their safety 5e-5 and 2.5e-5 lower.
    """
    stay = 1.0 - 1e-6
    actions = {"bold": (1.0, stay, 5e-7), "timid": (2.0, stay, 5e-7 - 5e-11)}
    if mid:
        actions["mid"] = (1.4, stay, 5e-7 - 2.5e-11)
    return actions


def one_state_dual(actions, p):
    """The dual's maximum on ``one_state_model(actions)`` in rationals: the
    least line V + t (S - p) at the best level where two lines cross."""
    lines = [(Fraction(c) / (1 - Fraction(stay)), Fraction(lose) / (1 - Fraction(stay)))
             for c, stay, lose in actions.values()]
    levels = [Fraction(0)] + [(v2 - v1) / (s1 - s2) for (v1, s1), (v2, s2)
                              in itertools.permutations(lines, 2) if s1 > s2]
    return max(min(v + t * (s - Fraction(p)) for v, s in lines) for t in levels if t >= 0)


def test_dual_ascent_ends_on_the_safest_policy():
    """With p at the minimal safety, one step enters timid, the safest
    policy, where the two lines cross."""
    model = one_state_model(lazy_gamble())
    s_star, safe = sm.safest_policy(model)
    p = float(s_star[0])
    rep = sm.dual_ascent(model, p)
    assert rep.feasible and rep.info["exit"] == "kink"
    assert np.array_equal(rep.policy.matrix, safe.matrix)
    v_safe = sm.value(model, safe)
    assert np.abs(rep.value - v_safe).max() <= 1e-9 * v_safe.max()
    assert rep.info["level"] == pytest.approx(2e10, rel=1e-9)
    assert rep.info["outer_iterations"] == 2
    assert sm.safety(model, rep.policy).sum() <= model.n_taboo * (p + ADMISSIBLE_TOL)


@pytest.mark.parametrize("p, action", [(0.499975, "mid"), (0.49999, "mid"), (0.4999625, "timid")])
def test_dual_ascent_counts_candidates_by_their_visits(p, action):
    """mid's one-step b of -2.5e-11 is inside inner_tol, but it crosses
    bold first, at t = 1.6e10: the walk reaches the dual's exact maximum
    and the cheapest policy within p, never costlier than the bisection's."""
    actions = lazy_gamble(mid=True)
    model = one_state_model(actions)
    rep, ref = sm.dual_ascent(model, p), bisection_dual_ascent(model, p)
    want = one_state_dual(actions, p)
    assert abs(Fraction(float(rep.value[0])) - want) <= 1e-9 * want
    assert model.actions[rep.policy.assignment()[0]] == action
    cost = [float(sm.value(model, r.policy)[0]) for r in (rep, ref)]
    assert cost[0] <= cost[1] * (1.0 + 1e-9)
    assert rep.info["breakpoints"][0] == pytest.approx(1.6e10, rel=1e-6)


def test_dual_ascent_enters_the_safest_policy_where_no_candidate_counts():
    """``safe`` lowers the safety by 2e-10, but its b is -2e-11 and bold's
    two visits make the first-order drop 4e-11, inside inner_tol: the
    walk enters the safest policy, the t = inf piece, where the summed
    lines cross."""
    model = one_state_model({"bold": (1.0, 0.5, 0.05 + 1e-10), "safe": (2.0, 0.9, 0.01)})
    s_star, safe = sm.safest_policy(model)
    rep = sm.dual_ascent(model, float(s_star[0]))
    assert rep.feasible and rep.info["exit"] == "kink"
    assert np.array_equal(rep.policy.matrix, safe.matrix)
    assert rep.info["outer_iterations"] == 2
    assert rep.info["level"] == pytest.approx(9e10, rel=1e-6)
    assert rep.info["breakpoints"] == [rep.info["level"]]
    assert rep.value[0] == pytest.approx(20.0, rel=1e-9)


def test_dual_ascent_solve_cap_raises(solver_corpus, monkeypatch):
    """Instance 6 takes five solves; the walk stops at the cap."""
    model, p = solver_corpus[6]
    assert sm.dual_ascent(model, p).info["outer_iterations"] == 5
    monkeypatch.setattr(constrained, "_INNER_ROUNDS", 4)
    with pytest.raises(sm.MaxIterationsError, match="within 4 solves"):
        sm.dual_ascent(model, p)


# ----------------------------------------------------------------- enumeration


def test_enumerate_admissible_golden(ex1_model):
    adm = sm.enumerate_admissible(ex1_model, p=0.5)
    assert adm.total == 8
    assert adm.value.shape == adm.safety.shape == (4, 3)
    assert adm.assignments.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]]
    assert adm.non_transient.shape == (0, 3)


def test_enumerate_admissible_extremes(ex1_model):
    assert len(sm.enumerate_admissible(ex1_model, p=1.0).value) == 8
    assert sm.enumerate_admissible(ex1_model, p=0.0).assignments.shape == (0, 3)


def test_enumerate_admissible_cap(ex1_model, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumeration started past the cap")

    monkeypatch.setattr("safemdp.evaluate._trapped", refuse)
    with pytest.raises(sm.CapExceededError, match="8 pure policies exceed the cap of 7"):
        sm.enumerate_admissible(ex1_model, p=0.5, cap=7)
    # A NaN cap would turn the guard off: every comparison with it is False.
    for cap in (float("nan"), True, 7.5, -1, "8"):
        for enumerate_ in (sm.enumerate_admissible, sm.constrained_vi_pure):
            with pytest.raises(ValueError, match="cap must be a nonnegative integer"):
                enumerate_(ex1_model, p=0.5, cap=cap)


def reference_members(model, p, cap=10**6):
    """The one-policy-at-a-time loop the batched kernel replaced.

    Returns the admissible (assignment, V, S) triples and the
    non-transient assignments, both in product order.
    """
    h, m = model.n_taboo, model.n_actions
    total = m**h
    if total > cap:
        raise sm.CapExceededError(f"{total} pure policies exceed the cap of {cap}")
    members, skipped = [], []
    for assignment in itertools.product(range(m), repeat=h):
        policy = sm.pure_policy(model, dict(enumerate(assignment)))
        try:
            v, s, _ = _exact(model, policy)
        except sm.NotTransientError:
            skipped.append(assignment)
            continue
        if (s <= p + ADMISSIBLE_TOL).all():
            members.append((assignment, v, s))
    return members, skipped


def reference_enumerate_admissible(model, p, cap=10**6):
    members, skipped = reference_members(model, p, cap)
    h = model.n_taboo

    def rows(items, dtype):
        return np.array(items, dtype=dtype).reshape(-1, h)

    return sm.AdmissibleSet(
        assignments=rows([a for a, _, _ in members], np.intp),
        value=rows([v for _, v, _ in members], float),
        safety=rows([s for _, _, s in members], float),
        non_transient=rows(skipped, np.intp),
        total=model.n_actions**h,
        p=p,
    )


def assert_same_admissible(got, want):
    assert (got.total, got.p) == (want.total, want.p)
    for name in ("assignments", "value", "safety", "non_transient"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("chunk", [None, 37])
def test_enumerate_admissible_matches_reference(oracle_cases, monkeypatch, chunk):
    """Bit for bit, also when blocks of 37 policies split the product order."""
    if chunk:
        monkeypatch.setattr("safemdp.evaluate.PURE_CHUNK", chunk)
    skipped = 0
    for model, p in oracle_cases:
        want = reference_enumerate_admissible(model, p)
        assert_same_admissible(sm.enumerate_admissible(model, p), want)
        skipped += len(want.non_transient)
    assert skipped > 0


# ------------------------------------------------------------- constrained vi


def test_constrained_vi_golden(ex1_model):
    rep = sm.constrained_vi_pure(ex1_model, p=0.5)
    assert rep.feasible
    assert np.abs(rep.value - GOLDEN).max() <= 1e-9
    assert tuple(rep.policy.assignment()[:3]) == (0, 1, 0)
    assert rep.info["sweep_matches_best_policy"]
    assert rep.info["admissible_count"] == 4


def test_constrained_vi_singleton():
    doc = {
        "states": ["h0", "u0", "e0"],
        "actions": ["a0"],
        "partition": {"taboo": ["h0"], "forbidden": ["u0"], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "u0", "p": 0.3},
            {"from": "h0", "action": "a0", "to": "e0", "p": 0.7},
            {"from": "u0", "action": "a0", "to": "u0", "p": 1.0},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
        ],
        "rewards": [{"state": "h0", "action": "a0", "rho": 4.0}],
    }
    model = sm.load_model(json.dumps(doc))
    rep = sm.constrained_vi_pure(model, p=0.5)
    pol = sm.pure_policy(model, {0: 0})
    assert np.abs(rep.value - sm.value(model, pol)).max() <= 1e-9


def test_constrained_vi_full_set_is_unconstrained(ex1_model):
    rep = sm.constrained_vi_pure(ex1_model, p=1.0)
    assert np.abs(rep.value - sm.value_iteration(ex1_model).value).max() <= 1e-9


def test_constrained_vi_infeasible(ex1_model):
    with pytest.raises(sm.InfeasibleError):
        sm.constrained_vi_pure(ex1_model, p=0.3)


def test_constrained_vi_against_enumeration(solver_corpus):
    """Sweep limit: below all members always, equal when the set is a box.

    The per-sweep minimum recombines actions across states, so on coupled
    admissible sets its fixed point can undercut every single member; the
    report must flag those runs.  When the admissible set is a full product
    of its per-state projections the recombination stays inside the set and
    the limit matches the entrywise minimum exactly.
    """
    for model, p in solver_corpus:
        adm = sm.enumerate_admissible(model, p)
        if not len(adm.value):
            continue
        entry = members_entrywise_min(adm)
        rep = sm.constrained_vi_pure(model, p)
        assert (rep.value <= entry + 1e-8).all()
        proj = [len(np.unique(column)) for column in adm.assignments.T]
        if len(adm.value) == int(np.prod(proj)):
            assert np.abs(rep.value - entry).max() <= 1e-8
        elif (rep.value < entry - 1e-8).any():
            assert not rep.info["sweep_matches_best_policy"]
        best = sm.value(model, rep.policy)
        assert (entry <= best + 1e-9).all()
        assert (sm.safety(model, rep.policy) <= p + 1e-8).all()


def reference_constrained_vi_pure(model, p, tol=1e-10, max_iter=100_000, cap=10**6):
    """The sweep over one candidate per admissible policy that the scan replaced."""
    members, skipped = reference_members(model, p, cap)
    if not members:
        raise sm.InfeasibleError(
            f"no pure policy keeps safety within {p} everywhere "
            f"({model.n_actions**model.n_taboo} enumerated, {len(skipped)} non-transient)"
        )
    h = model.n_taboo
    # Candidate k of state i is the action admissible policy k takes there.
    picks = np.array([a for a, _, _ in members]).T
    idx = np.arange(h)[:, None]
    stage, Q = model.stage_costs[idx, picks], model.taboo_block[idx, picks]
    v, _, sweep = _sweep(stage, Q, np.zeros(h), tol, max_iter)

    sums = [float(value.sum()) for _, value, _ in members]
    assignment, best_value, _ = members[int(np.argmin(sums))]
    spread = float(np.abs(best_value - v).max())
    return sm.ConstrainedSolveReport(
        value=v,
        policy=sm.pure_policy(model, dict(enumerate(assignment))),
        method="constrained-vi",
        feasible=True,
        gap=float(best_value.sum() - v.sum()),
        info={
            "sweeps": sweep,
            "admissible_count": len(members),
            "non_transient_count": len(skipped),
            "sweep_matches_best_policy": bool(spread <= 1e-8),
            "sweep_vs_best_policy": spread,
        },
    )


@pytest.mark.parametrize("chunk", [None, 37])
def test_constrained_vi_matches_reference(oracle_cases, monkeypatch, chunk):
    """The projection sweep reproduces the sweep over every admissible policy."""
    if chunk:
        monkeypatch.setattr("safemdp.evaluate.PURE_CHUNK", chunk)
    exact = ("admissible_count", "non_transient_count", "sweeps",
             "sweep_matches_best_policy")
    feasible = 0
    for model, p in oracle_cases:
        try:
            want = reference_constrained_vi_pure(model, p)
        except sm.InfeasibleError as exc:
            with pytest.raises(sm.InfeasibleError, match=re.escape(str(exc))):
                sm.constrained_vi_pure(model, p)
            continue
        got = sm.constrained_vi_pure(model, p)
        feasible += 1
        assert np.array_equal(got.policy.matrix, want.policy.matrix)
        assert {k: got.info[k] for k in exact} == {k: want.info[k] for k in exact}
        for g, w in (
            (got.value, want.value),
            (got.gap, want.gap),
            (got.info["sweep_vs_best_policy"], want.info["sweep_vs_best_policy"]),
        ):
            assert (np.abs(g - w) <= 1e-12 * np.maximum(1.0, np.abs(w))).all()
    assert 0 < feasible < len(oracle_cases)


# ------------------------------------------------------------- relative safety


def test_relative_admissible_golden(ex1_model):
    vs = sm.relative_admissible(ex1_model, q=2.0)
    assert vs.pure_count.tolist() == [1, 2, 2]
    assert vs.valid.tolist() == [[True, True]] * 3
    assert np.array_equal(vs.weights[0, 0], [1.0, 0.0])
    assert np.allclose(vs.weights[0, 1], [7 / 15, 8 / 15], atol=1e-12)
    assert vs.q == 2.0


def test_relative_boundary_mixture_sits_on_boundary(ex1_model):
    """K and qL agree exactly at the mixed vertex."""
    d = sm.relative_admissible(ex1_model, q=2.0).weights[0, 1]
    K = d[0] * 0.4 + d[1] * 0.9
    L = d[0] * 0.6 + d[1] * 0.1
    assert K == pytest.approx(2.0 * L, abs=1e-12)


def test_relative_admissible_zero_q(ex1_model):
    vs = sm.relative_admissible(ex1_model, q=0.0)
    assert vs.valid.any(axis=1).tolist() == [False, True, True]
    assert not vs.weights[0].any()


RELATIVE_LEVELS = (0.0, 0.3, 1.0, 2.0, 9.0, 1e9)


def reference_relative_admissible(model, q):
    """The per-state loop builder the arrays replaced: (vertices, pure count) per state."""
    K, L = model.forbidden_exit, model.target_exit
    m = model.n_actions
    out = []
    for i in range(model.n_taboo):
        g = K[i] - q * L[i]
        vertices = []
        pure = [u for u in range(m) if g[u] <= RELATIVE_TOL]
        for u in pure:
            row = np.zeros(m)
            row[u] = 1.0
            vertices.append(row)
        for s in range(m):
            if g[s] >= -RELATIVE_TOL:
                continue
            for v in range(m):
                if g[v] <= RELATIVE_TOL:
                    continue
                x = g[v] / (g[v] - g[s])
                row = np.zeros(m)
                row[s] = x
                row[v] = 1.0 - x
                vertices.append(row)
        out.append((vertices, len(pure)))
    return out


def reference_relative_vi(model, q, tol=1e-10, max_iter=100_000):
    """``relative_vi`` over the loop builder's vertices, copied into padded
    arrays one vertex at a time, sweeping to ``tol`` and then ``finish``.

    Returns the value, the policy matrix, the sweeps, the chosen vertices
    and the vertex counts.
    """
    sets = reference_relative_admissible(model, q)
    for i, (vertices, _) in enumerate(sets):
        if not vertices:
            raise sm.InfeasibleError(
                f"state '{model.states[i]}' admits no action distribution "
                f"at relative level q={q}"
            )
    h = model.n_taboo
    counts = [len(vertices) for vertices, _ in sets]
    stage = np.full((h, max(counts)), np.inf)
    qrows = np.zeros((h, max(counts), h))
    for i, (vertices, _) in enumerate(sets):
        for k, d in enumerate(vertices):
            stage[i, k] = d @ model.stage_costs[i]
            qrows[i, k] = d @ model.taboo_block[i]
    _, greedy, sweeps = _sweep(stage, qrows, np.zeros(h), tol, max_iter)
    v, chosen = finish(stage, qrows, greedy, tol, max_iter)
    matrix = np.zeros((model.n_states, model.n_actions))
    for i, (vertices, _) in enumerate(sets):
        matrix[i] = vertices[chosen[i]]
    matrix[h:, 0] = 1.0
    return v, matrix, sweeps, chosen.tolist(), counts


def relative_cases(ex1_model, solver_corpus, oracle_cases):
    """Each distinct model of ex1, the solver corpus and the oracle cases at every level."""
    models = {id(m): m for m in [ex1_model] + [m for m, _ in solver_corpus + oracle_cases]}
    return [(model, q) for model in models.values() for q in RELATIVE_LEVELS]


def test_relative_admissible_matches_loop_builder(ex1_model, solver_corpus, oracle_cases):
    """The arrays hold the loop builder's vertices bit for bit, zeros after them."""
    for model, q in relative_cases(ex1_model, solver_corpus, oracle_cases):
        vs = sm.relative_admissible(model, q)
        want = reference_relative_admissible(model, q)
        assert vs.pure_count.tolist() == [pure for _, pure in want]
        assert vs.valid.shape[1] == max(len(vertices) for vertices, _ in want)
        for i, (vertices, _) in enumerate(want):
            n = len(vertices)
            assert vs.valid[i].tolist() == [True] * n + [False] * (vs.valid.shape[1] - n)
            rows = np.array(vertices).reshape(n, model.n_actions)
            assert vs.weights[i, :n].tobytes() == rows.tobytes()
            assert not vs.weights[i, n:].any()


def test_relative_vi_matches_reference(ex1_model, solver_corpus, oracle_cases):
    """The same policy, vertices and errors as the loop builder's route, in no
    more sweeps, and the value bit for bit or within 1e-14 max(1, |v|): the
    batched products may round the candidate rows in another order."""
    feasible = differ = fewer = 0
    for model, q in relative_cases(ex1_model, solver_corpus, oracle_cases):
        try:
            v, matrix, sweeps, chosen, counts = reference_relative_vi(model, q)
        except (sm.InfeasibleError, sm.NotTransientError) as err:
            with pytest.raises(type(err), match=re.escape(str(err))) as got:
                sm.relative_vi(model, q)
            assert getattr(got.value, "trapped", None) == getattr(err, "trapped", None)
            continue
        rep = sm.relative_vi(model, q)
        feasible += 1
        assert rep.policy.matrix.tobytes() == matrix.tobytes()
        assert rep.info["chosen_vertex"] == chosen
        assert rep.info["vertices_per_state"] == counts
        assert rep.info["sweeps"] <= sweeps
        fewer += rep.info["sweeps"] < sweeps
        if rep.value.tobytes() != v.tobytes():
            differ += 1
            assert (np.abs(rep.value - v) <= 1e-14 * np.maximum(1.0, np.abs(v))).all()
    assert feasible >= 700 and fewer >= feasible // 2
    print(f"relative_vi: {differ} of {feasible} values differ in the last bits, "
          f"{fewer} stop at the certificate")


def relative_corridor_model():
    """The hazard-free 100-state corridor of ``corridor_model`` whose h0 steps
    left into the target under ``fair`` and into u0 under ``push``.  At q > 0
    h0 has two vertices, ``fair`` and a mixture of it with ``push``; every
    other state admits both actions."""
    base = corridor_model(np.random.default_rng(5), 100, 0.0)
    h = base.n_taboo
    trans = np.array(base.transitions)
    trans[0, 0, [h, h + 1]] = trans[0, 0, [h + 1, h]]
    return sm.MdpModel(
        states=base.states,
        actions=base.actions,
        partition=base.partition,
        transitions=trans,
        rewards=base.rewards,
    )


def test_relative_vi_restarts_on_corridor():
    """On a slow-mixing corridor the sweeps go on from each failed
    certificate's exact values and certify at sweep 128, where the change
    rule stops at 7,713; the answer is the reference's bit for bit."""
    model = relative_corridor_model()
    v, matrix, sweeps, chosen, counts = reference_relative_vi(model, 1.0)
    rep = sm.relative_vi(model, 1.0)
    assert counts[0] == 2
    assert rep.value.tobytes() == v.tobytes()
    assert rep.policy.matrix.tobytes() == matrix.tobytes()
    assert rep.info["chosen_vertex"] == chosen
    assert rep.info["sweeps"] < sweeps / 2
    assert rep.info["sweeps"] == 128


MASSES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1e-9, 1e-12, 1e-13]) | st.floats(0.0, 1.0)


@st.composite
def exit_masses(draw):
    """A model whose taboo rows send (K, L) to one forbidden and one target
    state and the rest back to their own state, with a level q."""
    h, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    T = np.zeros((h + 2, m, h + 2))
    for i in range(h):
        for u in range(m):
            k, l = draw(MASSES), draw(MASSES)
            k, l = (k, l) if k + l <= 1.0 else (k / 2, l / 2)
            T[i, u, [h, h + 1, i]] = k, l, 1.0 - k - l
    T[h:, :, h:] = np.eye(2)[:, None, :]
    states = tuple(f"h{i}" for i in range(h)) + ("u", "e")
    model = sm.MdpModel(
        states=states,
        actions=tuple(f"a{u}" for u in range(m)),
        partition=sm.StatePartition(states[:h], ("u",), ("e",)),
        transitions=T,
        rewards=np.zeros((m, h + 2)),
    )
    q = draw(st.sampled_from(RELATIVE_LEVELS) | st.floats(0.0, 100.0))
    return model, q


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=exit_masses())
def test_relative_vertices_are_the_polytope_vertices(case):
    """Every valid row is a distribution d with d.g <= RELATIVE_TOL, g = K - qL;
    the pure rows are the actions with g <= RELATIVE_TOL in index order, and
    each boundary row mixes the pair (s, v) with g_s < -tol < tol < g_v, in
    pair order, on the boundary d.g = 0 up to rounding."""
    model, q = case
    vs = sm.relative_admissible(model, q)
    g = model.forbidden_exit - q * model.target_exit
    m = model.n_actions
    for i, (rows, valid, pure) in enumerate(zip(vs.weights, vs.valid, vs.pure_count)):
        n = int(valid.sum())
        assert valid[:n].all() and not rows[n:].any()
        rows = rows[:n]
        assert (rows >= 0).all()
        assert (np.abs(rows.sum(axis=1) - 1.0) <= 4e-16).all()
        assert (rows @ g[i] <= RELATIVE_TOL).all()
        admissible = np.flatnonzero(g[i] <= RELATIVE_TOL)
        assert pure == admissible.size
        assert np.array_equal(rows[:pure], np.eye(m)[admissible])
        pairs = [(s, v) for s in range(m) for v in range(m)
                 if g[i, s] < -RELATIVE_TOL and g[i, v] > RELATIVE_TOL]
        assert [tuple(np.flatnonzero(row)) for row in rows[pure:]] == [
            tuple(sorted(pair)) for pair in pairs]
        scale = max(1.0, np.abs(g[i]).max())
        assert (np.abs(rows[pure:] @ g[i]) <= 1e-12 * scale).all()
def test_relative_vi_golden(ex1_model):
    rep = sm.relative_vi(ex1_model, q=2.0)
    assert np.abs(rep.value - GOLDEN).max() <= 1e-9
    assert rep.policy.pure
    assert tuple(rep.policy.assignment()[:3]) == (0, 1, 0)
    assert rep.method == "relative-vi"


def test_relative_vi_large_q_is_unconstrained(ex1_model):
    rep = sm.relative_vi(ex1_model, q=1e9)
    assert np.abs(rep.value - sm.value_iteration(ex1_model).value).max() <= 1e-9


def test_relative_vi_infeasible_names_state(ex1_model):
    with pytest.raises(sm.InfeasibleError, match="a"):
        sm.relative_vi(ex1_model, q=0.0)


def test_relative_vi_respects_constraint_on_corpus(solver_corpus):
    for model, _ in solver_corpus[:10]:
        for q in (0.5, 2.0):
            try:
                rep = sm.relative_vi(model, q)
            except sm.InfeasibleError:
                continue
            ci = sm.cost_inputs(model, rep.policy)
            assert (ci.to_forbidden <= q * ci.to_target + 1e-9).all()


def test_monotone_in_p_and_q(ex1_model):
    """Larger feasible sets cannot raise the optimum."""
    totals = []
    for p in (0.4, 0.5, 0.7, 1.0):
        totals.append(float(sm.constrained_vi_pure(ex1_model, p).value.sum()))
    assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))
    rel_totals = []
    for q in (2 / 3, 1.0, 7 / 3, 9.0):
        rel_totals.append(float(sm.relative_vi(ex1_model, q).value.sum()))
    assert all(a >= b - 1e-9 for a, b in zip(rel_totals, rel_totals[1:]))


def test_p_to_q_values():
    assert sm.p_to_q(0.5) == 1.0
    assert sm.p_to_q(0.0) == 0.0
    assert sm.p_to_q(Fraction(2, 3)) == 2
    assert sm.p_to_q(2 / 3) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        sm.p_to_q(1.0)


@pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        sm.build_lp,
        sm.dual_ascent,
        sm.enumerate_admissible,
        sm.constrained_vi_pure,
        sm.brute_force_constrained,
        sm.relative_admissible,
        sm.relative_vi,
    ],
    ids=lambda f: f.__name__,
)
def test_non_finite_level_rejected(ex1_model, entry, level):
    with pytest.raises(ValueError, match="must be finite"):
        entry(ex1_model, level)


@pytest.mark.parametrize("entry", [sm.relative_admissible, sm.relative_vi], ids=lambda f: f.__name__)
def test_negative_relative_level_rejected(ex1_model, entry):
    with pytest.raises(ValueError, match="q must be nonnegative"):
        entry(ex1_model, -0.5)
