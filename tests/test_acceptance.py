"""End-to-end acceptance checks.

Each test covers one contract: the worked three-state example down to
its exact iterate sequence, the operator identities on a random
transient corpus, agreement of the three constrained solvers, the
relative-to-absolute safety implication,
Monte Carlo consistency, and brute-force optimality.  Every test prints
one PASS line with the measured margins (run with -s to see them).

Timing assertions warm up the numeric stack first so they measure the
algorithm, not import or allocator effects.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import safemdp as sm
from safemdp.evaluate import chain_quantities, cost_inputs
from safemdp.model import induced_matrix, pure_policy

GOLDEN = np.array([1.0, 3.6, 4.0])

P_AD = {"u1": 0.4, "u2": 0.9}
P_BC = {"u1": 0.7, "u2": 0.2}


def _pure(model, a_action, b_action):
    return pure_policy(model, {"a": a_action, "b": b_action, "c": "u1"})


def _all_pure_policies(model):
    h, m = model.n_taboo, model.n_actions
    for assignment in itertools.product(range(m), repeat=h):
        yield pure_policy(model, dict(enumerate(assignment)))


def test_golden_value_iteration(ex1_model):
    res = sm.value_iteration(ex1_model, keep_history=True)
    assert np.abs(res.value - GOLDEN).max() <= 1e-9

    hist = res.history
    assert np.array_equal(hist[1], [1.0, 2.0, 3.0])
    assert np.abs(hist[2] - [1.0, 3.4, 4.0]).max() <= 1e-12
    assert np.abs(hist[3] - GOLDEN).max() <= 1e-9
    assert np.array_equal(hist[4], hist[3])

    sm.value_iteration(ex1_model)
    started = time.perf_counter()
    sm.value_iteration(ex1_model)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.010
    print(
        f"PASS value iteration: |V - golden| = {np.abs(res.value - GOLDEN).max():.3e},"
        f" iterate sequence exact, {elapsed * 1e3:.2f} ms"
    )


def test_golden_safety_and_green(ex1_model):
    worst = 0.0
    for a_action in ("u1", "u2"):
        for b_action in ("u1", "u2"):
            cq = chain_quantities(ex1_model, _pure(ex1_model, a_action, b_action))
            s = cq.green @ cq.inputs.to_forbidden
            worst = max(worst, np.abs(s - P_AD[a_action]).max())
            g_exact = np.array(
                [[1.0, 0.0, 0.0], [1.0, 1.0, P_BC[b_action]], [1.0, 0.0, 1.0]]
            )
            worst = max(worst, np.abs(cq.green - g_exact).max())
    assert worst <= 1e-9
    print(f"PASS safety and Green closed forms: worst error {worst:.3e} over 4 combos")


def test_golden_relative_safety(ex1_model):
    vs = sm.relative_admissible(ex1_model, 2.0)
    pure_actions = vs.weights[0, : vs.pure_count[0]].argmax(axis=1).tolist()
    assert pure_actions == [0]

    assert sm.p_to_q(Fraction(2, 3)) == 2
    assert abs(sm.p_to_q(2 / 3) - 2.0) <= 1e-12
    print("PASS relative safety: u1 admissible at a, u2 not; p_to_q(2/3) == 2")


def test_evolution_identity_on_corpus(chain_corpus):
    model0, policy0, initial0 = chain_corpus[0]
    sm.occupation(model0, policy0, initial0)

    started = time.perf_counter()
    worst = 0.0
    for model, policy, initial in chain_corpus:
        gamma = sm.occupation(model, policy, initial)
        lam = sm.hitting(model, policy, initial)
        P = induced_matrix(model, policy)
        worst = max(worst, sm.evolution_residual(initial, gamma, lam, P))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(
        f"PASS evolution identity: max residual {worst:.3e}"
        f" on {len(chain_corpus)} triples, {elapsed * 1e3:.0f} ms"
    )


def test_green_operator_on_corpus(chain_corpus):
    worst_fix = 0.0
    worst_neumann = 0.0
    for model, policy, _ in chain_corpus:
        cq = chain_quantities(model, policy)
        q, g = cq.blocks.q, cq.green
        identity = np.eye(q.shape[0])
        worst_fix = max(worst_fix, np.abs(g - identity - q @ g).max())
        worst_neumann = max(worst_neumann, np.abs(g - sm.green_neumann(q)).max())
    assert worst_fix <= 1e-10
    assert worst_neumann <= 1e-8

    doc = {
        "states": ["h0", "h1", "e0"],
        "actions": ["swap", "leave"],
        "partition": {"taboo": ["h0", "h1"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "swap", "to": "h1", "p": 1.0},
            {"from": "h1", "action": "swap", "to": "h0", "p": 1.0},
            {"from": "h0", "action": "leave", "to": "e0", "p": 1.0},
            {"from": "h1", "action": "leave", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "swap", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "leave", "to": "e0", "p": 1.0},
        ],
        "rewards": [],
    }
    recurrent = sm.load_model(json.dumps(doc))
    spin = pure_policy(recurrent, {"h0": "swap", "h1": "swap", "e0": "leave"})
    with pytest.raises(sm.NotTransientError):
        chain_quantities(recurrent, spin)
    print(
        f"PASS Green operator: fixed-point residual {worst_fix:.3e},"
        f" Neumann gap {worst_neumann:.3e}, recurrent class raises"
    )


def test_complement_identity_on_corpus(chain_corpus):
    worst = 0.0
    for model, policy, _ in chain_corpus:
        cq = chain_quantities(model, policy)
        s = cq.green @ cq.inputs.to_forbidden
        t = cq.green @ cq.inputs.to_target
        worst = max(worst, np.abs(s + t - 1.0).max())
    assert worst <= 1e-10
    print(f"PASS complement identity: max |S + T - 1| = {worst:.3e}")


def test_duality_gap_methods_agree(ex1_model, solver_corpus):
    model0, p0 = solver_corpus[0]
    sm.dual_ascent(model0, p0)

    started = time.perf_counter()
    worst_gap = 0.0
    worst_excess = -np.inf
    for model, p in solver_corpus:
        dual = sm.dual_ascent(model, p)
        assert dual.feasible
        lp = sm.solve_lp(sm.build_lp(model, p))
        brute = sm.brute_force_constrained(model, p)
        assert brute.feasible
        dual_total = float(dual.value.sum())
        brute_total = float(brute.value.sum())
        worst_gap = max(worst_gap, abs(dual_total - lp.objective))
        worst_excess = max(
            worst_excess, dual_total - brute_total, lp.objective - brute_total
        )

    for vec in (
        sm.dual_ascent(ex1_model, 0.5).value,
        sm.solve_lp(sm.build_lp(ex1_model, 0.5)).value,
        sm.brute_force_constrained(ex1_model, 0.5).value,
    ):
        assert np.abs(vec - GOLDEN).max() <= 1e-6
    elapsed = time.perf_counter() - started

    assert worst_gap <= 1e-3
    assert worst_excess <= 1e-6
    assert elapsed < 30.0
    print(
        f"PASS duality gap: max |dual - lp| = {worst_gap:.3e}, max excess over"
        f" enumeration {worst_excess:.3e}, golden triple agrees, {elapsed:.1f} s"
    )


def test_relative_implies_absolute(chain_corpus):
    qualifying = 0
    violations = 0
    for model, _, _ in chain_corpus:
        for policy in _all_pure_policies(model):
            inputs = cost_inputs(model, policy)
            k, l = inputs.to_forbidden, inputs.to_target
            cq = chain_quantities(model, policy)
            s = cq.green @ k
            t = cq.green @ l
            for q in (0.0, 0.5, 1.0, 2.0, 10.0):
                if not (k <= q * l).all():
                    continue
                qualifying += 1
                ok = (s <= q * t + 1e-10).all() and (s <= q / (1 + q) + 1e-10).all()
                violations += not ok
    assert violations == 0
    print(
        f"PASS relative safety implication: 0 violations"
        f" on {qualifying} qualifying (policy, q) pairs"
    )


def test_monte_carlo_consistency(ex1_model, ex1_policy):
    cq = chain_quantities(ex1_model, ex1_policy)
    analytic_s = cq.green @ cq.inputs.to_forbidden
    analytic_v = cq.green @ cq.inputs.stage_cost

    sm.mc_estimates(ex1_model, ex1_policy, 0, 2000, seed=0)

    n = 100_000
    reports = {}
    started = time.perf_counter()
    for start in range(3):
        reports[start] = sm.mc_estimates(ex1_model, ex1_policy, start, n, seed=0)
    elapsed = time.perf_counter() - started

    worst_dev = 0.0
    for start, rep in reports.items():
        for est, exact in ((rep.s_hat, analytic_s[start]), (rep.v_hat, analytic_v[start])):
            if est.std_error == 0.0:
                assert abs(est.mean - exact) <= 1e-12
            else:
                dev = abs(est.mean - exact) / est.std_error
                worst_dev = max(worst_dev, dev)
                assert dev <= 3.0

    rerun = sm.mc_estimates(ex1_model, ex1_policy, 1, n, seed=0)
    assert rerun == reports[1]
    assert elapsed < 5.0
    print(
        f"PASS Monte Carlo: worst deviation {worst_dev:.2f} SE at n={n},"
        f" bit-identical rerun, {elapsed:.1f} s"
    )


def test_bellman_matches_brute_force(chain_corpus):
    worst = 0.0
    for model, _, _ in chain_corpus:
        v_star = sm.value_iteration(model).value
        values = []
        for pol in _all_pure_policies(model):
            cq = chain_quantities(model, pol)
            values.append(cq.green @ cq.inputs.stage_cost)
        floor = np.min(values, axis=0)
        worst = max(worst, np.abs(v_star - floor).max())
    assert worst <= 1e-8
    print(f"PASS brute-force optimality: max |V* - min over pure| = {worst:.3e}")
