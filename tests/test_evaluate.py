"""Policy evaluation: one-step inputs, value, safety, reach."""
import itertools
import json

import numpy as np
import pytest

import safemdp as sm


def combo(model, a_action, b_action):
    return sm.pure_policy(model, {"a": a_action, "b": b_action, "c": "u1"})


def test_cost_inputs_golden(ex1_model, ex1_policy):
    ci = sm.cost_inputs(ex1_model, ex1_policy)
    assert np.allclose(ci.stage_cost, [1, 2, 3], atol=1e-15)
    assert np.allclose(ci.to_forbidden, [0.4, 0, 0], atol=1e-15)
    assert np.allclose(ci.to_target, [0.6, 0, 0], atol=1e-15)


def test_cost_inputs_rewards_action_independent(ex1_model):
    for assign in itertools.product(["u1", "u2"], repeat=2):
        ci = sm.cost_inputs(ex1_model, combo(ex1_model, *assign))
        assert np.allclose(ci.stage_cost, [1, 2, 3], atol=1e-15)


def test_cost_inputs_bounds(ex1_model, ex1_policy):
    ci = sm.cost_inputs(ex1_model, ex1_policy)
    assert (ci.to_forbidden >= 0).all() and (ci.to_target >= 0).all()
    assert (ci.to_forbidden + ci.to_target <= 1 + 1e-15).all()


def test_no_forbidden_states_means_zero_exit():
    doc = {
        "states": ["h0", "e0"],
        "actions": ["a0"],
        "partition": {"taboo": ["h0"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h0", "p": 0.5},
            {"from": "h0", "action": "a0", "to": "e0", "p": 0.5},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
        ],
        "rewards": [{"state": "h0", "action": "a0", "rho": 2.0}],
    }
    model = sm.load_model(json.dumps(doc))
    pol = sm.pure_policy(model, {0: 0})
    ci = sm.cost_inputs(model, pol)
    assert np.array_equal(ci.to_forbidden, [0.0])
    assert np.allclose(sm.safety(model, pol), [0.0])
    assert np.allclose(sm.value(model, pol), [4.0], atol=1e-12)


def test_value_golden_all_combos(ex1_model):
    """V(b) = 3 + 3*p_bc for the chosen b-action; a and c are fixed."""
    for b_action, p_bc in (("u1", 0.7), ("u2", 0.2)):
        for a_action in ("u1", "u2"):
            v = sm.value(ex1_model, combo(ex1_model, a_action, b_action))
            assert np.allclose(v, [1, 3 + 3 * p_bc, 4], atol=1e-12)


def test_safety_golden_all_combos(ex1_model):
    for a_action, p_ad in (("u1", 0.4), ("u2", 0.9)):
        for b_action in ("u1", "u2"):
            s = sm.safety(ex1_model, combo(ex1_model, a_action, b_action))
            assert np.allclose(s, p_ad, atol=1e-12)


def test_reach_complements_safety(ex1_model):
    for a_action, b_action in itertools.product(["u1", "u2"], repeat=2):
        pol = combo(ex1_model, a_action, b_action)
        s = sm.safety(ex1_model, pol)
        t = sm.reach(ex1_model, pol)
        assert np.abs(s + t - 1.0).max() <= 1e-12
        assert ((0 <= s) & (s <= 1)).all() and ((0 <= t) & (t <= 1)).all()


def test_iterative_matches_direct(ex1_model, ex1_policy, chain_corpus):
    v_direct = sm.value(ex1_model, ex1_policy)
    v_iter, sweeps = sm.value_iterative(ex1_model, ex1_policy, tol=1e-12)
    assert np.abs(v_iter - v_direct).max() <= 1e-10
    assert sweeps < 100
    s_iter, _ = sm.safety_iterative(ex1_model, ex1_policy, tol=1e-12)
    assert np.abs(s_iter - sm.safety(ex1_model, ex1_policy)).max() <= 1e-10
    for model, policy, _ in chain_corpus:
        v_iter, _ = sm.value_iterative(model, policy, tol=1e-12)
        assert np.abs(v_iter - sm.value(model, policy)).max() <= 1e-10
        s_iter, _ = sm.safety_iterative(model, policy, tol=1e-12)
        assert np.abs(s_iter - sm.safety(model, policy)).max() <= 1e-10


def test_iterative_warm_start(ex1_model, ex1_policy):
    v_direct = sm.value(ex1_model, ex1_policy)
    v, sweeps = sm.value_iterative(ex1_model, ex1_policy, v0=v_direct, tol=1e-12)
    assert sweeps <= 2
    assert np.abs(v - v_direct).max() <= 1e-10


def test_iterative_budget_exhausted(ex1_model, ex1_policy):
    with pytest.raises(sm.MaxIterationsError) as err:
        sm.value_iterative(ex1_model, ex1_policy, tol=0.0, max_iter=2)
    assert err.value.last is not None


def test_chain_quantities_consistency(ex1_model, ex1_policy):
    cq = sm.chain_quantities(ex1_model, ex1_policy)
    assert np.allclose(cq.green @ cq.inputs.stage_cost, [1, 3.6, 4], atol=1e-12)
    assert cq.spectral_radius < 1e-6
    assert cq.matrix.shape == (5, 5)


def test_non_transient_policy_rejected():
    doc = {
        "states": ["h0", "e0"],
        "actions": ["stay", "go"],
        "partition": {"taboo": ["h0"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "stay", "to": "h0", "p": 1.0},
            {"from": "h0", "action": "go", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "stay", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "go", "to": "e0", "p": 1.0},
        ],
        "rewards": [{"state": "h0", "action": "stay", "rho": 1.0}],
    }
    model = sm.load_model(json.dumps(doc))
    with pytest.raises(sm.NotTransientError):
        sm.value(model, sm.pure_policy(model, {"h0": "stay"}))
