"""Unconstrained Bellman solver: operator, value iteration, safest policy."""
import json
import re

import numpy as np
import pytest

import safemdp as sm

GOLDEN = np.array([1.0, 3.6, 4.0])


def test_value_iteration_golden_sequence(ex1_model):
    res = sm.value_iteration(ex1_model, keep_history=True)
    assert np.abs(res.value - GOLDEN).max() <= 1e-9
    assert tuple(res.policy.assignment()[:3]) == (0, 1, 0)
    hist = res.history
    assert np.allclose(hist[0], [0, 0, 0], atol=0)
    assert np.array_equal(hist[1], [1, 2, 3])
    assert np.abs(hist[2] - [1, 3.4, 4]).max() <= 1e-12
    assert np.abs(hist[3] - GOLDEN).max() <= 1e-12
    assert np.array_equal(hist[4], hist[3])
    assert res.residual <= 1e-10


def test_value_iteration_nonnegative_start_required(ex1_model):
    with pytest.raises(ValueError):
        sm.value_iteration(ex1_model, v0=np.array([-1.0, 0, 0]))


FIXED_POINT_SOLVERS = {
    "value_iteration": lambda m, pol, **kw: sm.value_iteration(m, **kw),
    "value_iterative": sm.value_iterative,
    "safety_iterative": sm.safety_iterative,
    "relative_vi": lambda m, pol, **kw: sm.relative_vi(m, 1.0, **kw),
    "constrained_vi_pure": lambda m, pol, **kw: sm.constrained_vi_pure(m, 0.5, **kw),
}


@pytest.mark.parametrize("tol", [np.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("solver", list(FIXED_POINT_SOLVERS))
def test_sweep_rejects_bad_tolerance(ex1_model, ex1_policy, solver, tol):
    """The kernel refuses a tolerance no sweep can meet before sweeping to max_iter."""
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        FIXED_POINT_SOLVERS[solver](ex1_model, ex1_policy, tol=tol, max_iter=1)


@pytest.mark.parametrize("start", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "solver, keyword",
    [("value_iteration", "v0"), ("value_iterative", "v0"), ("safety_iterative", "s0")],
)
def test_sweep_rejects_non_finite_start(ex1_model, ex1_policy, solver, keyword, start):
    x0 = np.array([start, 0.0, 0.0])
    with pytest.raises(ValueError, match="starting values must be finite"):
        FIXED_POINT_SOLVERS[solver](ex1_model, ex1_policy, **{keyword: x0}, max_iter=1)


@pytest.mark.parametrize(
    "start", [np.zeros(2), 0.0, np.zeros((3, 1))], ids=["short", "scalar", "column"]
)
@pytest.mark.parametrize(
    "solver, keyword",
    [("value_iteration", "v0"), ("value_iterative", "v0"), ("safety_iterative", "s0")],
)
def test_sweep_rejects_misshapen_start(ex1_model, ex1_policy, solver, keyword, start):
    """A start that is not one value per taboo state is refused by name
    before the first sweep, not by numpy inside it."""
    shape = re.escape(f"starting values must have shape (3,), got {np.shape(start)}")
    with pytest.raises(ValueError, match=shape):
        FIXED_POINT_SOLVERS[solver](ex1_model, ex1_policy, **{keyword: start})


CAPPED_SOLVERS = {
    **FIXED_POINT_SOLVERS,
    "safest_policy": lambda m, pol, **kw: sm.safest_policy(m, **kw),
}


@pytest.mark.parametrize("max_iter", [0, -1, 2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("solver", list(CAPPED_SOLVERS))
def test_iteration_cap_must_be_a_positive_integer(ex1_model, ex1_policy, solver, max_iter):
    """Sweep and round caps follow the rule of every count argument: a
    positive integer, not a bool."""
    with pytest.raises(ValueError, match="max_iter must be a positive integer"):
        CAPPED_SOLVERS[solver](ex1_model, ex1_policy, max_iter=max_iter)


def test_iteration_cap_accepts_numpy_integers(ex1_model):
    res = sm.value_iteration(ex1_model, max_iter=np.int64(4))
    assert res.iterations == 4
    with pytest.raises(sm.MaxIterationsError, match="within 1 sweeps"):
        sm.value_iteration(ex1_model, max_iter=np.int8(1))


def test_value_iteration_budget(ex1_model):
    with pytest.raises(sm.MaxIterationsError) as err:
        sm.value_iteration(ex1_model, tol=0.0, max_iter=2)
    assert err.value.last is not None


def test_value_iteration_divergence_guard():
    doc = {
        "states": ["h0", "e0"],
        "actions": ["a0"],
        "partition": {"taboo": ["h0"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h0", "p": 1.0},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
        ],
        "rewards": [{"state": "h0", "action": "a0", "rho": 1.0}],
    }
    model = sm.load_model(json.dumps(doc))
    with pytest.raises(sm.NotTransientError) as err:
        sm.value_iteration(model)
    assert err.value.trapped == (0,)


def test_single_action_model_reduces_to_evaluation():
    doc = {
        "states": ["h0", "h1", "e0"],
        "actions": ["a0"],
        "partition": {"taboo": ["h0", "h1"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h1", "p": 0.5},
            {"from": "h0", "action": "a0", "to": "e0", "p": 0.5},
            {"from": "h1", "action": "a0", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
        ],
        "rewards": [
            {"state": "h0", "action": "a0", "rho": 1.0},
            {"state": "h1", "action": "a0", "rho": 3.0},
        ],
    }
    model = sm.load_model(json.dumps(doc))
    pol = sm.pure_policy(model, {0: 0, 1: 0})
    res = sm.value_iteration(model)
    assert np.abs(res.value - sm.value(model, pol)).max() <= 1e-9


def test_ties_break_to_lowest_action_index(ex1_model):
    """States b and c have equal continuation under both actions of c."""
    res = sm.value_iteration(ex1_model)
    assert res.policy.assignment()[2] == 0


def test_safest_policy_golden(ex1_model):
    s_star, pol = sm.safest_policy(ex1_model)
    assert np.allclose(s_star, 0.4, atol=1e-10)
    assert pol.assignment()[0] == 0
    assert tuple(pol.assignment()[:3]) == (0, 0, 0)


def test_optimum_dominates_corpus(solver_corpus):
    """V* sits below every pure policy value, coordinate by coordinate."""
    import itertools

    for model, _ in solver_corpus[:8]:
        res = sm.value_iteration(model)
        h, m = model.n_taboo, model.n_actions
        for assign in itertools.product(range(m), repeat=h):
            pol = sm.pure_policy(model, dict(enumerate(assign)))
            assert (res.value <= sm.value(model, pol) + 1e-8).all()
