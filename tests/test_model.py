"""Model document parsing, validation, and policy construction."""
import json

import numpy as np
import pytest

import safemdp as sm


def doc_from(model):
    return json.loads(sm.serialize_model(model))


def test_ex1_shape(ex1_model):
    assert ex1_model.states == ("a", "b", "c", "d", "e")
    assert ex1_model.actions == ("u1", "u2")
    assert ex1_model.n_taboo == 3
    assert ex1_model.n_forbidden == 1
    assert ex1_model.n_target == 1
    assert validate_is_clean(ex1_model)


def validate_is_clean(model):
    return sm.validate_model(model) == []


def test_round_trip(ex1_model):
    again = sm.load_model(sm.serialize_model(ex1_model))
    assert again.states == ex1_model.states
    assert np.array_equal(again.transitions, ex1_model.transitions)
    assert np.array_equal(again.rewards, ex1_model.rewards)


def test_states_reordered_canonically(ex1_model):
    """A document may list states in any order; the model is H, U, E."""
    doc = doc_from(ex1_model)
    doc["states"] = ["e", "d", "c", "b", "a"]
    model = sm.load_model(json.dumps(doc))
    assert model.states == ("a", "b", "c", "d", "e")
    assert model.transitions[model.state_index("c"), 0, model.state_index("a")] == 1.0


def test_row_sum_violation(ex1_model):
    doc = doc_from(ex1_model)
    doc["transitions"] = [
        t for t in doc["transitions"] if not (t["from"] == "c" and t["to"] == "a")
    ]
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert any("('c', 'u1')" in v or "(c, u1)" in v for v in err.value.violations)


def test_negative_probability(ex1_model):
    doc = doc_from(ex1_model)
    for t in doc["transitions"]:
        if t["from"] == "a" and t["action"] == "u1" and t["to"] == "d":
            t["p"] = -0.4
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert any("outside [0, 1]" in v for v in err.value.violations)


def test_reward_on_target_rejected(ex1_model):
    doc = doc_from(ex1_model)
    doc["rewards"].append({"state": "e", "action": "u1", "rho": 1.0})
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert any("target state 'e'" in v for v in err.value.violations)


def test_negative_reward_rejected(ex1_model):
    """Rewards are costs: the LP's value columns and value iteration's
    zero start both rest on rho >= 0."""
    doc = doc_from(ex1_model)
    for entry in doc["rewards"]:
        if (entry["state"], entry["action"]) == ("b", "u2"):
            entry["rho"] = -2.0
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert err.value.violations == ["reward negative on state 'b' (action u2)"]


def test_partition_overlap(ex1_model):
    doc = doc_from(ex1_model)
    doc["partition"]["forbidden"] = ["d", "a"]
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert any("overlap" in v for v in err.value.violations)


def test_partition_must_cover(ex1_model):
    doc = doc_from(ex1_model)
    doc["partition"]["taboo"] = ["a", "b"]
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert any("does not cover" in v for v in err.value.violations)


def test_empty_partitions_flagged(ex1_model):
    doc = doc_from(ex1_model)
    doc["states"] = ["a", "b", "c", "d"]
    doc["partition"] = {"taboo": ["a", "b", "c"], "forbidden": ["d"], "target": []}
    doc["transitions"] = [t for t in doc["transitions"] if t["to"] != "e" and t["from"] != "e"]
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert any("target set is empty" in v for v in err.value.violations)


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d.pop("states"), "missing the 'states' list"),
        (lambda d: d["transitions"].append(
            {"from": "zz", "action": "u1", "to": "a", "p": 1.0}), "unknown"),
        (lambda d: d["transitions"].append(dict(d["transitions"][0])), "duplicate"),
        (lambda d: d.update(actions=[]), "action set is empty"),
        (lambda d: d["transitions"][0].update(p="0.4"), "p is not a number: '0.4'"),
        (lambda d: d["transitions"][0].update(p=True), "p is not a number: True"),
        (lambda d: d["transitions"][0].update(p=None), "p is not a number: None"),
        (lambda d: d["rewards"][0].update(rho="1"), "rho is not a number: '1'"),
        (lambda d: d["rewards"][0].update(rho=False), "rho is not a number: False"),
        (lambda d: d["rewards"][0].update(rho=None), "rho is not a number: None"),
    ],
)
def test_format_errors(ex1_model, mangle, message):
    doc = doc_from(ex1_model)
    mangle(doc)
    with pytest.raises(sm.ModelFormatError, match=message):
        sm.load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "view", ["taboo_block", "stage_costs", "forbidden_exit", "target_exit"]
)
def test_model_view_is_read_only(ex1_model, view):
    arr = getattr(ex1_model, view)
    with pytest.raises(ValueError):
        arr[0, 0] = 7.0
    assert getattr(ex1_model, view) is arr


def test_not_json():
    with pytest.raises(sm.ModelFormatError, match="not valid JSON"):
        sm.load_model("{nope")


def test_induced_matrix_golden(ex1_model, ex1_policy):
    P = sm.induced_matrix(ex1_model, ex1_policy)
    expect = np.array(
        [
            [0.0, 0.0, 0.0, 0.4, 0.6],
            [0.8, 0.0, 0.2, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(P, expect, atol=1e-15)


def test_induced_matrix_mixed(ex1_model):
    """A stochastic row averages the action tensors."""
    rows = np.zeros((5, 2))
    rows[:, 0] = 1.0
    rows[0] = [0.5, 0.5]
    pol = sm.make_policy(ex1_model, rows)
    P = sm.induced_matrix(ex1_model, pol)
    assert P[0, 3] == pytest.approx(0.5 * 0.4 + 0.5 * 0.9, abs=1e-15)


def test_pure_policy_accepts_labels_and_indices(ex1_model):
    by_label = sm.pure_policy(ex1_model, {"a": "u1", "b": "u2", "c": "u1"})
    by_index = sm.pure_policy(ex1_model, {0: 0, 1: 1, 2: 0})
    assert np.array_equal(by_label.matrix, by_index.matrix)
    assert by_label.pure
    assert tuple(by_label.assignment()[:3]) == (0, 1, 0)


def test_pure_policy_requires_all_taboo_rows(ex1_model):
    with pytest.raises(sm.PolicyError, match="b"):
        sm.pure_policy(ex1_model, {"a": "u1", "c": "u1"})


def test_make_policy_shape_and_rows(ex1_model):
    with pytest.raises(sm.PolicyError, match="shape"):
        sm.make_policy(ex1_model, np.ones((3, 2)) / 2)
    bad = np.ones((5, 2)) / 2
    bad[1] = [0.9, 0.3]
    with pytest.raises(sm.PolicyError, match="not a distribution"):
        sm.make_policy(ex1_model, bad)


def test_policy_round_trip(ex1_model, ex1_policy):
    text = sm.serialize_policy(ex1_model, ex1_policy)
    again = sm.load_policy(text, ex1_model)
    assert np.array_equal(again.matrix, ex1_policy.matrix)


def test_load_policy_unknown_state(ex1_model):
    doc = {"policy": [{"state": "zz", "dist": {"u1": 1.0}}]}
    with pytest.raises(sm.ModelFormatError, match="unknown state"):
        sm.load_policy(json.dumps(doc), ex1_model)


def test_state_index_lookup(ex1_model):
    assert ex1_model.state_index("c") == 2
    assert ex1_model.state_index(4) == 4
    with pytest.raises(KeyError):
        ex1_model.state_index("zz")
