"""Model document parsing, validation, and policy construction."""
import dataclasses
import json
import re

import numpy as np
import pytest

import safemdp as sm
from corpus import relabeled


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


def _bool_for_label(entry, key, label):
    """ex1 relabeled with states (2, 0, 1, 40, 50) and actions (1, 0), then a
    JSON bool where the first ``entry`` whose ``key`` is ``label`` names it."""

    def mangle(d):
        model = relabeled(sm.load_model(json.dumps(d)), (2, 0, 1, 40, 50), (1, 0))
        d.update(json.loads(sm.serialize_model(model)))
        next(e for e in d[entry] if e[key] == label)[key] = bool(label)

    return mangle


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
        (lambda d: d["transitions"][0].update(p=10**400),
         r"transition \('a', 'u1', 'd'\) p is out of float range"),
        (lambda d: d["rewards"][0].update(rho=-(10**400)), "rho is out of float range"),
        (lambda d: d["states"].append(["x"]), r"state label \['x'\] is a list or object"),
        (lambda d: d["actions"].append({"u": 1}), r"action label \{'u': 1\} is a list"),
        (lambda d: d["transitions"][0].update({"from": ["a"]}),
         r"transition names unknown state \['a'\]"),
        (lambda d: d["rewards"][0].update(state={"a": 1}),
         r"reward names unknown state \{'a': 1\}"),
        (lambda d: d["partition"].update(taboo=5), "'taboo' must be a list"),
        (lambda d: d["partition"]["target"].append(["e"]),
         r"partition names unknown state \['e'\]"),
        (_bool_for_label("transitions", "to", 1), "transition names unknown state True"),
        (_bool_for_label("transitions", "from", 0), "transition names unknown state False"),
        (_bool_for_label("transitions", "action", 1), "transition names unknown action True"),
        (_bool_for_label("rewards", "state", 1), "reward names unknown state True"),
        (lambda d: d["transitions"].insert(1, 5), "transition entries must be objects"),
        (lambda d: d["transitions"][0].pop("p"), "transition entry missing key 'p'"),
        (lambda d: d["rewards"].insert(1, [1.0]), "reward entries must be objects"),
        (lambda d: d["rewards"][0].pop("state"), "reward entry missing key 'state'"),
    ],
)
def test_format_errors(ex1_model, mangle, message):
    doc = doc_from(ex1_model)
    mangle(doc)
    with pytest.raises(sm.ModelFormatError, match=message):
        sm.load_model(json.dumps(doc))


def _zz_entry(d):
    d["transitions"].append({"from": "zz", "action": "u1", "to": "a", "p": 1.0})


def _duplicate_entry(d):
    d["transitions"].append(dict(d["transitions"][0]))


@pytest.mark.parametrize(
    "edits,error,message",
    [
        ((_duplicate_entry, _zz_entry), sm.ModelFormatError,
         r"duplicate transition triple \('a', 'u1', 'd'\)"),
        ((_zz_entry, _duplicate_entry), sm.ModelFormatError,
         "transition names unknown state 'zz'"),
        # A format defect wins over a row that no longer sums to one.
        ((lambda d: d["transitions"].pop(1), lambda d: d["transitions"][5].update(p="1")),
         sm.ModelFormatError, r"transition \('b', 'u2', 'a'\) p is not a number: '1'"),
        # The "to" state is checked before the action.
        ((lambda d: d["transitions"][3].update(action="zz", to="yy"),), sm.ModelFormatError,
         "transition names unknown state 'yy'"),
        # Transitions are read before rewards.
        ((lambda d: d["rewards"][0].update(action="zz"),
          lambda d: d["transitions"][9].update(p=None)),
         sm.ModelFormatError, r"transition \('c', 'u2', 'a'\) p is not a number: None"),
        ((lambda d: d["rewards"].insert(2, dict(d["rewards"][1])),
          lambda d: d["rewards"][4].update(rho=True)),
         sm.ModelFormatError, r"duplicate reward entry \('b', 'u1'\)"),
    ],
)
def test_first_defect_in_document_order_wins(ex1_model, edits, error, message):
    doc = doc_from(ex1_model)
    for edit in edits:
        edit(doc)
    with pytest.raises(error, match=message):
        sm.load_model(json.dumps(doc))


def test_validation_lists_every_violation_in_order(ex1_model):
    doc = doc_from(ex1_model)
    doc["transitions"][1]["p"] = 0.5
    doc["transitions"][6]["p"] = -0.8
    doc["rewards"].append({"state": "e", "action": "u2", "rho": 4.0})
    with pytest.raises(sm.ModelValidationError) as err:
        sm.load_model(json.dumps(doc))
    assert err.value.violations == [
        "transition row (a, u1) sums to 0.9",
        "transition row (b, u2) has entries outside [0, 1]",
        "reward nonzero on target state 'e' (action u2)",
    ]


@pytest.mark.parametrize(
    "change,violation",
    [
        (lambda m: {"partition": sm.StatePartition(
            ("a", "b", "c", "zz"), m.partition.forbidden, m.partition.target)},
         "partition names undeclared states: 'zz'"),
        (lambda m: {"transitions": m.transitions[:, :1]},
         r"transition tensor has shape \(5, 1, 5\), expected \(5, 2, 5\)"),
        (lambda m: {"rewards": m.rewards[:, :4]},
         r"reward table has shape \(2, 4\), expected \(2, 5\)"),
    ],
    ids=["undeclared state", "transition shape", "reward shape"],
)
def test_validate_model_built_directly(ex1_model, change, violation):
    """Defects a document cannot carry, in a model built without ``load_model``."""
    model = dataclasses.replace(ex1_model, **change(ex1_model))
    assert any(re.fullmatch(violation, v) for v in sm.validate_model(model))


def test_numeric_labels_load(ex1_model):
    doc = doc_from(ex1_model)
    number = {"a": 10, "b": 2.5, "c": -3, "d": 0, "e": 7}
    doc = json.loads(json.dumps(doc).replace('"a"', "10").replace('"b"', "2.5")
                     .replace('"c"', "-3").replace('"d"', "0").replace('"e"', "7"))
    model = sm.load_model(json.dumps(doc))
    assert model.states == tuple(number.values())
    assert np.array_equal(model.transitions, ex1_model.transitions)
    again = sm.load_model(sm.serialize_model(model))
    assert again.states == model.states


def reference_serialize_model(model):
    """The dict-building serializer that ``serialize_model`` must match byte for byte."""
    transitions = []
    for i, s in enumerate(model.states):
        for u, a in enumerate(model.actions):
            for j, t in enumerate(model.states):
                prob = model.transitions[i, u, j]
                if prob != 0.0:
                    transitions.append({"from": s, "action": a, "to": t, "p": prob})
    rewards = []
    for u, a in enumerate(model.actions):
        for i, s in enumerate(model.states):
            val = model.rewards[u, i]
            if val != 0.0:
                rewards.append({"state": s, "action": a, "rho": val})
    doc = {
        "states": list(model.states),
        "actions": list(model.actions),
        "partition": {
            "taboo": list(model.partition.taboo),
            "forbidden": list(model.partition.forbidden),
            "target": list(model.partition.target),
        },
        "transitions": transitions,
        "rewards": rewards,
    }
    return json.dumps(doc, indent=2)


def edge_models(ex1):
    """Models the serializer must render like the encoder, valid or not."""
    def variant(**kw):
        fields = dict(states=ex1.states, actions=ex1.actions, partition=ex1.partition,
                      transitions=ex1.transitions, rewards=ex1.rewards)
        return sm.MdpModel(**{**fields, **kw})

    costs = ex1.rewards.copy()
    costs[0, 0], costs[1, 1], costs[1, 2] = np.nan, np.inf, -np.inf
    probs = ex1.transitions.copy()
    probs[0, 0, 0], probs[2, 0, 3], probs[1, 1, 4] = -np.inf, 5e-324, 1e300
    tiny, huge = ex1.transitions.copy(), ex1.rewards.copy()
    tiny[0, 0, :3], tiny[1, 1, :3] = (9.4e-05, 1e-7, 5e-324), 1e-5
    tiny[2, 0, :3] = 1e-4, -9.4e-05, -2e16
    huge[0, :3] = 1e12, 1e15, 9999999999999998.0
    huge[1, :3] = 1e16, 1.2345678901234568e17, 1.7976931348623157e308
    labels = ('q"uote', "back\\slash", "new\nline", "caf\u00e9 \u2603 \U0001f600", "t\tab\x00")
    rename = dict(zip(ex1.states, labels))
    part = ex1.partition
    return {
        "nonfinite costs": variant(rewards=costs),
        "nonfinite probabilities": variant(transitions=probs),
        "wide magnitudes": variant(transitions=tiny, rewards=huge),
        "no rewards": variant(rewards=np.zeros_like(ex1.rewards)),
        "no transitions": variant(transitions=np.zeros_like(ex1.transitions)),
        "escaped labels": variant(
            states=labels,
            actions=('u"1', "\u00fc2"),
            partition=sm.StatePartition(*(tuple(rename[s] for s in group) for group in
                                          (part.taboo, part.forbidden, part.target))),
        ),
        "numeric labels": variant(
            states=(1, 2.5, -3, 0, 1e100),
            partition=sm.StatePartition((1, 2.5, -3), (0,), (1e100,)),
        ),
    }


def test_serialize_matches_reference(ex1_model, solver_corpus, chain_corpus):
    models = [ex1_model, *edge_models(ex1_model).values()]
    models += [model for model, _ in solver_corpus]
    models += [model for model, _, _ in chain_corpus]
    for model in models:
        assert sm.serialize_model(model) == reference_serialize_model(model)


def test_serialize_round_trips_escaped_labels(ex1_model):
    model = edge_models(ex1_model)["escaped labels"]
    again = sm.load_model(sm.serialize_model(model))
    assert again.states == model.states and again.actions == model.actions
    assert np.array_equal(again.transitions, model.transitions)


def reference_row_violations(model):
    """The per-row loop that ``validate_model``'s array checks replace."""
    out = []
    for i in range(model.n_states):
        for u in range(model.n_actions):
            row = model.transitions[i, u]
            name = f"transition row ({model.states[i]}, {model.actions[u]})"
            if (row < 0).any() or (row > 1).any():
                out.append(f"{name} has entries outside [0, 1]")
            elif abs(row.sum() - 1.0) > sm.model.ROW_SUM_TOL:
                out.append(f"{name} sums to {row.sum():.12g}")
    return out


@pytest.mark.parametrize("n", [3, 9, 130, 300])
def test_row_checks_match_reference(ex1_model, n):
    """Sizes cross numpy's pairwise-summation block sizes; the message prints the sum."""
    rng = np.random.default_rng(n)
    t = rng.random((n, 2, n)) ** 4
    t /= t.sum(axis=2, keepdims=True)
    t[rng.random((n, 2)) < 0.3] *= 1 + 1e-11
    t[rng.random((n, 2)) < 0.1] *= -1
    states = tuple(f"s{i}" for i in range(n))
    model = sm.MdpModel(states=states, actions=("u", "v"),
                        partition=sm.StatePartition(states[:-1], (), states[-1:]),
                        transitions=t, rewards=np.zeros((2, n)))
    rows = [v for v in sm.validate_model(model) if v.startswith("transition row")]
    assert rows and rows == reference_row_violations(model)


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


@pytest.mark.parametrize("row", [[np.nan, 0.0], [np.nan, 1.0], [np.inf, -np.inf]])
def test_make_policy_rejects_nan_mass(ex1_model, row):
    """A NaN row sum used to pass the ``abs(sum - 1) > tol`` test."""
    matrix = np.tile([1.0, 0.0], (5, 1))
    matrix[0] = row
    with pytest.raises(sm.PolicyError, match="policy row for state 'a' is not a distribution"):
        sm.make_policy(ex1_model, matrix)


START = np.array([0.4, 0.3, 0.3, 0.0, 0.0])
POLICY_TAKERS = {
    "value": sm.value,
    "safety": sm.safety,
    "reach": sm.reach,
    "chain_quantities": sm.chain_quantities,
    "cost_inputs": sm.cost_inputs,
    "occupation": lambda m, pol: sm.occupation(m, pol, START),
    "hitting": lambda m, pol: sm.hitting(m, pol, START),
    "induced_matrix": sm.induced_matrix,
    "value_iterative": sm.value_iterative,
    "safety_iterative": sm.safety_iterative,
    "mc_estimates": lambda m, pol: sm.mc_estimates(m, pol, "a", 50, 0),
    "simulate": lambda m, pol: sm.simulate(m, pol, "a", 0),
    "exhaustive_paths": lambda m, pol: sm.exhaustive_paths(m, pol, "a", 4),
    "serialize_policy": sm.serialize_policy,
}


def _bad_matrix(kind):
    matrix = np.tile([1.0, 0.0], (5, 1))
    if kind == "half":
        matrix[0] = [0.5, 0.0]
    elif kind == "nan":
        matrix[1] = [np.nan, 1.0]
    else:
        matrix = matrix[:4]
    return matrix


@pytest.mark.parametrize(
    "kind,message",
    [
        ("half", "policy row for state 'a' is not a distribution"),
        ("nan", "policy row for state 'b' is not a distribution"),
        ("shape", r"policy matrix has shape \(4, 2\), expected \(5, 2\)"),
    ],
    ids=["half row", "nan row", "shape"],
)
@pytest.mark.parametrize("taker", list(POLICY_TAKERS))
def test_every_policy_taker_checks_one_rule(ex1_model, taker, kind, message):
    """Every function that takes a policy rejects a raw ``Policy`` as ``make_policy`` does.

    The Monte Carlo sampler used to give the missing mass of a short row
    to the last action and the path tree to drop it; a NaN row gave NaN.
    """
    with pytest.raises(sm.PolicyError, match=message):
        sm.make_policy(ex1_model, _bad_matrix(kind))
    with pytest.raises(sm.PolicyError, match=message):
        POLICY_TAKERS[taker](ex1_model, sm.Policy(_bad_matrix(kind)))


def test_policy_round_trip(ex1_model, ex1_policy):
    text = sm.serialize_policy(ex1_model, ex1_policy)
    again = sm.load_policy(text, ex1_model)
    assert np.array_equal(again.matrix, ex1_policy.matrix)


@pytest.mark.parametrize("actions", [(1, 2), (0.5, -3), ("u1", 2)])
def test_policy_round_trip_number_labels(ex1_model, actions):
    """A number action label is written, and read back, as its JSON key text."""
    model = relabeled(ex1_model, (10, 2.5, -3, 0, 7), actions)
    policy = sm.pure_policy(model, {10: actions[0], 2.5: actions[1], -3: actions[0]})
    text = sm.serialize_policy(model, policy)
    assert np.array_equal(sm.load_policy(text, model).matrix, policy.matrix)


def test_load_policy_rejects_key_text_of_two_actions(ex1_model):
    model = relabeled(ex1_model, ex1_model.states, (1, "1"))
    doc = {"policy": [{"state": s, "dist": {"1": 1.0}} for s in ("a", "b", "c")]}
    with pytest.raises(sm.ModelFormatError, match="'1' names more than one action"):
        sm.load_policy(json.dumps(doc), model)


@pytest.mark.parametrize(
    "row,message",
    [
        ({"state": "a", "dist": {"u1": None}}, "mass of 'u1' is not a number: None"),
        ({"state": "a", "dist": {"u1": "1"}}, "mass of 'u1' is not a number: '1'"),
        ({"state": "a", "dist": {"u1": True}}, "mass of 'u1' is not a number: True"),
        ({"state": ["a"], "dist": {"u1": 1.0}}, r"unknown state \['a'\]"),
        ({"state": {"a": 1}, "dist": {"u1": 1.0}}, r"unknown state \{'a': 1\}"),
        ({"state": "a", "dist": [1.0]}, "must map actions to mass"),
        ({"state": "a", "dist": {"u1": 10**400}}, "mass of 'u1' is out of float range"),
        ({"dist": {"u1": 1.0}}, "policy entries need 'state' and 'dist' keys"),
        ({"state": "a"}, "policy entries need 'state' and 'dist' keys"),
        ("a", "policy entries need 'state' and 'dist' keys"),
        ({"state": "b", "dist": {"u1": 1.0}}, "duplicate policy row for state 'b'"),
        ({"state": "a", "dist": {"zz": 1.0}}, "policy names unknown action 'zz'"),
        ({"state": "d", "dist": {"u1": 1.0}}, "policy is missing taboo state 'a'"),
    ],
)
def test_load_policy_format_errors(ex1_model, row, message):
    rows = [row, {"state": "b", "dist": {"u2": 1}}, {"state": "c", "dist": {"u1": 1}}]
    with pytest.raises(sm.ModelFormatError, match=message):
        sm.load_policy(json.dumps({"policy": rows}), ex1_model)


@pytest.mark.parametrize("doc", [{}, {"policy": {}}, [], {"rows": []}])
def test_load_policy_needs_a_policy_list(ex1_model, doc):
    with pytest.raises(sm.ModelFormatError, match="must contain a 'policy' list"):
        sm.load_policy(json.dumps(doc), ex1_model)


def test_five_thousand_digit_integer_is_a_format_error(ex1_model, data_dir):
    """Past the interpreter's int digit limit where there is one, out of range otherwise."""
    huge = "9" * 5000
    text = (data_dir / "ex1_model.json").read_text()
    with pytest.raises(sm.ModelFormatError):
        sm.load_model(text.replace('"p": 0.4', '"p": ' + huge, 1))
    doc = json.dumps({"policy": [{"state": "a", "dist": {"u1": 0}}]}).replace("0", huge)
    with pytest.raises(sm.ModelFormatError):
        sm.load_policy(doc, ex1_model)


def test_load_policy_integer_mass(ex1_model, ex1_policy):
    rows = [{"state": s, "dist": {u: 1}} for s, u in (("a", "u1"), ("b", "u2"), ("c", "u1"))]
    policy = sm.load_policy(json.dumps({"policy": rows}), ex1_model)
    assert np.array_equal(policy.matrix, ex1_policy.matrix)


def test_load_policy_unknown_state(ex1_model):
    doc = {"policy": [{"state": "zz", "dist": {"u1": 1.0}}]}
    with pytest.raises(sm.ModelFormatError, match="unknown state"):
        sm.load_policy(json.dumps(doc), ex1_model)


def test_state_index_lookup(ex1_model):
    assert ex1_model.state_index("c") == 2
    assert ex1_model.state_index(4) == 4
    with pytest.raises(KeyError):
        ex1_model.state_index("zz")


def test_number_labels_resolve_before_positions(ex1_model, ex1_policy):
    """A known label wins over a position; other integers are positions.

    ex1 relabeled so that states 2, 0 and 1 are the taboo states at
    positions 0, 1 and 2, and the actions 1 and 0 sit at positions 0 and 1.
    """
    model = relabeled(ex1_model, (2, 0, 1, 40, 50), (1, 0))
    assert [model.state_index(s) for s in (2, 0, 1, 40, np.int64(2))] == [0, 1, 2, 3, 0]
    assert model.state_index(3) == 3 and model.state_index(np.int64(4)) == 4
    assert [model.action_index(u) for u in (1, 0, np.int64(1))] == [0, 1, 0]
    for bad in (5, -1, 2.5, "2"):
        with pytest.raises(KeyError):
            model.state_index(bad)
    with pytest.raises(KeyError):
        ex1_model.state_index(True)
    assert model.action_index(1) == 0 and ex1_model.action_index(1) == 1
    policy = sm.pure_policy(model, {2: 1, 0: 0, 1: 1})
    assert np.array_equal(policy.matrix, ex1_policy.matrix)
    for start, label in ((0, "b"), (2, "a"), (40, "d")):
        got = sm.mc_estimates(model, policy, start, 200, 3)
        want = sm.mc_estimates(ex1_model, ex1_policy, label, 200, 3)
        assert got == want
    got = sm.exhaustive_paths(model, policy, 0, 6)
    want = sm.exhaustive_paths(ex1_model, ex1_policy, "b", 6)
    assert got == want


def test_bool_names_only_a_bool_label(ex1_model):
    """``True == 1`` in Python, yet a bool never names the label 1, nor 1 a bool label."""
    model = relabeled(ex1_model, (2, 0, 1, 40, 50), (1, 0))
    for bad in (True, False, np.True_):
        with pytest.raises(KeyError, match="unknown state label"):
            model.state_index(bad)
        with pytest.raises(KeyError, match="unknown action label"):
            model.action_index(bad)
    assert [model.state_index(s) for s in (1, 0, 1.0, np.int64(1))] == [2, 1, 2, 2]
    assert [model.action_index(u) for u in (1, 0, 0.0)] == [0, 1, 1]
    rows = [{"state": s, "dist": {"0": 1.0}} for s in (2, 0, 1)]
    assert sm.load_policy(json.dumps({"policy": rows}), model).matrix[:3, 1].all()
    rows[2]["state"] = True
    with pytest.raises(sm.ModelFormatError, match="policy names unknown state True"):
        sm.load_policy(json.dumps({"policy": rows}), model)
    flagged = relabeled(ex1_model, (True, "b", "c", "d", "e"), ex1_model.actions)
    assert flagged.state_index(True) == 0 and flagged.state_index(1) == 1
    doc = json.loads(sm.serialize_model(flagged))
    doc["partition"]["taboo"][0] = 1
    with pytest.raises(sm.ModelFormatError, match="partition names unknown state 1"):
        sm.load_model(json.dumps(doc))
