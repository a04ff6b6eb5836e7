"""Command-line workflows: reports, exit codes, determinism."""
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import safemdp as sm
from corpus import EDGE_FLOATS, relabeled
from safemdp import evaluate, simplex
from safemdp.cli import _indented, _report_tokens, main
from safemdp.constrained import ADMISSIBLE_TOL


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


@pytest.fixture
def model_path(data_dir):
    return str(data_dir / "ex1_model.json")


@pytest.fixture
def policy_path(data_dir):
    return str(data_dir / "ex1_policy.json")


@pytest.fixture
def broken_model(tmp_path, model_path):
    doc = json.loads(open(model_path).read())
    doc["transitions"] = [
        t for t in doc["transitions"] if not (t["from"] == "c" and t["to"] == "a")
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def loop_policy(tmp_path):
    """Policy that keeps the two-way chain circulating forever."""
    model = {
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
        "rewards": [
            {"state": "h0", "action": "swap", "rho": 1.0},
            {"state": "h1", "action": "swap", "rho": 1.0},
        ],
    }
    policy = {
        "policy": [
            {"state": "h0", "dist": {"swap": 1.0}},
            {"state": "h1", "dist": {"swap": 1.0}},
        ]
    }
    mp = tmp_path / "loop_model.json"
    pp = tmp_path / "loop_policy.json"
    mp.write_text(json.dumps(model))
    pp.write_text(json.dumps(policy))
    return str(mp), str(pp)


def test_validate_ok(capsys, model_path):
    code, report = run_json(capsys, "validate", model_path)
    assert code == 0
    assert report["results"]["valid"]
    assert report["results"]["violations"] == []
    assert report["results"]["taboo"] == 3
    assert len(report["inputs"]["model"]["sha256"]) == 64


def test_validate_broken(capsys, broken_model):
    code, report = run_json(capsys, "validate", broken_model)
    assert code == 2
    assert not report["results"]["valid"]
    assert any("sums to" in v for v in report["results"]["violations"])


def test_validate_overflowing_number_exits_2(capsys, tmp_path, model_path):
    doc = json.loads(open(model_path).read())
    doc["transitions"][0]["p"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "validate", str(path))
    assert code == 2
    assert not report["results"]["valid"]
    [violation] = report["results"]["violations"]
    assert violation.startswith("transition (") and "p is out of float range" in violation


@pytest.mark.parametrize(
    "target,edit,message",
    [
        ("policy", lambda d: d["policy"][0]["dist"].update(u1=None), "is not a number: None"),
        ("policy", lambda d: d["policy"][1].update(state=["b"]), "unknown state ['b']"),
        ("model", lambda d: d["states"].append(["f"]), "state label ['f'] is a list"),
        ("model", lambda d: d["transitions"][0].update({"from": ["a"]}), "unknown state ['a']"),
        ("model", lambda d: d["partition"].update(taboo=5), "'taboo' must be a list"),
    ],
)
def test_eval_malformed_document_exits_2(capsys, tmp_path, model_path, policy_path,
                                         target, edit, message):
    paths = {"model": model_path, "policy": policy_path}
    doc = json.loads(open(paths[target]).read())
    edit(doc)
    paths[target] = str(tmp_path / f"{target}.json")
    open(paths[target], "w").write(json.dumps(doc))
    code, report = run_json(capsys, "eval", paths["model"], paths["policy"])
    assert code == 2
    assert report["error"]["kind"] == "Invalid"
    assert message in report["error"]["message"]


def test_missing_file_is_io_error(capsys):
    code, report = run_json(capsys, "validate", "/nonexistent/model.json")
    assert code == 3
    assert report["error"]["kind"] == "IO"


def test_eval_golden(capsys, model_path, policy_path):
    code, report = run_json(capsys, "eval", model_path, policy_path)
    assert code == 0
    results = report["results"]
    assert results["value"] == {"a": 1.0, "b": 3.6, "c": 4.0}
    assert results["safety"] == {"a": 0.4, "b": 0.4, "c": 0.4}
    assert results["reach"] == {"a": 0.6, "b": 0.6, "c": 0.6}
    assert results["green"]["b"] == {"a": 1.0, "b": 1.0, "c": 0.2}
    assert results["evolution_residual"] <= 1e-12
    assert results["spectral_radius"] < 1e-6


def test_eval_report_is_deterministic(capsys, model_path, policy_path):
    _, first = run_json(capsys, "eval", model_path, policy_path)
    _, second = run_json(capsys, "eval", model_path, policy_path)
    assert strip_timings(first) == strip_timings(second)


@pytest.mark.parametrize(
    "mode_args",
    [
        ("unconstrained",),
        ("safest",),
        ("p-safe", "--p", "0.5"),
        ("relative", "--q", "2.0"),
        ("lp", "--p", "0.5"),
        ("dual", "--p", "0.5", "--oracle"),
    ],
    ids=lambda args: args[0],
)
def test_solve_report_is_deterministic(capsys, model_path, mode_args):
    argv = ("solve", model_path, "--mode", *mode_args)
    code, first = run_json(capsys, *argv)
    assert code == 0
    _, second = run_json(capsys, *argv)
    assert strip_timings(first) == strip_timings(second)


def test_eval_keys_sorted(capsys, model_path, policy_path):
    _, out = run(capsys, "eval", model_path, policy_path)
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_eval_csv(capsys, model_path, policy_path):
    code, out = run(capsys, "eval", model_path, policy_path, "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,state,value"
    assert "value,b,3.6" in lines
    assert any(line.startswith("green,b,c,0.2") for line in lines)


def reference_round(obj):
    """The report's rounding: every float to 12 significant digits, NaN as null."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: reference_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round(v) for v in obj]
    return obj


@pytest.fixture
def large_eval(tmp_path):
    """Model and policy paths for 30 taboo states whose key texts sort unlike the states.

    "h10" sorts before "h2", the numbers 10 and 2 key as "10" before "2",
    "caf\u00e9" sorts after "zz" though its escape sorts before, and "50% off"
    holds a format directive.  State h0 exits to the target at cost 1 and h1
    at cost 3e12, so the report holds integral values and values from 1e12
    up; the forbidden state takes at most 1e-6 per step, so safety is small.
    """
    rng = np.random.default_rng(12)
    taboo = (*(f"h{i}" for i in range(24)), 2, 10, "caf\u00e9", "zz", "50% off", 'q"uote')
    h, n = len(taboo), len(taboo) + 2
    trans = rng.random((n, 2, n)) ** 3
    trans[:, :, h] = 1e-6 * rng.random((n, 2))
    trans[:2, 0] = 0.0
    trans[:2, 0, -1] = 1.0
    trans[h:] = np.eye(n)[h:, None, :]
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = np.zeros((2, n))
    rewards[:, :h] = rng.uniform(0.0, 5.0, size=(2, h))
    rewards[0, :2] = 1.0, 3e12
    model = sm.MdpModel(states=(*taboo, "u0", "e0"), actions=("a0", "a1"),
                        partition=sm.StatePartition(taboo, ("u0",), ("e0",)),
                        transitions=trans, rewards=rewards)
    policy = sm.pure_policy(model, {s: "a0" for s in taboo})
    model_path, policy_path = tmp_path / "model.json", tmp_path / "policy.json"
    model_path.write_text(sm.serialize_model(model))
    policy_path.write_text(sm.serialize_policy(model, policy))
    return str(model_path), str(policy_path), model, policy


def eval_tables(model, policy):
    """The eval report's four tables as dicts of unrounded floats in state order."""
    cq = evaluate.chain_quantities(model, policy)
    keys = [next(iter(json.loads(json.dumps({s: 0})))) for s in model.states[:model.n_taboo]]

    def table(x):
        return dict(zip(keys, x.tolist()))

    return {
        "value": table(cq.green @ cq.inputs.stage_cost),
        "safety": table(cq.green @ cq.inputs.to_forbidden),
        "reach": table(cq.green @ cq.inputs.to_target),
        "green": {k: table(row) for k, row in zip(keys, cq.green)},
    }


def test_large_eval_report_matches_reference(capsys, large_eval):
    model_path, policy_path, model, policy = large_eval
    code, out = run(capsys, "eval", model_path, policy_path)
    assert code == 0
    report = json.loads(out)
    report["results"].update(eval_tables(model, policy))
    assert out == json.dumps(reference_round(report), sort_keys=True, indent=2) + "\n"
    assert '"h0": 1.0,' in out and '"h1": 3000000000000.0,' in out


def test_large_eval_csv_matches_reference(capsys, large_eval):
    model_path, policy_path, model, policy = large_eval
    code, out = run(capsys, "eval", model_path, policy_path, "--csv")
    assert code == 0
    tables = eval_tables(model, policy)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["quantity", "state", "value"])
    for name in ("value", "safety", "reach"):
        writer.writerows([name, state, f"{x:.12g}"] for state, x in tables[name].items())
    writer.writerow(["green", "from", "to", "value"])
    writer.writerows(["green", src, dst, f"{x:.12g}"]
                     for src, row in tables["green"].items() for dst, x in row.items())
    assert out == text.getvalue()


@pytest.mark.parametrize("label", ["x,y", 'say "hi"', "two\nlines", "cr\rlf", '%,"%s"'])
def test_eval_csv_quotes_labels(capsys, tmp_path, ex1_model, label):
    """A label holding a comma, a quote, CR or LF reads back as one field."""
    model = relabeled(ex1_model, (label, *ex1_model.states[1:]), ex1_model.actions)
    policy = sm.pure_policy(model, {label: "u1", "b": "u2", "c": "u1"})
    model_path, policy_path = tmp_path / "model.json", tmp_path / "policy.json"
    model_path.write_text(sm.serialize_model(model))
    policy_path.write_text(sm.serialize_policy(model, policy))
    code, out = run(capsys, "eval", str(model_path), str(policy_path), "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [3] * 10 + [4] * 10
    assert [row[1] for row in rows[1:4]] == [label, "b", "c"]
    assert [row[1:3] for row in rows[11:14]] == [[label, label], [label, "b"], [label, "c"]]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(values=st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), min_size=1, max_size=8))
@example(values=list(EDGE_FLOATS))
def test_report_tokens_are_the_encoders(values):
    """A report's number tokens are the encoder's for the rounded floats."""
    want = ["null" if math.isnan(x) else json.dumps(float(f"{x:.12g}")) for x in values]
    assert _report_tokens(np.array(values)) == want


def test_eval_nan_policy_mass_exits_2(capsys, tmp_path, model_path, policy_path):
    """A NaN mass used to pass the row check and exit 4 with NotTransient."""
    doc = json.loads(open(policy_path).read())
    doc["policy"][0]["dist"] = {"u1": float("nan")}
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "eval", model_path, str(path))
    assert code == 2
    assert report["error"]["kind"] == "Invalid"
    assert "policy row for state 'a' is not a distribution" in report["error"]["message"]


def test_eval_non_transient_exits_4(capsys, loop_policy):
    mp, pp = loop_policy
    code, report = run_json(capsys, "eval", mp, pp)
    assert code == 4
    assert report["error"]["kind"] == "NotTransient"
    assert report["results"]["spectral_radius"] == pytest.approx(1.0, abs=1e-9)
    assert report["results"]["trapped"] == ["h0", "h1"]


def test_eval_evaluates_the_policy_once(capsys, monkeypatch, model_path, policy_path):
    """Occupation and hitting come from the one chain_quantities solve."""
    code, before = run_json(capsys, "eval", model_path, policy_path)

    def refuse(Q):
        raise AssertionError("eval inverted the taboo block a second time")

    monkeypatch.setattr("safemdp.evaluate.green", refuse)
    code, after = run_json(capsys, "eval", model_path, policy_path)
    assert code == 0
    assert strip_timings(after) == strip_timings(before)


def test_eval_checks_transience_once(capsys, monkeypatch, model_path, policy_path):
    """The radius comes after the one transience check of the solve."""
    code, before = run_json(capsys, "eval", model_path, policy_path)
    calls = []
    trapped = evaluate._trapped

    def counted(*args):
        calls.append(args)
        return trapped(*args)

    monkeypatch.setattr("safemdp.evaluate._trapped", counted)
    code, after = run_json(capsys, "eval", model_path, policy_path)
    assert code == 0
    assert len(calls) == 1
    assert strip_timings(after) == strip_timings(before)


def test_solve_trapped_state_exits_4_before_sweeping(capsys, tmp_path):
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
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "solve", str(path), "--mode", "unconstrained")
    assert code == 4
    assert report["error"]["kind"] == "NotTransient"
    assert report["results"]["trapped"] == ["h0"]


def test_solve_unconstrained(capsys, model_path):
    code, report = run_json(capsys, "solve", model_path, "--mode", "unconstrained")
    assert code == 0
    results = report["results"]
    assert results["value"] == {"a": 1.0, "b": 3.6, "c": 4.0}
    assert results["policy"]["b"] == {"u2": 1.0}
    assert results["residual"] <= 1e-10


def test_solve_safest(capsys, model_path):
    code, report = run_json(capsys, "solve", model_path, "--mode", "safest")
    assert code == 0
    assert report["results"]["min_safety"] == {"a": 0.4, "b": 0.4, "c": 0.4}
    assert report["results"]["policy"]["a"] == {"u1": 1.0}


def test_solve_p_safe(capsys, model_path):
    code, report = run_json(
        capsys, "solve", model_path, "--mode", "p-safe", "--p", "0.5"
    )
    assert code == 0
    results = report["results"]
    assert results["value"] == {"a": 1.0, "b": 3.6, "c": 4.0}
    assert results["feasible"] is True
    assert results["info"]["admissible_count"] == 4


def test_solve_p_safe_infeasible_exits_5(capsys, model_path):
    code, report = run_json(
        capsys, "solve", model_path, "--mode", "p-safe", "--p", "0.3"
    )
    assert code == 5
    assert report["error"]["kind"] == "Infeasible"


def test_solve_relative_from_q(capsys, model_path):
    code, report = run_json(
        capsys, "solve", model_path, "--mode", "relative", "--q", "2.0"
    )
    assert code == 0
    assert report["results"]["value"] == {"a": 1.0, "b": 3.6, "c": 4.0}
    assert report["results"]["q"] == 2.0


def test_solve_relative_converts_p(capsys, model_path):
    code, report = run_json(
        capsys, "solve", model_path, "--mode", "relative", "--p", "0.5"
    )
    assert code == 0
    assert report["results"]["q"] == 1.0


def test_solve_lp(capsys, model_path):
    code, report = run_json(capsys, "solve", model_path, "--mode", "lp", "--p", "0.5")
    assert code == 0
    results = report["results"]
    assert results["objective"] == 8.6
    assert results["l"] == {"a": 1.0, "b": 3.6, "c": 4.0}
    assert results["multiplier_level"] == 0.0
    assert results["policy"]["a"] == {"u1": 1.0}


def test_solve_lp_policy_keeps_every_state_within_p(capsys, tmp_path, solver_corpus):
    """``solve --mode lp`` reports the dual's policy, never one that breaks p."""
    for k, (model, p) in enumerate(solver_corpus):
        mp = tmp_path / f"model{k}.json"
        mp.write_text(sm.serialize_model(model))
        code, report = run_json(capsys, "solve", str(mp), "--mode", "lp", "--p", repr(p))
        assert code == 0
        rows = [{"state": s, "dist": d} for s, d in report["results"]["policy"].items()]
        policy = sm.load_policy(json.dumps({"policy": rows}), model)
        assert (sm.safety(model, policy) <= p + ADMISSIBLE_TOL).all(), k


def test_solve_lp_infeasible_exits_5(capsys, model_path):
    code, report = run_json(capsys, "solve", model_path, "--mode", "lp", "--p", "0.3")
    assert code == 5
    assert report["error"] == {
        "kind": "Infeasible", "message": "no policy keeps safety within 0.3 everywhere"
    }
    assert report["results"]["feasible"] is False
    assert report["results"]["min_safety"] == {"a": 0.4, "b": 0.4, "c": 0.4}


def test_solve_lp_infeasible_at_one_state_exits_5(capsys, tmp_path):
    """p = 0.35 lies above the mean minimal safety (0.1 at a, 0.5 at b) but
    below b's, so the LP is bounded while no policy keeps b within p."""
    exits = {("a", "u1"): 0.1, ("a", "u2"): 0.1, ("b", "u1"): 0.5, ("b", "u2"): 0.6}
    transitions = [
        {"from": s, "action": u, "to": to, "p": x}
        for (s, u), d in exits.items()
        for to, x in (("d", d), ("e", 1.0 - d))
    ] + [{"from": s, "action": u, "to": s, "p": 1.0} for s in "de" for u in ("u1", "u2")]
    doc = {
        "states": ["a", "b", "d", "e"],
        "actions": ["u1", "u2"],
        "partition": {"taboo": ["a", "b"], "forbidden": ["d"], "target": ["e"]},
        "transitions": transitions,
        "rewards": [{"state": "b", "action": "u1", "rho": 1}],
    }
    path = tmp_path / "one_state.json"
    path.write_text(json.dumps(doc))
    for mode in ("lp", "dual"):
        code, report = run_json(capsys, "solve", str(path), "--mode", mode, "--p", "0.35")
        assert code == 5, mode
        assert report["error"]["kind"] == "Infeasible"
        assert report["results"]["min_safety"] == {"a": 0.1, "b": 0.5}
        assert "policy" not in report["results"]


def test_solve_lp_and_dual_print_one_policy(capsys, tmp_path, model_path, solver_corpus):
    """``lp`` reports the policy ``dual`` does, at the same ``--tol``."""
    model, p = solver_corpus[3]
    corpus_path = tmp_path / "corpus3.json"
    corpus_path.write_text(sm.serialize_model(model))
    for path, argv in ((corpus_path, ["--p", repr(p), "--tol", "0.1"]),
                       (model_path, ["--p", "0.5"])):
        policies = [
            run_json(capsys, "solve", str(path), "--mode", mode, *argv)[1]["results"]["policy"]
            for mode in ("lp", "dual")
        ]
        assert policies[0] == policies[1], path


def test_solve_dual_with_oracle(capsys, model_path):
    code, report = run_json(
        capsys, "solve", model_path, "--mode", "dual", "--p", "0.5", "--oracle"
    )
    assert code == 0
    results = report["results"]
    assert results["feasible"] is True
    assert results["value"] == {"a": 1.0, "b": 3.6, "c": 4.0}
    assert results["oracle"]["admissible_count"] == 4
    assert abs(results["gap"]) <= 1e-6
    assert results["info"]["exit"] == "unconstrained"
    assert results["info"]["breakpoints"] == []


def test_solve_dual_infeasible_reports_floor(capsys, model_path):
    code, report = run_json(
        capsys, "solve", model_path, "--mode", "dual", "--p", "0.3"
    )
    assert code == 5
    assert report["results"]["feasible"] is False
    assert report["results"]["min_safety"] == {"a": 0.4, "b": 0.4, "c": 0.4}


def test_solve_requires_level_parameter(capsys, model_path):
    code, report = run_json(capsys, "solve", model_path, "--mode", "p-safe")
    assert code == 2
    assert report["error"]["kind"] == "Parameter"


@pytest.mark.parametrize(
    "flag_args",
    [
        ("unconstrained", "--tol", "-1"),
        ("unconstrained", "--tol", "nan"),
        ("dual", "--p", "nan"),
        ("relative", "--q", "nan"),
        ("relative", "--q", "-0.5"),
        ("lp", "--p", "inf"),
    ],
    ids=lambda args: " ".join(args[1:]),
)
def test_solve_rejects_bad_numeric_parameters(capsys, model_path, flag_args):
    mode, flag, x = flag_args
    code, report = run_json(capsys, "solve", model_path, "--mode", mode, flag, x)
    assert code == 2
    assert report["error"]["kind"] == "Parameter"
    assert flag in report["error"]["message"]


def test_solve_relative_requires_q_or_p(capsys, model_path):
    code, report = run_json(capsys, "solve", model_path, "--mode", "relative")
    assert code == 2
    assert report["error"] == {
        "kind": "Parameter", "message": "--mode relative requires --q (or --p to convert)"
    }


def test_solve_other_package_error_exits_1(capsys, monkeypatch, model_path):
    """An error with no exit code of its own exits 1 under its class name."""
    monkeypatch.setattr(simplex, "ITER_CAP", 0)
    code, report = run_json(capsys, "solve", model_path, "--mode", "lp", "--p", "0.5")
    assert code == 1
    assert report["error"] == {"kind": "LpNumericalError", "message": "pivot cap exceeded"}


def test_solve_cap_exceeded_exits_6(capsys, tmp_path):
    h = 21
    states = [f"h{i}" for i in range(h)] + ["e0"]
    transitions = []
    for i in range(h):
        nxt = f"h{i + 1}" if i + 1 < h else "e0"
        transitions.append({"from": f"h{i}", "action": "on", "to": nxt, "p": 1.0})
        transitions.append({"from": f"h{i}", "action": "off", "to": "e0", "p": 1.0})
    transitions += [
        {"from": "e0", "action": "on", "to": "e0", "p": 1.0},
        {"from": "e0", "action": "off", "to": "e0", "p": 1.0},
    ]
    doc = {
        "states": states,
        "actions": ["on", "off"],
        "partition": {"taboo": states[:h], "forbidden": [], "target": ["e0"]},
        "transitions": transitions,
        "rewards": [],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(
        capsys, "solve", str(path), "--mode", "p-safe", "--p", "0.5"
    )
    assert code == 6
    assert report["error"]["kind"] == "CapExceeded"


def test_simulate_report(capsys, model_path, policy_path):
    code, report = run_json(
        capsys, "simulate", model_path, policy_path,
        "--start", "b", "--n", "4000", "--seed", "9",
    )
    assert code == 0
    results = report["results"]
    assert results["analytic"] == {"safety": 0.4, "reach": 0.6, "value": 3.6}
    assert results["estimates"]["safety"]["n"] == 4000
    assert results["deviation_in_se"]["value"] <= 4.0
    assert results["truncated"] == 0


def run_strict_json(capsys, *argv):
    """Like run_json, but any NaN or Infinity token fails the parse."""

    def refuse(token):
        raise ValueError(f"invalid JSON constant {token}")

    code, out = run(capsys, *argv)
    return code, json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize("flags", [("--max-steps", "1"), ("--n", "1")])
def test_simulate_undefined_error_has_no_deviation(capsys, model_path, policy_path, flags):
    """All-truncated or single-trajectory runs: null, never NaN tokens or 0.0."""
    args = {"--start": "b", "--n": "10", flags[0]: flags[1]}
    code, report = run_strict_json(
        capsys, "simulate", model_path, policy_path, *sum(args.items(), ())
    )
    assert code == 0
    results = report["results"]
    for name in ("safety", "reach", "value"):
        assert results["estimates"][name]["std_error"] is None
        assert results["deviation_in_se"][name] is None
    if flags[0] == "--max-steps":
        assert results["truncated"] == 10
        assert all(results["estimates"][k]["mean"] is None for k in results["analytic"])
    else:
        assert results["estimates"]["value"]["mean"] != results["analytic"]["value"]


def test_simulate_zero_error_deviation(capsys, model_path, policy_path):
    """A zero error reads 0.0 only when the mean is exact."""
    _, exact = run_strict_json(
        capsys, "simulate", model_path, policy_path, "--start", "a", "--n", "50"
    )
    assert exact["results"]["estimates"]["value"]["std_error"] == 0.0
    assert exact["results"]["deviation_in_se"]["value"] == 0.0
    _, off = run_strict_json(
        capsys, "simulate", model_path, policy_path,
        "--start", "b", "--n", "2", "--seed", "5",
    )
    estimates = off["results"]["estimates"]
    assert estimates["safety"] == {"mean": 0.0, "n": 2, "std_error": 0.0}
    assert estimates["value"] == {"mean": 3.0, "n": 2, "std_error": 0.0}
    assert off["results"]["deviation_in_se"] == {"safety": None, "reach": None, "value": None}


def test_simulate_deterministic(capsys, model_path, policy_path):
    args = ("simulate", model_path, policy_path, "--start", "b", "--n", "2000")
    _, first = run_json(capsys, *args)
    _, second = run_json(capsys, *args)
    assert strip_timings(first) == strip_timings(second)


def test_simulate_rejects_zero_n(capsys, model_path, policy_path):
    code, report = run_json(
        capsys, "simulate", model_path, policy_path, "--start", "b", "--n", "0"
    )
    assert code == 2
    assert report["error"]["kind"] == "Parameter"


@pytest.mark.parametrize(
    "flags",
    [
        ("--start", "zzz"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
        ("--max-steps", "0"),
        ("--max-steps", "-3"),
    ],
)
def test_simulate_rejects_bad_parameter(capsys, model_path, policy_path, flags):
    args = {"--start": "b", "--n": "10", flags[0]: flags[1]}
    code, report = run_json(
        capsys, "simulate", model_path, policy_path, *sum(args.items(), ())
    )
    assert code == 2
    assert report["error"]["kind"] == "Parameter"
    assert flags[0] in report["error"]["message"]


def test_simulate_accepts_largest_seed(capsys, model_path, policy_path):
    code, report = run_json(
        capsys, "simulate", model_path, policy_path,
        "--start", "b", "--n", "10", "--seed", str(2**64 - 1), "--max-steps", "1",
    )
    assert code == 0
    assert report["results"]["seed"] == 2**64 - 1


def write_pair(tmp_path, model, policy):
    mp, pp = tmp_path / "model.json", tmp_path / "policy.json"
    mp.write_text(sm.serialize_model(model))
    pp.write_text(sm.serialize_policy(model, policy))
    return str(mp), str(pp)


def test_number_labels_through_eval_and_simulate(capsys, tmp_path, ex1_model,
                                                 ex1_policy):
    model = relabeled(ex1_model, (10, 20, 30, 40, 50), (1, 2))
    mp, pp = write_pair(tmp_path, model, ex1_policy)
    code, report = run_json(capsys, "eval", mp, pp)
    assert code == 0
    assert report["results"]["value"] == {"10": 1.0, "20": 3.6, "30": 4.0}
    code, report = run_json(capsys, "simulate", mp, pp, "--start", "20", "--n", "100")
    assert code == 0
    assert report["results"]["start"] == "20"
    assert report["results"]["analytic"]["value"] == 3.6


def test_simulate_start_label_that_is_also_a_position(capsys, tmp_path, ex1_model,
                                                     ex1_policy):
    """``--start 0`` names the state labelled 0, here b at position 1."""
    model = relabeled(ex1_model, (2, 0, 1, 40, 50), ex1_model.actions)
    mp, pp = write_pair(tmp_path, model, ex1_policy)
    code, report = run_json(capsys, "simulate", mp, pp, "--start", "0", "--n", "100")
    assert code == 0
    assert report["results"]["analytic"]["value"] == 3.6
    (tmp_path / "ex1").mkdir()
    mp, pp = write_pair(tmp_path / "ex1", ex1_model, ex1_policy)
    _, want = run_json(capsys, "simulate", mp, pp, "--start", "b", "--n", "100")
    assert report["results"]["estimates"] == want["results"]["estimates"]


def test_simulate_start_naming_two_states_exits_2(capsys, tmp_path, ex1_model,
                                                  ex1_policy):
    """Two states keyed "10" make the model invalid before ``--start`` is read."""
    model = relabeled(ex1_model, (10, "10", 30, 40, 50), ex1_model.actions)
    mp, pp = write_pair(tmp_path, model, ex1_policy)
    code, report = run_json(capsys, "simulate", mp, pp, "--start", "10", "--n", "10")
    assert code == 2
    message = "state labels 10 and '10' share the report key '10'"
    assert report["error"] == {"kind": "Invalid", "message": message}


def test_labels_sharing_a_report_key_exit_2(capsys, tmp_path, ex1_model, ex1_policy):
    """The labels 1 and "1" would both be reported under the key "1"."""
    model = relabeled(ex1_model, (1, "1", "c", "d", "e"), ex1_model.actions)
    mp, pp = write_pair(tmp_path, model, ex1_policy)
    message = "state labels 1 and '1' share the report key '1'"
    code, report = run_json(capsys, "validate", mp)
    assert code == 2
    assert report["results"] == {"valid": False, "violations": [message]}
    for argv in (
        ["eval", mp, pp],
        ["solve", mp, "--mode", "dual", "--p", "0.5"],
        ["simulate", mp, pp, "--start", "c", "--n", "10"],
    ):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["error"] == {"kind": "Invalid", "message": message}


def test_solve_policy_keys_feed_eval(capsys, tmp_path, ex1_model, ex1_policy):
    """Report keys are the JSON key texts of the labels, so the policy that
    ``solve`` reports, written as a policy document, evaluates; ``--start``
    matches the same text."""
    model = relabeled(ex1_model, (True, "b", None, 4.5, "e"), (True, None))
    mp, _ = write_pair(tmp_path, model, ex1_policy)
    code, report = run_json(capsys, "solve", mp, "--mode", "unconstrained")
    assert code == 0
    policy = report["results"]["policy"]
    assert policy == {"true": {"true": 1.0}, "b": {"null": 1.0}, "null": {"true": 1.0}}
    assert sorted(report["results"]["value"]) == ["b", "null", "true"]
    labels = {"true": True, "b": "b", "null": None}
    rows = [{"state": labels[s], "dist": dist} for s, dist in policy.items()]
    pp = tmp_path / "solved.json"
    pp.write_text(json.dumps({"policy": rows}))
    code, report = run_json(capsys, "eval", mp, str(pp))
    assert code == 0
    assert report["results"]["value"] == {"true": 1.0, "b": 3.6, "null": 4.0}
    assert sorted(report["results"]["green"]["null"]) == ["b", "null", "true"]
    code, report = run_json(capsys, "simulate", mp, str(pp), "--start", "null", "--n", "50")
    assert code == 0
    assert report["results"]["analytic"]["value"] == 4.0


def test_validate_deep_document_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"states": ' + "[" * 3000 + "]" * 3000 + "}")
    code, report = run_json(capsys, "validate", str(path))
    assert code == 2
    assert report["results"]["valid"] is False
    (violation,) = report["results"]["violations"]
    assert violation.startswith("document nests too deeply")


def test_eval_deep_policy_exits_2(capsys, tmp_path, model_path):
    path = tmp_path / "deep_policy.json"
    path.write_text('{"policy": [{"state": "a", "dist": ' + "[" * 3000 + "]" * 3000 + "}]}")
    code, report = run_json(capsys, "eval", model_path, str(path))
    assert code == 2
    assert report["error"]["kind"] == "Invalid"
    assert report["error"]["message"].startswith("document nests too deeply")


# Reports of ex1 on every command, as the CLI printed them when these files
# were written.  Regenerate one with
#   PYTHONPATH=src python -m safemdp.cli ARGS > tests/data/cli_reports/NAME
REPORTS = [
    ("validate.json", 0, ["validate", "MODEL"]),
    ("eval.json", 0, ["eval", "MODEL", "POLICY"]),
    ("eval.csv", 0, ["eval", "MODEL", "POLICY", "--csv"]),
    ("solve_unconstrained.json", 0, ["solve", "MODEL", "--mode", "unconstrained"]),
    ("solve_safest.json", 0, ["solve", "MODEL", "--mode", "safest"]),
    ("solve_p-safe.json", 0, ["solve", "MODEL", "--mode", "p-safe", "--p", "0.5"]),
    ("solve_relative.json", 0, ["solve", "MODEL", "--mode", "relative", "--q", "2.0"]),
    ("solve_lp.json", 0, ["solve", "MODEL", "--mode", "lp", "--p", "0.5"]),
    ("solve_dual.json", 0, ["solve", "MODEL", "--mode", "dual", "--p", "0.5", "--oracle"]),
    ("solve_dual_infeasible.json", 5, ["solve", "MODEL", "--mode", "dual", "--p", "0.3"]),
    ("simulate.json", 0, ["simulate", "MODEL", "POLICY", "--start", "b", "--n", "4000",
                          "--seed", "9"]),
]


def without_timings_and_paths(text):
    """A JSON report as text, minus its timings and the file paths it echoes."""
    report = json.loads(text)
    del report["timings"]
    for key in ("model", "policy"):
        report["arguments"].pop(key, None)
    for digest in report["inputs"].values():
        del digest["path"]
    return json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("name,exit_code,argv", REPORTS, ids=[r[0] for r in REPORTS])
def test_report_matches_snapshot(capsys, data_dir, model_path, policy_path,
                                 name, exit_code, argv):
    paths = {"MODEL": model_path, "POLICY": policy_path}
    code, out = run(capsys, *[paths.get(arg, arg) for arg in argv])
    assert code == exit_code
    want = (data_dir / "cli_reports" / name).read_text()
    if name.endswith(".csv"):
        assert out == want
    else:
        assert without_timings_and_paths(out) == without_timings_and_paths(want)


JSON_REPORTS = [r for r in REPORTS if r[0].endswith(".json")]


@pytest.mark.parametrize("name,exit_code,argv", JSON_REPORTS, ids=[r[0] for r in JSON_REPORTS])
def test_report_layout_is_the_encoders(capsys, data_dir, model_path, policy_path,
                                       name, exit_code, argv):
    """Each report prints, byte for byte, as ``json.dumps(indent=2)`` writes it."""
    paths = {"MODEL": model_path, "POLICY": policy_path}
    _, out = run(capsys, *[paths.get(arg, arg) for arg in argv])
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    want = json.loads((data_dir / "cli_reports" / name).read_text())
    assert _indented(want) == json.dumps(want, sort_keys=True, indent=2)


JSON_LEAVES = (st.text() | st.integers() | st.floats(allow_nan=False) | st.booleans()
               | st.none())
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tree=JSON_TREES)
def test_indented_matches_encoder(tree):
    assert _indented(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_console_entry_point(model_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "safemdp.cli", "validate", model_path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["valid"]
