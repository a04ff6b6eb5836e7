"""Relative safety: a local test with a global guarantee.

Absolute p-safety bounds the probability of ever hitting the forbidden
set, which takes a full chain solve to check. Relative q-safety only
compares one-step exit masses: at each taboo state the chosen action
mix must send at most q times as much mass to the forbidden set as to
the target. That local condition implies the global bounds
S <= q T and S <= q/(1+q) everywhere.

The implication is one directional. The last section searches random
processes for policies that are absolutely safe at p = q/(1+q) yet
fail the local test, and prints what it finds; a handful of hits is
expected, not a defect.
"""

import json

import numpy as np

import safemdp as sm
from fractions import Fraction

MODEL = {
    "states": ["a", "b", "c", "d", "e"],
    "actions": ["u1", "u2"],
    "partition": {"taboo": ["a", "b", "c"], "forbidden": ["d"], "target": ["e"]},
    "transitions": [
        {"from": "a", "action": "u1", "to": "d", "p": 0.4},
        {"from": "a", "action": "u1", "to": "e", "p": 0.6},
        {"from": "a", "action": "u2", "to": "d", "p": 0.9},
        {"from": "a", "action": "u2", "to": "e", "p": 0.1},
        {"from": "b", "action": "u1", "to": "a", "p": 0.3},
        {"from": "b", "action": "u1", "to": "c", "p": 0.7},
        {"from": "b", "action": "u2", "to": "a", "p": 0.8},
        {"from": "b", "action": "u2", "to": "c", "p": 0.2},
        {"from": "c", "action": "u1", "to": "a", "p": 1.0},
        {"from": "c", "action": "u2", "to": "a", "p": 1.0},
        {"from": "d", "action": "u1", "to": "d", "p": 1.0},
        {"from": "d", "action": "u2", "to": "d", "p": 1.0},
        {"from": "e", "action": "u1", "to": "e", "p": 1.0},
        {"from": "e", "action": "u2", "to": "e", "p": 1.0},
    ],
    "rewards": [
        {"state": "a", "action": "u1", "rho": 1},
        {"state": "a", "action": "u2", "rho": 1},
        {"state": "b", "action": "u1", "rho": 2},
        {"state": "b", "action": "u2", "rho": 2},
        {"state": "c", "action": "u1", "rho": 3},
        {"state": "c", "action": "u2", "rho": 3},
    ],
}


def random_doc(rng):
    """Three taboo states, two actions, rows leaking at least 15 percent."""
    states = ["h0", "h1", "h2", "u0", "e0"]
    transitions = []
    for i in range(3):
        for act in ("x", "y"):
            row = rng.random(5)
            leak = 0.15 + 0.35 * rng.random()
            row[:3] *= (1 - leak) / row[:3].sum()
            row[3:] *= leak / row[3:].sum()
            for j, pr in enumerate(row):
                transitions.append(
                    {"from": f"h{i}", "action": act, "to": states[j], "p": float(pr)}
                )
    for absorbing in ("u0", "e0"):
        for act in ("x", "y"):
            transitions.append(
                {"from": absorbing, "action": act, "to": absorbing, "p": 1.0}
            )
    return {
        "states": states,
        "actions": ["x", "y"],
        "partition": {"taboo": states[:3], "forbidden": ["u0"], "target": ["e0"]},
        "transitions": transitions,
        "rewards": [],
    }


def main():
    model = sm.load_model(json.dumps(MODEL))
    q = 2.0
    print(f"per-state admissible mixes at q = {q}:")
    vs = sm.relative_admissible(model, q)
    for state, rows, valid, pure in zip(model.states, vs.weights, vs.valid, vs.pure_count):
        labels = []
        for vertex in rows[valid]:
            terms = [
                f"{model.actions[u]}: {w:.4g}" for u, w in enumerate(vertex) if w > 0
            ]
            labels.append("(" + ", ".join(terms) + ")")
        print(f"  {state}: {valid.sum()} vertices, {pure} pure " + " ".join(labels))
    print("  at state a only u1 passes; the boundary mix leans 8/15 toward u2")

    rep = sm.relative_vi(model, q)
    print(f"\nrelative value iteration at q = {q}: value {np.round(rep.value, 6)}")

    print("\nthe conversion p -> q = p/(1-p):")
    for p in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
        print(f"  p = {p}  ->  q = {sm.p_to_q(p)}")

    # Forward direction on random processes: the local test is never
    # optimistic about the global quantities.
    rng = np.random.default_rng(14)
    checked = 0
    worst_t = worst_level = -np.inf
    for _ in range(200):
        doc = sm.load_model(json.dumps(random_doc(rng)))
        pol = sm.pure_policy(
            doc, {s: rng.choice(doc.actions) for s in doc.partition.taboo}
        )
        inputs = sm.cost_inputs(doc, pol)
        k, l = inputs.to_forbidden, inputs.to_target
        for q_test in (0.5, 1.0, 2.0):
            if not (k <= q_test * l).all():
                continue
            s = sm.safety(doc, pol)
            t = sm.reach(doc, pol)
            checked += 1
            worst_t = max(worst_t, float((s - q_test * t).max()))
            worst_level = max(worst_level, float((s - q_test / (1 + q_test)).max()))
    print(f"\nforward implication on {checked} random (policy, q) pairs:")
    print(f"  max S - qT       = {worst_t:.3e} (never above zero)")
    print(f"  max S - q/(1+q)  = {worst_level:.3e}")

    # Converse search: absolutely safe policies that fail the local test.
    hits = []
    rng = np.random.default_rng(15)
    q_conv = 1.0
    p_conv = q_conv / (1 + q_conv)
    for trial in range(200):
        doc = sm.load_model(json.dumps(random_doc(rng)))
        pol = sm.pure_policy(
            doc, {s: rng.choice(doc.actions) for s in doc.partition.taboo}
        )
        s = sm.safety(doc, pol)
        inputs = sm.cost_inputs(doc, pol)
        locally_ok = bool((inputs.to_forbidden <= q_conv * inputs.to_target).all())
        if (s <= p_conv).all() and not locally_ok:
            hits.append((trial, float(s.max())))
    print(f"\nconverse search at q = {q_conv} (so p = {p_conv}):")
    print(f"  {len(hits)} of 200 random policies are p-safe but not q-relative-safe")
    for trial, smax in hits[:5]:
        print(f"    trial {trial}: global safety max {smax:.3f}, local test fails")
    print("  the local test is sufficient, not necessary")


if __name__ == "__main__":
    main()
