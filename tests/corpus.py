"""Random-instance builders shared by the property and acceptance tests.

Every taboo row is a uniform-random distribution blended with an exit
mass of at least 0.1 spread over the forbidden and target states, so the
taboo block of every policy has row sums at most 0.9.  That makes every
policy transient by construction, which the corpus tests rely on.
``sparse_model`` is the exception: its rows sit on a 1/8 grid over at
most three columns, so closed classes and non-transient policies come up.
"""
import json
import math

import numpy as np

import safemdp as sm

# Floats at the layout switches of ``repr``, ``"%.12g"`` and orjson: signed
# zero, the least subnormal, both sides of 1e-4 and of 1e16, a value that
# rounds to 1e12 at 12 digits, the largest float and the non-finite ones.
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-5, 9.999999999999999e-05, 1e-4, 999999999999.5, 1e12,
               1e15, 9999999999999998.0, 1e16, 1.7976931348623157e308, math.inf, -math.inf,
               math.nan)


def _assemble(states, actions, h, nu, trans, rewards):
    doc = {
        "states": states,
        "actions": actions,
        "partition": {
            "taboo": states[:h],
            "forbidden": states[h : h + nu],
            "target": states[h + nu :],
        },
        "transitions": [
            {"from": states[i], "action": actions[u], "to": states[j],
             "p": float(trans[i, u, j])}
            for i in range(len(states))
            for u in range(len(actions))
            for j in range(len(states))
            if trans[i, u, j] > 0
        ],
        "rewards": [
            {"state": states[i], "action": actions[u], "rho": float(rewards[u, i])}
            for u in range(len(actions))
            for i in range(h)
        ],
    }
    return sm.load_model(json.dumps(doc))


def _fill(rng, h, nu, ne, m, min_exit):
    n = h + nu + ne
    states = [f"h{i}" for i in range(h)] + [f"u{i}" for i in range(nu)] + [
        f"e{i}" for i in range(ne)
    ]
    actions = [f"a{k}" for k in range(m)]
    trans = np.zeros((n, m, n))
    for i in range(h):
        for u in range(m):
            w = rng.random(n)
            w /= w.sum()
            eps = min_exit + rng.random() * 0.3
            exit_w = rng.random(nu + ne)
            exit_w /= exit_w.sum()
            row = (1 - eps) * w
            row[h:] += eps * exit_w
            trans[i, u] = row / row.sum()
    for j in range(h, n):
        trans[j, :, j] = 1.0
    rewards = np.zeros((m, n))
    rewards[:, :h] = rng.uniform(0.0, 5.0, size=(m, h))
    return _assemble(states, actions, h, nu, trans, rewards)


def random_model(rng, max_h=4, max_u=1, max_actions=3, min_exit=0.1):
    """Instance with small taboo and action sets, for the solver corpus."""
    h = int(rng.integers(2, max_h + 1))
    nu = int(rng.integers(0, max_u + 1))
    ne = int(rng.integers(1, 3))
    m = int(rng.integers(2, max_actions + 1))
    return _fill(rng, h, nu, ne, m, min_exit)


def random_model_small(rng, max_actions=3):
    """Instance with at most 6 states, for the chain-identity corpus."""
    h = int(rng.integers(1, 5))
    nu = int(rng.integers(0, min(2, 6 - h - 1) + 1))
    ne = int(rng.integers(1, 6 - h - nu + 1))
    m = int(rng.integers(1, max_actions + 1))
    return _fill(rng, h, nu, ne, m, 0.1)


def sparse_model(rng):
    """h <= 4 taboo states, one forbidden, one target, m <= 2, 1/8-grid rows."""
    h, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    n = h + 2
    trans = np.zeros((n, m, n))
    for i in range(h):
        for u in range(m):
            cols = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            np.add.at(trans[i, u], rng.choice(cols, size=8), 0.125)
    for j in range(h, n):
        trans[j, :, j] = 1.0
    rewards = np.zeros((m, n))
    rewards[:, :h] = rng.integers(0, 5, size=(m, h))
    states = [f"h{i}" for i in range(h)] + ["u0", "e0"]
    return _assemble(states, [f"a{k}" for k in range(m)], h, 1, trans, rewards)


def corridor_model(rng, h, hazard):
    """Slow-mixing birth-death corridor, u0 left of h0 and e0 right of the end.

    Action ``fair`` steps left or right with equal mass at a cost in
    [0.5, 1]; ``push`` steps right with 0.55-0.65 of the mass at a cost
    in [1.5, 3].  Both send ``hazard`` straight to u0.
    """
    n = h + 2
    right = np.stack([np.full(h, 0.5), 0.5 + rng.uniform(0.05, 0.15, h)], axis=1)
    trans = np.zeros((n, 2, n))
    for i in range(h):
        for u in range(2):
            trans[i, u, h] += hazard
            trans[i, u, i - 1 if i else h] += (1.0 - hazard) * (1.0 - right[i, u])
            trans[i, u, i + 1 if i < h - 1 else h + 1] += (1.0 - hazard) * right[i, u]
    trans[h:, :, h:] = np.eye(2)[:, None, :]
    rewards = np.zeros((2, n))
    rewards[0, :h] = rng.uniform(0.5, 1.0, h)
    rewards[1, :h] = rng.uniform(1.5, 3.0, h)
    states = [f"h{i}" for i in range(h)] + ["u0", "e0"]
    return _assemble(states, ["fair", "push"], h, 1, trans, rewards)


def random_policy(rng, model):
    rows = rng.random((model.n_states, model.n_actions))
    rows /= rows.sum(axis=1, keepdims=True)
    return sm.make_policy(model, rows)


def random_initial(rng, model):
    mu = rng.random(model.n_states)
    return mu / mu.sum()


def feasible_p(rng, model):
    """A safety level above the best attainable, so some policy qualifies."""
    s_star, _ = sm.safest_policy(model)
    smax = float(s_star.max()) if s_star.size else 0.0
    frac = rng.uniform(0.05, 0.95)
    return min(smax + frac * (1.0 - smax), 0.999)


def relabeled(model, states, actions):
    """``model`` with its state and action labels replaced in order."""
    names = dict(zip(model.states, states))
    part = model.partition
    return sm.MdpModel(
        states=states,
        actions=actions,
        partition=sm.StatePartition(
            *([names[s] for s in group] for group in (part.taboo, part.forbidden, part.target))
        ),
        transitions=model.transitions,
        rewards=model.rewards,
    )
