"""Seeded instance generators for the layered benchmark, plus the exact
reference answers the checks compare against.

Each generator returns an :class:`Instance`: the model document text the
program parses, the level p, and reference numbers computed here with
plain numpy (policy iteration with dense solves), independent of the
package under test.  Instance ``i`` of a workload is drawn from
``numpy.random.default_rng([seed, i])``, so the same seed always gives
the same instances, whatever the pool size.

Why each workload exists, and which layers it loads, is written next to
its generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

# Per-step hazard into the forbidden state of corridor instance i is
# HAZARDS[i % 4].  Hazard 0 is the classical gambler's ruin.
HAZARDS = (0.0, 0.001, 0.002, 0.005)


@dataclass(frozen=True)
class Shape:
    """Size knobs of one workload: the instance and its oracle calls."""

    taboo: int
    mc_trajectories: int
    path_depth: int


@dataclass(frozen=True)
class Instance:
    """One generated problem with the set-up's exact reference answers.

    ``transitions`` and ``rewards`` are the generated arrays the document
    encodes, in canonical state order.  ``policy`` is the exact
    unconstrained optimum (pure, one action index
    per taboo state); ``value`` and ``safety`` are its exact cost and
    forbidden-absorption probability; ``min_safety`` is the exact
    coordinate-wise minimal safety over all policies.  ``hazard`` is set
    on corridor instances only.
    """

    workload: str
    index: int
    doc: str
    actions: tuple[str, ...]
    p: float
    start: int
    mc_trajectories: int
    path_depth: int
    transitions: np.ndarray
    rewards: np.ndarray
    policy: np.ndarray
    value: np.ndarray
    safety: np.ndarray
    min_safety: np.ndarray
    hazard: float | None = None


def _document(trans: np.ndarray, rewards: np.ndarray, h: int, nu: int, actions):
    """Model document text for a tensor in canonical (taboo, U, E) order."""
    n = trans.shape[0]
    states = [f"h{i}" for i in range(h)] + [f"u{i}" for i in range(nu)] + [
        f"e{i}" for i in range(n - h - nu)
    ]
    ii, uu, jj = np.nonzero(trans)
    doc = {
        "states": states,
        "actions": list(actions),
        "partition": {
            "taboo": states[:h],
            "forbidden": states[h : h + nu],
            "target": states[h + nu :],
        },
        "transitions": [
            {"from": states[i], "action": actions[u], "to": states[j],
             "p": float(trans[i, u, j])}
            for i, u, j in zip(ii.tolist(), uu.tolist(), jj.tolist())
        ],
        "rewards": [
            {"state": states[i], "action": actions[u], "rho": float(rewards[u, i])}
            for u in range(len(actions))
            for i in range(h)
            if rewards[u, i] != 0.0
        ],
    }
    return json.dumps(doc)


def _solve_policy(trans, h, nu, pick, stage):
    """Exact (value, safety) of a pure policy: dense solves of (I - Q) x = b."""
    rows = np.arange(h)
    P = trans[rows, pick]
    A = np.eye(h) - P[:, :h]
    to_forbidden = P[:, h : h + nu].sum(axis=1)
    x = np.linalg.solve(A, np.column_stack([stage[rows, pick], to_forbidden]))
    return x[:, 0], x[:, 1]


def _policy_iteration(trans, h, stage):
    """Howard's policy iteration for min expected stage cost until exit.

    Every policy of the generated models leaves the taboo set with
    probability 1, so each evaluation is a regular solve.  A state
    switches action only on an improvement above 1e-12, which stops
    cycling between tied actions.
    """
    PH = trans[:h, :, :h]
    pick = np.zeros(h, dtype=int)
    rows = np.arange(h)
    for _ in range(10_000):
        v = np.linalg.solve(np.eye(h) - PH[rows, pick], stage[rows, pick])
        q = stage + PH @ v
        best = q.argmin(axis=1)
        better = q[rows, best] < q[rows, pick] - 1e-12
        if not better.any():
            return pick
        pick = np.where(better, best, pick)
    raise RuntimeError("policy iteration did not settle")


def _reference(workload, index, trans, rewards, h, nu, shape, actions, start,
               hazard=None):
    """Attach exact answers and the binding level p to a generated model.

    p lies midway between the largest minimal safety and the largest
    safety of the unconstrained optimum, so the constraint binds while a
    feasible policy exists.
    """
    cost = rewards[:, :h].T
    to_forbidden = trans[:h, :, h : h + nu].sum(axis=2)
    pick = _policy_iteration(trans, h, cost)
    value, safety = _solve_policy(trans, h, nu, pick, cost)
    _, min_safety = _solve_policy(
        trans, h, nu, _policy_iteration(trans, h, to_forbidden), cost
    )
    p = 0.5 * (float(min_safety.max()) + float(safety.max()))
    return Instance(
        workload=workload,
        index=index,
        doc=_document(trans, rewards, h, nu, actions),
        actions=tuple(actions),
        p=p,
        start=start,
        mc_trajectories=shape.mc_trajectories,
        path_depth=shape.path_depth,
        transitions=trans,
        rewards=rewards,
        policy=pick,
        value=value,
        safety=safety,
        min_safety=min_safety,
        hazard=hazard,
    )


def _random_dense(rng, h, m, nu, ne, min_exit):
    """Dense rows as in ``tests/corpus.py``: at least ``min_exit`` exit mass."""
    n = h + nu + ne
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
    return trans, rewards


DENSE = Shape(taboo=100, mc_trajectories=8_000, path_depth=2)


def dense(seed: int, index: int, shape: Shape = DENSE) -> Instance:
    """Random dense model: 100 taboo states, 3 actions, 1 forbidden, 2 target.

    Why: the document layer and the simplex dominate, while the sweeps
    stay idle (every row sends >= 0.1 mass out, so value iteration
    settles in about 70 sweeps).  Each document is about 2.3 MB of JSON
    with one entry per nonzero of a dense 100x3x103 tensor.

    Loads: ``model.load``/``model.serialize`` (``solve_s_p50``,
    ``report_s_p50``), ``simplex.solve`` on a 300x101 program, Monte
    Carlo throughput on short trajectories, ``cli.eval``.  Predicted
    unchanged by sweep-kernel work.
    """
    rng = np.random.default_rng([seed, index])
    m = 3
    trans, rewards = _random_dense(rng, shape.taboo, m, 1, 2, 0.1)
    return _reference("dense", index, trans, rewards, shape.taboo, 1, shape,
                      [f"a{k}" for k in range(m)], start=0)


CORRIDOR = Shape(taboo=100, mc_trajectories=600, path_depth=16)


def corridor(seed: int, index: int, shape: Shape = CORRIDOR) -> Instance:
    """Sparse slow-mixing birth-death corridor with 100 taboo states.

    The forbidden state sits left of h0 and the target right of the last
    taboo state.  Action ``fair`` steps left or right with equal mass at
    a cost in [0.5, 1]; action ``push`` steps right with 0.55-0.65 of the
    mass at a cost in [1.5, 3].  Both also send the instance's hazard
    straight to the forbidden state; the hazard cycles over
    ``HAZARDS`` with the instance index.

    Why: sweeps converge slowly (about 8k per solve), so value
    iteration, the safest policy, dual ascent and its inner solves
    dominate, trajectories run for hundreds of steps and the depth-16
    path tree is deep and narrow.  Document I/O is negligible (about
    0.06 MB).  (200 taboo states take 2-5 s an instance, so a run holds
    only two or three rounds of the four hazards and its medians sit on
    the boundary between hazard classes; 100 states fit about seven.)  The hazard-0 instances are the gambler's ruin, whose
    safety has a closed form; they are transient, but the package's
    power-iteration transience test rejects them (ROADMAP direction 1),
    so they fail today in ``evaluate``, ``dual_ascent`` and ``cli eval``
    and show as a quarter of ``failed``.  They are kept on purpose.

    Loads: ``bellman.vi``/``bellman.safest``, ``constrained.dual``,
    ``simplex.solve`` on a 200x101 program, ``simulate.mc`` steps and
    ``simulate.paths`` nodes, ``cli.eval`` (a 10k-entry Green matrix).
    """
    rng = np.random.default_rng([seed, index])
    h = shape.taboo
    hazard = HAZARDS[index % len(HAZARDS)]
    n = h + 2
    forbidden, target = h, h + 1
    right = np.stack([np.full(h, 0.5), 0.5 + rng.uniform(0.05, 0.15, h)], axis=1)
    trans = np.zeros((n, 2, n))
    for i in range(h):
        left_to = forbidden if i == 0 else i - 1
        right_to = target if i == h - 1 else i + 1
        for u in range(2):
            trans[i, u, forbidden] += hazard
            trans[i, u, left_to] += (1.0 - hazard) * (1.0 - right[i, u])
            trans[i, u, right_to] += (1.0 - hazard) * right[i, u]
    trans[forbidden, :, forbidden] = 1.0
    trans[target, :, target] = 1.0
    rewards = np.zeros((2, n))
    rewards[0, :h] = rng.uniform(0.5, 1.0, h)
    rewards[1, :h] = rng.uniform(1.5, 3.0, h)
    return _reference("corridor", index, trans, rewards, h, 1, shape,
                      ["fair", "push"], start=h // 10, hazard=hazard)


ENUM = Shape(taboo=7, mc_trajectories=8_000, path_depth=4)


def enum(seed: int, index: int, shape: Shape = ENUM) -> Instance:
    """Small dense model: 7 taboo states, 3 actions, so 3^7 = 2187 pure policies.

    Why: the exact-evaluation core carries thousands of tiny 7x7
    ``chain_quantities`` calls through ``brute_force_constrained`` and
    ``constrained_vi_pure`` (``solve --mode p-safe``), where the other
    workloads make a few large ones.  (8 taboo states, 6561 policies,
    take 6-10 s an instance, too few per run for a steady median.)
    Dual ascent takes milliseconds when the unconstrained optimum meets
    the summed bound, sum(S) <= p |H|, and runs all 2000 subgradient
    steps (2-3 s) when it does not; :func:`pool` fixes the mix of the
    two kinds.

    Loads: ``simulate.brute``, ``constrained.pvi``, ``evaluate``,
    ``constrained.dual`` and per-trajectory Monte Carlo set-up.  Document
    I/O, the simplex and value iteration take a few ms each and are
    predicted unchanged by work on them.
    """
    rng = np.random.default_rng([seed, index])
    m = 3
    trans, rewards = _random_dense(rng, shape.taboo, m, 1, 2, 0.1)
    return _reference("enum", index, trans, rewards, shape.taboo, 1, shape,
                      [f"a{k}" for k in range(m)], start=0)


GENERATORS = {"dense": dense, "corridor": corridor, "enum": enum}
SHAPES = {"dense": DENSE, "corridor": CORRIDOR, "enum": ENUM}
# The run checks the clock only after whole rounds of a pool, so every
# run has the same mix: each corridor hazard once, and one enum instance
# binding in sum to three binding only at the worst state.
ROUND = {"dense": 1, "corridor": len(HAZARDS), "enum": 4}


def binds_in_sum(inst: Instance) -> bool:
    """True when the unconstrained optimum violates the summed bound p |H|."""
    return float(inst.safety.sum()) > inst.p * len(inst.safety)


def pool(workload: str, seed: int, size: int) -> list[Instance]:
    """The first ``size`` instances of a workload for ``seed``.

    For ``enum``, slot k of the pool takes the next instance (in index
    order) that binds in sum when k is a multiple of 4 and the next one
    that does not otherwise, so the share of each kind (about 1 in 5 of
    random draws bind in sum) is the same in every run.
    """
    gen = GENERATORS[workload]
    if workload != "enum":
        return [gen(seed, i) for i in range(size)]
    kinds: dict[bool, list[Instance]] = {True: [], False: []}
    out = []
    index = 0
    for k in range(size):
        want = k % ROUND["enum"] == 0
        while not kinds[want]:
            inst = gen(seed, index)
            index += 1
            kinds[binds_in_sum(inst)].append(inst)
        out.append(kinds[want].pop(0))
    return out


# Taboo-state count of the small warm-up instance run at set-up.
WARMUP_TABOO = {"dense": 10, "corridor": 20, "enum": 4}


def warmup(workload: str, seed: int) -> Instance:
    """A small instance of the workload for set-up to run through every step.

    It is the first small instance (from index 1) that does not bind in
    sum, so dual ascent settles at once and set-up time stays steady.
    """
    shape = replace(SHAPES[workload], taboo=WARMUP_TABOO[workload],
                    mc_trajectories=200)
    gen = GENERATORS[workload]
    for index in range(1, 1000):
        inst = gen(seed, index, shape)
        if not binds_in_sum(inst):
            return inst
    raise RuntimeError(f"no {workload} warm-up instance for seed {seed}")


def gamblers_ruin(transitions: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Closed-form ruin probability of a hazard-free corridor under a pure policy.

    With right-step mass p_k and left-step mass q_k at taboo position
    k = 1..N (forbidden at 0, target at N + 1), the probability of
    reaching 0 first from x is sum_{j>=x} r_j / sum_{j>=0} r_j with
    r_0 = 1 and r_j = prod_{k<=j} q_k / p_k.  ``transitions`` is the
    model tensor in canonical order (taboo, forbidden, target).
    """
    h = transitions.shape[0] - 2
    rows = np.arange(h)
    trans = transitions[rows, pick]
    right = np.empty(h)
    right[:-1] = trans[rows[:-1], rows[:-1] + 1]
    right[-1] = trans[h - 1, -1]
    ratio = (1.0 - right) / right
    r = np.concatenate([[1.0], np.cumprod(ratio)])
    tail = np.cumsum(r[::-1])[::-1]
    return tail[1:] / tail[0]
