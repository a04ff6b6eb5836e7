"""Trajectory oracles: Monte Carlo simulation and exhaustive path bounds.

A counter-based Monte Carlo simulator and a finite-depth path enumerator
with rigorous bounds stay independent of the analytic solvers, so the
two can be checked against each other.  The enumerator expands the path
tree level by level over arrays, one child per (action, successor) pair
and no merging of paths by state, and checks its node budget before each
level is built.  Both read the policy and the model only: this module
imports no solver.

Randomness: each trajectory owns a Philox4x64-10 stream keyed by
(master seed, trajectory index), exactly the stream of
``np.random.Generator(np.random.Philox(key=[seed, index]))``.  Estimates
are therefore bit-identical across reruns and do not depend on the order
in which trajectories are walked.  Philox is counter-based (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), so
``mc_estimates`` computes the first block of every stream in one numpy
pass instead of building a generator per trajectory.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .exceptions import PathExplosionError
from .model import MdpModel, Policy

UNIFORM_BLOCK = 16
MAX_DEPTH = 64
# Trajectories stepped together through their first uniform block.
MC_CHUNK = 1 << 12

# Philox4x64-10 multipliers and key increments (Random123, as in numpy).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


@dataclass(frozen=True)
class Trajectory:
    """One realized path: visited states, chosen actions, accrued rewards.

    ``states`` includes the start and, unless truncated, ends at the
    absorbing state.  ``actions`` and ``rewards`` have one entry per
    transition taken.  ``absorbed_in`` is "forbidden", "target" or
    "truncated".
    """

    states: tuple
    actions: tuple
    rewards: tuple
    absorbed_in: str


class McEstimate(NamedTuple):
    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimates of safety, reach and value from one start state."""

    s_hat: McEstimate
    t_hat: McEstimate
    v_hat: McEstimate
    truncated: int
    n: int


@dataclass(frozen=True)
class PathBounds:
    """Exact bounds from expanding every support path to a fixed depth.

    ``s_lo <= S <= s_hi`` and ``v_lo <= V`` always.
    ``mass_remaining`` is the probability still in taboo states at the
    depth cutoff.
    """

    s_lo: float
    s_hi: float
    v_lo: float
    mass_remaining: float
    nodes: int


def _stream(seed: int, index: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if not float(seed).is_integer():
        raise ValueError(f"seed must be an integer, got {seed}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * b``."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * b_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, np.uint64(a) * b


def _philox_block(seed: int, index: np.ndarray, block: int) -> np.ndarray:
    """Draws ``4 * block`` to ``4 * block + 3`` of every stream ``_stream(seed, k)``.

    Row r holds the four doubles that ``_stream(seed, index[r])`` yields
    from its ``block``-th 4-word Philox block, computed without a
    generator.  numpy bumps the counter before each block, so block b is
    Philox4x64-10 of the counter (b + 1, 0, 0, 0) under the key (seed, k);
    ``Generator.random`` turns a word x into the double ``(x >> 11) * 2**-53``.
    """
    seed = int(np.array([seed, 0], dtype=np.uint64)[0])  # as ``_stream`` keys it
    k1 = np.asarray(index, dtype=np.uint64)
    x0 = np.full(len(k1), block + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros_like(x0)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _U64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k1 = k1 + np.uint64(_PHILOX_W[1])
    words = np.stack((x0, x1, x2, x3), axis=1)
    words >>= _SHIFT11
    return words * (1.0 / 9007199254740992.0)


def _bisect_right(table: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``bisect_right(table[rows[r]], x[r])`` for every lane r, probe for probe."""
    width = table.shape[1]
    lo = np.zeros(len(rows), dtype=np.intp)
    hi = np.full(len(rows), width, dtype=np.intp)
    for _ in range(width.bit_length()):
        mid = (lo + hi) >> 1
        open_ = lo < hi
        below = x < table[rows, np.minimum(mid, width - 1)]
        hi = np.where(open_ & below, mid, hi)
        lo = np.where(open_ & ~below, mid + 1, lo)
    return lo


def _sampling_tables(model: MdpModel, policy: Policy):
    """Cumulative action and successor rows as plain lists of floats for bisect."""
    h = model.n_taboo
    act = [list(accumulate(row)) for row in policy.matrix[:h].tolist()]
    trans = [
        [list(accumulate(row)) for row in rows]
        for rows in model.transitions[:h].tolist()
    ]
    return act, trans


class _Walker:
    """Shared immutable tables plus the per-trajectory sampling loop."""

    def __init__(self, model: MdpModel, policy: Policy):
        if policy.matrix.shape != (model.n_states, model.n_actions):
            raise ValueError("policy shape does not match the model")
        self.h = model.n_taboo
        self.nu = model.n_forbidden
        self.n_actions = model.n_actions
        self.act_cum, self.trans_cum = _sampling_tables(model, policy)
        # The same tables as arrays, for stepping many trajectories at once.
        m, n_states = model.n_actions, model.n_states
        self.act_table = np.array(self.act_cum).reshape(self.h, m)
        self.trans_table = np.array(self.trans_cum).reshape(self.h * m, n_states)
        self.reward_table = model.stage_costs
        self.rewards = self.reward_table.tolist()

    def run(self, start: int, rng: np.random.Generator, max_steps: int):
        """Walk until absorption; returns (path, actions, rewards, outcome)."""
        states = [start]
        actions: list[int] = []
        rewards: list[float] = []
        i = start
        if i >= self.h:
            return states, actions, rewards, self._outcome(i)
        block: list[float] = []
        cursor = 0
        for _ in range(max_steps):
            if cursor + 2 > len(block):
                block = rng.random(UNIFORM_BLOCK).tolist()
                cursor = 0
            u = bisect_right(self.act_cum[i], block[cursor])
            if u >= self.n_actions:
                u = self.n_actions - 1
            row = self.trans_cum[i][u]
            j = bisect_right(row, block[cursor + 1])
            if j >= len(row):
                j = len(row) - 1
            cursor += 2
            actions.append(u)
            rewards.append(self.rewards[i][u])
            states.append(j)
            if j >= self.h:
                return states, actions, rewards, self._outcome(j)
            i = j
        return states, actions, rewards, "truncated"

    def run_first_block(self, start: int, seed: int, index: np.ndarray, max_steps: int):
        """Step trajectories ``index`` together through their first block of draws.

        Trajectory k draws from the stream ``_stream(seed, k)``; its first
        ``UNIFORM_BLOCK`` values are computed one 4-word Philox block at a
        time, and only for the trajectories still walking.  Each step
        follows ``run`` exactly: same draws, same bisection, same clamps.
        Returns every trajectory's current state and its rewards summed
        from left to right; a trajectory still in a taboo state has taken
        ``min(max_steps, UNIFORM_BLOCK // 2)`` steps.
        """
        state = np.full(len(index), start, dtype=np.intp)
        total = np.zeros(len(index))
        live = np.arange(len(index) if start < self.h else 0)
        for t in range(min(max_steps, UNIFORM_BLOCK // 2)):
            col = 2 * (t % 2)
            if col == 0:
                draws = _philox_block(seed, index[live], t // 2)
            i = state[live]
            u = _bisect_right(self.act_table, i, draws[:, col])
            u = np.minimum(u, self.n_actions - 1)
            row = i * self.n_actions + u
            j = _bisect_right(self.trans_table, row, draws[:, col + 1])
            j = np.minimum(j, self.trans_table.shape[1] - 1)
            total[live] += self.reward_table[i, u]
            state[live] = j
            stay = j < self.h
            live, draws = live[stay], draws[stay]
        return state, total

    def _outcome(self, j: int) -> str:
        return "forbidden" if j < self.h + self.nu else "target"


def simulate(
    model: MdpModel,
    policy: Policy,
    start,
    seed: int,
    max_steps: int = 10**5,
) -> Trajectory:
    """Sample one trajectory from ``start`` under the policy.

    Deterministic given ``seed`` (the trajectory uses stream index 0).
    A start already in a forbidden or target state returns immediately
    with no transitions.  A seed other than an integer in [0, 2^64) raises ValueError.
    """
    i = model.state_index(start)
    walker = _Walker(model, policy)
    states, actions, rewards, outcome = walker.run(i, _stream(seed, 0), max_steps)
    return Trajectory(
        states=tuple(model.states[s] for s in states),
        actions=tuple(model.actions[u] for u in actions),
        rewards=tuple(float(r) for r in rewards),
        absorbed_in=outcome,
    )


def mc_estimates(
    model: MdpModel,
    policy: Policy,
    start,
    n: int,
    seed: int,
    max_steps: int = 10**5,
) -> McReport:
    """Monte Carlo safety, reach and value estimates from one start state.

    Trajectory k walks the stream ``_stream(seed, k)``.  All trajectories
    take the steps of their first ``UNIFORM_BLOCK`` draws together, with
    the draws computed by numpy for every stream at once; the few still
    in a taboo state then finish one by one, their streams resumed after
    those draws.  The result equals walking each trajectory with its own
    generator, bit for bit.

    Truncated trajectories are excluded from the means but counted.
    Standard errors are sample standard deviations (ddof=1) over root n.
    A non-integral seed or ``n``, a seed outside [0, 2^64) or n < 1 raises ValueError.
    """
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"trajectory count must be a positive integer, got {n}")
    n = int(n)
    i0 = model.state_index(start)
    walker = _Walker(model, policy)
    h = walker.h
    resume_steps = max_steps - UNIFORM_BLOCK // 2

    hit_u = np.zeros(n)
    totals = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)
    # One generator for every resumed stream: its state is set to the key
    # (seed, k) with the first four blocks (counters 1-4) already spent.
    rng = _stream(seed, 0)
    bit_gen = rng.bit_generator
    resumed = bit_gen.state
    resumed["state"]["counter"][0] = UNIFORM_BLOCK // 4
    key = resumed["state"]["key"]

    for lo in range(0, n, MC_CHUNK):
        index = np.arange(lo, min(n, lo + MC_CHUNK))
        state, total = walker.run_first_block(i0, seed, index, max_steps)
        forbidden = state < h + walker.nu
        for r in np.flatnonzero(state < h):
            k = lo + int(r)
            if resume_steps <= 0:
                truncated[k] = True
                continue
            key[1] = k
            bit_gen.state = resumed
            _, _, rewards, outcome = walker.run(int(state[r]), rng, resume_steps)
            if outcome == "truncated":
                truncated[k] = True
                continue
            forbidden[r] = outcome == "forbidden"
            acc = total[r]
            for reward in rewards:
                acc += reward
            total[r] = acc
        hit_u[lo : lo + len(index)] = forbidden
        totals[lo : lo + len(index)] = total
    hit_e = 1.0 - hit_u

    keep = ~truncated
    kept = int(keep.sum())

    def estimate(x: np.ndarray) -> McEstimate:
        if kept == 0:
            return McEstimate(mean=float("nan"), std_error=float("nan"), n=0)
        vals = x[keep]
        se = float(np.std(vals, ddof=1) / np.sqrt(kept)) if kept > 1 else float("nan")
        return McEstimate(mean=float(np.mean(vals)), std_error=se, n=kept)

    return McReport(
        s_hat=estimate(hit_u),
        t_hat=estimate(hit_e),
        v_hat=estimate(totals),
        truncated=int(truncated.sum()),
        n=n,
    )


def _path_tables(model: MdpModel, policy: Policy):
    """Per-taboo-state tables of the path tree under ``policy``.

    Returns ``forbidden[i]``, the mass one step from i moves into
    forbidden states; ``cost[i]``, the expected stage cost at i; and the
    taboo edges as CSR rows: ``succ[indptr[i]:indptr[i + 1]]`` and the
    same slice of ``weight`` hold one entry per (action, successor) pair
    of i with positive policy and transition probability, so two actions
    that reach the same state stay two children.  All three come from
    the model view.
    """
    h = model.n_taboo
    pi = policy.matrix[:h]
    forbidden = (pi * model.forbidden_exit).sum(axis=1)
    cost = (pi * model.stage_costs).sum(axis=1)
    taboo = model.taboo_block
    i, u, j = np.nonzero((pi[:, :, None] != 0.0) & (taboo != 0.0))
    indptr = np.zeros(h + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=h), out=indptr[1:])
    return forbidden, cost, indptr, j, pi[i, u] * taboo[i, u, j]


def exhaustive_paths(
    model: MdpModel,
    policy: Policy,
    start,
    depth: int,
    node_budget: int = 10**6,
) -> PathBounds:
    """Expand every positive-probability path to ``depth`` transitions.

    Yields exact absorption bounds: the mass absorbed in forbidden
    states so far, plus the unresolved taboo mass as the gap to the
    upper bound.  Rewards accumulate along each expanded edge, giving a
    lower bound on the value.

    The tree is expanded one level at a time: a level holds the state
    and path mass of every taboo node at that depth, and each node gets
    one child per (action, successor) pair with positive probability,
    so paths are never merged by state.  ``nodes`` counts every taboo
    node, the cutoff leaves included.  The budget is checked before a
    level is built, so ``PathExplosionError`` comes before the memory
    for more than ``node_budget`` nodes is taken.
    """
    if isinstance(depth, bool) or not isinstance(depth, numbers.Integral):
        raise ValueError(f"depth must be an integer, got {depth!r}")
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [0, {MAX_DEPTH}]")
    i0 = model.state_index(start)
    h, nu = model.n_taboo, model.n_forbidden
    if policy.matrix.shape != (model.n_states, model.n_actions):
        raise ValueError("policy shape does not match the model")
    if i0 >= h:
        s_lo = 1.0 if i0 < h + nu else 0.0
        return PathBounds(s_lo, s_lo, 0.0, 0.0, 0)

    def explode(t):
        return PathExplosionError(f"path tree exceeded {node_budget} nodes at depth {t}")

    nodes = 1
    if nodes > node_budget:
        raise explode(0)
    forbidden, cost, indptr, succ, weight = _path_tables(model, policy)
    deg = np.diff(indptr)
    state, mass = np.array([i0]), np.ones(1)
    s_lo = v_lo = 0.0
    for t in range(depth):
        s_lo += float(mass @ forbidden[state])
        v_lo += float(mass @ cost[state])
        counts = deg[state]
        width = int(counts.sum())
        if nodes + width > node_budget:
            raise explode(t + 1)
        nodes += width
        first = indptr[state] - (np.cumsum(counts) - counts)
        edge = np.repeat(first, counts) + np.arange(width)
        state = succ[edge]
        mass = np.repeat(mass, counts) * weight[edge]
    mass_remaining = float(mass.sum())
    return PathBounds(
        s_lo=s_lo,
        s_hi=s_lo + mass_remaining,
        v_lo=v_lo,
        mass_remaining=mass_remaining,
        nodes=nodes,
    )
