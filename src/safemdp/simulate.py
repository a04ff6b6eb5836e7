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
``mc_estimates`` computes a range of blocks of many streams in one numpy
pass and steps those trajectories together, in batches of 1, 2, 4, ...
blocks.  Once fewer than ``MC_BATCH`` are still walking, each finishes
alone on its own generator, advanced past the blocks already drawn.

Sampling rule: step t of a trajectory reads draws 2t and 2t + 1 of its
stream.  The action is the first whose running sum of the state's policy
row exceeds the first draw, the successor the first whose running sum of
the (state, action) transition row exceeds the second; a row that sums
short of a draw gives its last column.  Both loops search the same
``_support_table`` rows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import PathExplosionError
from .model import MdpModel, Policy, _check_count, _check_policy

UNIFORM_BLOCK = 16
MAX_DEPTH = 64
# Trajectories stepped together.
MC_CHUNK = 1 << 12
# The most Philox blocks per trajectory in one lockstep batch, and the number
# of trajectories still walking below which they finish one by one.
MC_BATCH = 16

# Philox4x64-10 multipliers and key increments (Random123, as in numpy).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_PHILOX_MUL = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
_PHILOX_LO, _PHILOX_HI = _PHILOX_MUL & _LOW32, _PHILOX_MUL >> np.uint64(32)
_PHILOX_W1 = np.uint64(_PHILOX_W[1])
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
    if not 0 <= _check_count(seed, "seed") < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhi(a_lo, a_hi, b: np.ndarray, out: np.ndarray, t: np.ndarray, u: np.ndarray):
    """High 64-bit words of the 128-bit products ``a * b``, written into ``out``.

    ``a = a_hi * 2**32 + a_lo`` with 32-bit halves that broadcast against
    ``b``; ``t`` and ``u`` are scratch of ``b``'s shape.  Each partial
    product of 32-bit halves fits 64 bits, and so does each sum below
    (Warren, *Hacker's Delight*, 2nd ed., §8-2).
    """
    np.bitwise_and(b, _LOW32, out=t)
    np.multiply(t, a_lo, out=u)
    u >>= _SHIFT32
    t *= a_hi
    t += u  # a_hi * b_lo plus the carry out of a_lo * b_lo
    np.right_shift(b, _SHIFT32, out=u)
    np.multiply(u, a_hi, out=out)
    u *= a_lo
    out += t >> _SHIFT32
    t &= _LOW32
    u += t  # a_lo * b_hi plus the low half of the line above
    u >>= _SHIFT32
    out += u


def _philox_blocks(seed: int, index: np.ndarray, first: int, count: int) -> np.ndarray:
    """Draws ``4 * first`` to ``4 * (first + count) - 1`` of every stream ``_stream(seed, k)``.

    Column r holds the ``4 * count`` doubles that ``_stream(seed, index[r])``
    yields from its Philox blocks ``first`` to ``first + count - 1``, row d
    being its draw ``4 * first + d``; no generator is built.  numpy bumps
    the counter before each block, so block b is Philox4x64-10 of the
    counter (b + 1, 0, 0, 0) under the key (seed, k); ``Generator.random``
    turns a word x into the double ``(x >> 11) * 2**-53``.  The two words a
    round multiplies, x0 and x2, are the rows of one array and x1 and x3
    of another, so each round is a few in-place passes over every block
    of every stream.
    """
    seed = int(np.array([seed, 0], dtype=np.uint64)[0])  # as ``_stream`` keys it
    lanes = len(index)
    # Element b * lanes + r of each row is block ``first + b`` of stream r.
    shape = (2, count * lanes)
    even, odd = np.zeros(shape, np.uint64), np.zeros(shape, np.uint64)
    key = np.empty(shape, np.uint64)
    even[0] = np.repeat(np.arange(first + 1, first + count + 1, dtype=np.uint64), lanes)
    key[1] = np.tile(np.asarray(index, dtype=np.uint64), count)
    hi, spare, t, u = (np.empty(shape, np.uint64) for _ in range(4))
    for r in range(_PHILOX_ROUNDS):
        key[0] = (seed + r * _PHILOX_W[0]) & _U64
        _mulhi(_PHILOX_LO, _PHILOX_HI, even, hi, t, u)
        np.bitwise_xor(hi[::-1], odd, out=spare)
        spare ^= key  # x0 = hi1 ^ x1 ^ k0 and x2 = hi0 ^ x3 ^ k1
        np.multiply(even, _PHILOX_MUL, out=odd[::-1])  # x1 = lo1 and x3 = lo0
        even, spare = spare, even
        key[1] += _PHILOX_W1
    words = np.empty((count, 4, lanes), np.uint64)
    for w, row in enumerate((even[0], odd[0], even[1], odd[1])):
        np.right_shift(row.reshape(count, lanes), _SHIFT11, out=words[:, w])
    return (words * (1.0 / 9007199254740992.0)).reshape(4 * count, lanes)


def _support_table(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Search rows over each row's positive entries, and those entries' columns.

    The sampling rule: a draw picks the first column whose running sum of
    the row exceeds it, or the last column if none does.  Row r of ``cum``
    holds the running sums of the positive entries of ``mass[r]`` in
    column order, then +inf; row r of ``col`` holds their columns, then
    the last column of ``mass``.  A zero entry leaves a running sum where
    it was, so the column of the first entry of ``cum[r]`` above a draw is
    the one the rule picks.  Draws lie in [0, 1), so a sum of at least 1
    is above every draw: it is stored as +inf, and the width is cut to the
    least power of two that keeps one +inf in every row.
    """
    last = mass.shape[1] - 1
    count = (mass > 0.0).sum(axis=1)
    order = np.argsort(mass <= 0.0, axis=1, kind="stable")  # positive entries first
    order = order[:, : int(count.max(initial=0)) + 1]
    cum = np.cumsum(np.take_along_axis(mass, order, axis=1), axis=1)
    beyond = np.arange(cum.shape[1]) >= count[:, None]
    cum[beyond | (cum >= 1.0)] = np.inf
    col = np.where(beyond, last, order)
    width = 1 << int((cum < np.inf).sum(axis=1).max(initial=0)).bit_length()
    pad = ((0, 0), (0, max(0, width - cum.shape[1])))
    cum = np.pad(cum[:, :width], pad, constant_values=np.inf)
    return cum, np.pad(col[:, :width], pad, constant_values=last)


def _first_above(cum: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Flat index into ``cum`` of the first entry of row ``rows[r]`` above ``x[r]``.

    Rows are non-decreasing, end in +inf and have a power-of-two width,
    so a branch-free binary search finds it in log2(width) probes.
    """
    width = cum.shape[1]
    if width == 1:
        return rows
    flat = cum.ravel()
    at = rows * width
    step = width >> 1
    while step > 1:
        at += (flat[at + (step - 1)] <= x) * step
        step >>= 1
    at += flat[at] <= x
    return at


class _Lanes:
    """Sampling tables for stepping trajectories together or one by one.

    The tables cover every state.  A state's actions and a (state, action)
    pair's successors are ``_support_table`` rows, and an action names the
    flat row ``i * n_actions + u`` of the successor and cost tables.  An
    absorbing state takes its last action at cost 0 and stays put, so an
    absorbed trajectory can keep stepping without changing its outcome or
    its total.  ``run_together`` searches the arrays, ``walk`` list copies
    of them made on its first call.
    """

    def __init__(self, model: MdpModel, policy: Policy):
        _check_policy(model, policy.matrix)
        h, m, n = model.n_taboo, model.n_actions, model.n_states
        self.h = h
        (act_cum, act_col), (succ_cum, succ) = [
            _support_table(mass)
            for mass in (policy.matrix[:h], model.transitions[:h].reshape(h * m, n))
        ]
        pad = (n - h, act_cum.shape[1])
        self.act_cum = np.vstack([act_cum, np.full(pad, np.inf)])
        act_col = np.vstack([act_col, np.full(pad, m - 1)])
        self.act_row = (act_col + np.arange(0, n * m, m)[:, None]).ravel()
        pad = ((n - h) * m, succ_cum.shape[1])
        self.succ_cum = np.vstack([succ_cum, np.full(pad, np.inf)])
        absorbed = np.broadcast_to(np.repeat(np.arange(h, n), m)[:, None], pad)
        self.succ = np.vstack([succ, absorbed]).ravel()
        self.cost = np.zeros(n * m)
        self.cost[: h * m] = model.stage_costs.ravel()

    def _step(self, state: np.ndarray, x_act: np.ndarray, x_succ: np.ndarray):
        """One step of every lane: its (state, action) rows and successor states."""
        row = self.act_row[_first_above(self.act_cum, state, x_act)]
        return row, self.succ[_first_above(self.succ_cum, row, x_succ)]

    def run_together(self, start: int, seed: int, index: np.ndarray, max_steps: int):
        """Step trajectories ``index`` together while at least ``MC_BATCH`` are walking.

        Trajectory k draws from the stream ``_stream(seed, k)`` and takes
        step t by the sampling rule on its draws 2t and 2t + 1, as ``walk``
        does, with the rewards summed from left to right.  Each batch
        computes the next Philox blocks of the trajectories still walking
        in one pass and takes two steps per block; one that is absorbed
        keeps stepping in place until the batch ends.  The first batch is
        one block and each later one doubles, up to ``MC_BATCH`` blocks, so
        no trajectory gets more blocks drawn ahead than it has used so far,
        plus one.

        Returns every trajectory's current state and total, the positions
        of those still in a taboo state, and the steps all have taken.
        """
        h = self.h
        state = np.full(len(index), start, dtype=np.intp)
        total = np.zeros(len(index))
        live = np.arange(len(index) if start < h else 0)
        t, count = 0, 1
        while len(live) >= MC_BATCH and t < max_steps:
            steps = min(2 * count, max_steps - t)
            draws = _philox_blocks(seed, index[live], t // 2, (steps + 1) // 2)
            i, acc = state[live], total[live]
            for c in range(steps):
                row, i = self._step(i, draws[2 * c], draws[2 * c + 1])
                acc += self.cost[row]
            state[live], total[live] = i, acc
            live = live[i < h]
            t += steps
            count = min(2 * count, MC_BATCH)
        return state, total, live, t

    @cached_property
    def _walk_rows(self):
        """The search rows as lists: every state's, then every (state, action) row's.

        Entry ``n_states + row`` stands for the (state, action) row ``row``:
        the columns of a state's search row name (state, action) rows, and
        those of a (state, action) row's name states.  Each row is cut after
        its first +inf, which is above every draw.  Absorbing states and
        their rows, which ``walk`` never searches, have None.
        """
        h, n = self.h, len(self.act_cum)
        m = len(self.succ_cum) // n
        cum, col = [None] * (n + n * m), [None] * (n + n * m)
        tables = (
            (0, self.act_cum[:h], self.act_row.reshape(n, -1)[:h] + n),
            (n, self.succ_cum[: h * m], self.succ.reshape(n * m, -1)[: h * m]),
        )
        for first, rows, cols in tables:
            ends = ((rows < np.inf).sum(axis=1) + 1).tolist()
            for node, (row, to, end) in enumerate(zip(rows, cols, ends), first):
                cum[node], col[node] = row[:end].tolist(), to[:end].tolist()
        return cum, col

    def walk(self, start: int, rng: np.random.Generator, max_steps: int):
        """One trajectory from ``start``, taking step t on ``rng``'s draws 2t and 2t + 1.

        Each draw moves from a state to its (state, action) row or from a
        row to the successor state, by ``bisect_right`` on the
        ``_support_table`` row.  Stops on absorption or after
        ``max_steps`` steps; returns the states visited and the rows taken.
        """
        cum, col = self._walk_rows
        h, n = self.h, len(self.act_cum)
        node, path, stop = start, [start], 2 * max_steps + 1
        while node < h and len(path) < stop:
            # An even count of draws, so the block ends on a state.
            for x in rng.random(UNIFORM_BLOCK)[: stop - len(path)].tolist():
                node = col[node][bisect_right(cum[node], x)]
                path.append(node)
                if h <= node < n:
                    break
        return path[::2], [row - n for row in path[1::2]]


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
    with no transitions.  A seed other than an integer in [0, 2^64), or a
    ``max_steps`` other than a positive integer, raises ValueError; a bool
    or a float is not an integer here.
    """
    max_steps = _check_count(max_steps, "max_steps", 1)
    i = model.state_index(start)
    lanes = _Lanes(model, policy)
    states, rows = lanes.walk(i, _stream(seed, 0), max_steps)
    end, h, nu = states[-1], model.n_taboo, model.n_forbidden
    outcome = "truncated" if end < h else "forbidden" if end < h + nu else "target"
    return Trajectory(
        states=tuple(model.states[s] for s in states),
        actions=tuple(model.actions[row % model.n_actions] for row in rows),
        rewards=tuple(lanes.cost[rows].tolist()),
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

    Trajectory k walks the stream ``_stream(seed, k)`` by the sampling
    rule.  Up to ``MC_CHUNK`` trajectories step together while at least
    ``MC_BATCH`` of them are still in a taboo state, with the draws
    computed by numpy for every stream at once, in batches that double
    from one Philox block to ``MC_BATCH`` blocks (``_Lanes.run_together``).
    The fewer left, from step 0 on if the chunk is that small, finish one
    by one (``_Lanes.walk``), each on ``_stream(seed, k)`` advanced past
    the blocks already drawn.  Both search the same rows, so the result
    equals walking each trajectory with its own generator, bit for bit.

    Truncated trajectories are excluded from the means but counted.
    Standard errors are sample standard deviations (ddof=1) over root n.
    A seed other than an integer in [0, 2^64), or an ``n`` or ``max_steps``
    other than a positive integer, raises ValueError; a bool or a float is
    not an integer here.
    """
    n = _check_count(n, "trajectory count", 1)
    max_steps = _check_count(max_steps, "max_steps", 1)
    i0 = model.state_index(start)
    lanes = _Lanes(model, policy)
    h, nu = model.n_taboo, model.n_forbidden

    _stream(seed, 0)  # rejects a bad seed even if no trajectory walks alone
    hit_u = np.zeros(n)
    totals = np.zeros(n)
    truncated = np.zeros(n, dtype=bool)

    for lo in range(0, n, MC_CHUNK):
        index = np.arange(lo, min(n, lo + MC_CHUNK))
        state, total, live, t = lanes.run_together(i0, seed, index, max_steps)
        forbidden = state < h + nu
        for r in live.tolist():
            rng = _stream(seed, lo + r)
            rng.bit_generator.advance(t // 2)  # past the blocks drawn in lockstep
            states, rows = lanes.walk(int(state[r]), rng, max_steps - t)
            if states[-1] < h:
                truncated[lo + r] = True
                continue
            forbidden[r] = states[-1] < h + nu
            acc = total[r]
            for reward in lanes.cost[rows].tolist():
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
    for more than ``node_budget`` nodes is taken.  A ``depth`` other than an
    integer in [0, ``MAX_DEPTH``], or a ``node_budget`` other than a
    nonnegative integer, raises ValueError; a bool or a float is not an
    integer here.
    """
    if not 0 <= _check_count(depth, "depth") <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [0, {MAX_DEPTH}]")
    node_budget = _check_count(node_budget, "node_budget", 0)
    i0 = model.state_index(start)
    h, nu = model.n_taboo, model.n_forbidden
    _check_policy(model, policy.matrix)
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
