"""Trajectory sampling, Monte Carlo estimates, path expansion, enumeration oracle."""
import importlib
import itertools
import json
import sys
import tracemalloc
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import safemdp as sm
from corpus import random_model_small, random_policy
from safemdp.constrained import ADMISSIBLE_TOL
from safemdp.evaluate import _exact

simulate_module = importlib.import_module("safemdp.simulate")

GEOMETRIC_DOC = json.dumps(
    {
        "states": ["h0", "e0"],
        "actions": ["a0"],
        "partition": {"taboo": ["h0"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h0", "p": 0.5},
            {"from": "h0", "action": "a0", "to": "e0", "p": 0.5},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
        ],
        "rewards": [{"state": "h0", "action": "a0", "rho": 1.0}],
    }
)


def test_simulate_forced_first_step(ex1_model, ex1_policy):
    for seed in range(5):
        tr = sm.simulate(ex1_model, ex1_policy, "c", seed=seed)
        assert tr.states[0] == "c"
        assert tr.states[1] == "a"
        assert tr.rewards[0] == 3.0
        assert tr.absorbed_in in ("forbidden", "target")
        assert tr.states[-1] in ("d", "e")


def test_simulate_absorbed_start(ex1_model, ex1_policy):
    tr = sm.simulate(ex1_model, ex1_policy, "e", seed=0)
    assert tr.states == ("e",)
    assert tr.actions == ()
    assert tr.absorbed_in == "target"


def test_simulate_deterministic_per_seed(ex1_model, ex1_policy):
    a = sm.simulate(ex1_model, ex1_policy, "b", seed=42)
    b = sm.simulate(ex1_model, ex1_policy, "b", seed=42)
    assert a == b
    c = sm.simulate(ex1_model, ex1_policy, "b", seed=43)
    assert isinstance(c, sm.Trajectory)


def test_simulate_truncation(ex1_model, ex1_policy):
    tr = sm.simulate(ex1_model, ex1_policy, "c", seed=1, max_steps=1)
    assert tr.absorbed_in == "truncated"
    assert tr.states == ("c", "a")


def test_transitions_respect_support(ex1_model, ex1_policy):
    tr = sm.simulate(ex1_model, ex1_policy, "b", seed=9)
    allowed = {("b", "a"), ("b", "c"), ("c", "a"), ("a", "d"), ("a", "e")}
    for src, dst in zip(tr.states, tr.states[1:]):
        assert (src, dst) in allowed


def test_mc_estimates_golden(ex1_model, ex1_policy):
    mc = sm.mc_estimates(ex1_model, ex1_policy, "b", n=20_000, seed=11)
    assert mc.truncated == 0
    assert abs(mc.s_hat.mean - 0.4) <= 3 * mc.s_hat.std_error
    assert abs(mc.t_hat.mean - 0.6) <= 3 * mc.t_hat.std_error
    assert abs(mc.v_hat.mean - 3.6) <= 3 * mc.v_hat.std_error
    assert mc.s_hat.n == 20_000


def test_mc_estimates_bit_identical_rerun(ex1_model, ex1_policy):
    a = sm.mc_estimates(ex1_model, ex1_policy, "b", n=5_000, seed=3)
    b = sm.mc_estimates(ex1_model, ex1_policy, "b", n=5_000, seed=3)
    assert a == b


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_uint64_rejected(ex1_model, ex1_policy, seed, monkeypatch):
    error = rf"seed must lie in \[0, 2\^64\), got {seed}"
    with pytest.raises(ValueError, match=error):
        sm.simulate(ex1_model, ex1_policy, "b", seed=seed)
    with pytest.raises(ValueError, match=error):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n=10, seed=seed)
    monkeypatch.setattr(simulate_module, "MC_BATCH", 1)  # no trajectory walks alone
    with pytest.raises(ValueError, match=error):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n=400, seed=seed)


@pytest.mark.parametrize("seed", [1.5, 2**40 + 0.5])
def test_fractional_seed_rejected(ex1_model, ex1_policy, seed, monkeypatch):
    """A fractional seed used to be truncated to the stream of its integer part."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        sm.simulate(ex1_model, ex1_policy, "b", seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n=10, seed=seed)
    monkeypatch.setattr(simulate_module, "MC_BATCH", 1)  # no trajectory walks alone
    with pytest.raises(ValueError, match="seed must be an integer"):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n=400, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**63 + 5, 2**64 - 1])
def test_philox_block_matches_numpy_streams(seed):
    """The one-pass Philox equals each stream's own generator, bit for bit.

    Blocks 0-40 come as one range, as ranges that split it at every
    lockstep batch edge, and one block at a time.
    """
    philox_blocks = simulate_module._philox_blocks
    index = np.array([0, 1, 2, 3, 1000, 2**32 - 1, 2**32, 2**40 - 1, 2**40])
    whole = philox_blocks(seed, index, 0, 41)
    edges = [0, 1, 3, 7, 15, 31, 41]
    split = np.vstack(
        [philox_blocks(seed, index, a, b - a) for a, b in itertools.pairwise(edges)]
    )
    single = np.vstack([philox_blocks(seed, index, b, 1) for b in range(41)])
    assert whole.shape == (4 * 41, len(index))
    for col, k in enumerate(index.tolist()):
        key = np.array([seed, k], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(4 * 41).view(np.uint64)
        for got in (whole, split, single):
            assert np.array_equal(got[:, col].view(np.uint64), want)


def batch_sizes(batches):
    """Philox blocks in each of the first ``batches`` batches ``run_together`` draws."""
    batch, raw = simulate_module.MC_BATCH, simulate_module.MC_RAW_BATCH
    sizes, count = [], 1
    for _ in range(batches):
        sizes.append(count)
        count = min(2 * count, batch if count < batch else raw)
    return sizes


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_numpy_blocks_match_kernel_and_streams(seed):
    """numpy's Philox, re-keyed by ``_Streams``, yields the kernel's draws and each stream's.

    Blocks 0-300 come as ranges split at every lockstep batch edge, and
    from ``at`` a few blocks at a time, from both sides of those edges.
    """
    index = np.array([0, 1, 2, 3, 1000, 2**32 - 1, 2**32, 2**40 - 1, 2**40])
    streams = simulate_module._Streams(seed)
    edges = [0, *(e for e in itertools.accumulate(batch_sizes(12)) if e < 301), 301]
    split = np.vstack([streams.blocks(index, a, b - a) for a, b in itertools.pairwise(edges)])
    kernel = simulate_module._philox_blocks(seed, index, 0, 301)
    assert split.shape == (4 * 301, len(index))
    assert np.array_equal(split.view(np.uint64), kernel.view(np.uint64))
    for col, k in enumerate(index.tolist()):
        key = np.array([seed, k], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(4 * 301)
        assert np.array_equal(split[:, col].view(np.uint64), want.view(np.uint64))
        for b in sorted({0, *(e + d for e in edges[1:-1] for d in (-1, 0)), 299}):
            got = streams.at(k, b).random(8)
            assert np.array_equal(got.view(np.uint64), want[4 * b : 4 * b + 8].view(np.uint64))


def reference_walker(model, policy):
    """The sampling rule over the model's full rows, one trajectory at a time.

    The returned ``walk(start, rng, max_steps)`` takes step t on draws 2t
    and 2t + 1 of ``rng``: the action is the first whose running policy
    sum exceeds the first draw, the successor the first whose running
    transition sum exceeds the second, each clamped to the last column.
    It returns the states, actions and rewards as indices and floats, and
    "forbidden", "target" or "truncated".
    """
    h, nu = model.n_taboo, model.n_forbidden
    act = [list(itertools.accumulate(row)) for row in policy.matrix.tolist()]
    succ = [[list(itertools.accumulate(r)) for r in rows] for rows in model.transitions.tolist()]
    rho = model.rewards.tolist()

    def walk(start, rng, max_steps):
        states, actions, rewards = [start], [], []
        i = start
        while i < h and len(actions) < max_steps:
            x, y = rng.random(2).tolist()
            u = min(bisect_right(act[i], x), model.n_actions - 1)
            j = min(bisect_right(succ[i][u], y), model.n_states - 1)
            states.append(j)
            actions.append(u)
            rewards.append(rho[u][i])
            i = j
        outcome = "truncated" if i < h else "forbidden" if i < h + nu else "target"
        return states, actions, rewards, outcome

    return walk


def _per_trajectory_mc(model, policy, start, n, seed, max_steps=10**5):
    """mc_estimates as documented: trajectory k walks ``_stream(seed, k)`` alone.

    Returns the report and the longest number of steps any trajectory took.
    """
    walk = reference_walker(model, policy)
    i0 = model.state_index(start)
    hit_u, totals, longest = [], [], 0
    for k in range(n):
        rng = simulate_module._stream(seed, k)
        _, actions, rewards, outcome = walk(i0, rng, max_steps)
        longest = max(longest, len(actions))
        if outcome == "truncated":
            continue
        total = 0.0
        for r in rewards:
            total += r
        hit_u.append(1.0 if outcome == "forbidden" else 0.0)
        totals.append(total)
    kept = len(hit_u)

    def estimate(vals):
        if kept == 0:
            return sm.McEstimate(float("nan"), float("nan"), 0)
        vals = np.array(vals)
        se = float(np.std(vals, ddof=1) / np.sqrt(kept)) if kept > 1 else float("nan")
        return sm.McEstimate(float(np.mean(vals)), se, kept)

    report = sm.McReport(
        s_hat=estimate(hit_u),
        t_hat=estimate([1.0 - x for x in hit_u]),
        v_hat=estimate(totals),
        truncated=n - kept,
        n=n,
    )
    return report, longest


# Lockstep batches of 1, 2, 4, ... up to MC_BATCH Philox blocks, computed
# by the kernel, then of 32 and 64 blocks from numpy's generator, take two
# steps a block, so they end after steps 2, 6, 14, 30, 62, 126 and 254,
# then every 2 * MC_RAW_BATCH steps.  The cases sit on both sides of those
# edges, and of steps 8 and 40, the edges of an earlier schedule.
BATCH_EDGES = list(itertools.accumulate(2 * count for count in batch_sizes(7)))
BATCH_EDGE = BATCH_EDGES[-1]
MAX_STEPS_CASES = sorted(
    {1, 8, 9, 12, 39, 40, 41, 10**5} | {e + d for e in BATCH_EDGES for d in (-1, 0, 1)}
)


# Two taboo states that mostly stay put: trajectories run for tens of
# steps, well past the first block of draws.
SLOW_DOC = json.dumps(
    {
        "states": ["h0", "h1", "u0", "e0"],
        "actions": ["a0", "a1"],
        "partition": {"taboo": ["h0", "h1"], "forbidden": ["u0"], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h0", "p": 0.85},
            {"from": "h0", "action": "a0", "to": "h1", "p": 0.1},
            {"from": "h0", "action": "a0", "to": "u0", "p": 0.05},
            {"from": "h0", "action": "a1", "to": "h1", "p": 0.9},
            {"from": "h0", "action": "a1", "to": "e0", "p": 0.1},
            {"from": "h1", "action": "a0", "to": "h1", "p": 0.9},
            {"from": "h1", "action": "a0", "to": "u0", "p": 0.05},
            {"from": "h1", "action": "a0", "to": "e0", "p": 0.05},
            {"from": "h1", "action": "a1", "to": "h0", "p": 0.5},
            {"from": "h1", "action": "a1", "to": "h1", "p": 0.45},
            {"from": "h1", "action": "a1", "to": "e0", "p": 0.05},
            {"from": "u0", "action": "a0", "to": "u0", "p": 1.0},
            {"from": "u0", "action": "a1", "to": "u0", "p": 1.0},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "a1", "to": "e0", "p": 1.0},
        ],
        "rewards": [
            {"state": "h0", "action": "a0", "rho": 0.1},
            {"state": "h0", "action": "a1", "rho": 0.7},
            {"state": "h1", "action": "a0", "rho": 1.3},
            {"state": "h1", "action": "a1", "rho": 2.9},
        ],
    }
)


@pytest.mark.parametrize("max_steps", MAX_STEPS_CASES)
def test_mc_estimates_equals_per_trajectory_walk_ex1(ex1_model, ex1_policy, max_steps):
    for start in ex1_model.states:
        got = sm.mc_estimates(ex1_model, ex1_policy, start, 400, 2**63 + 5, max_steps)
        want, _ = _per_trajectory_mc(
            ex1_model, ex1_policy, start, 400, 2**63 + 5, max_steps
        )
        assert repr(got) == repr(want)


def birth_death_corridor(h=30, hazard=0.01):
    """h taboo states in a row between a forbidden and a target state.

    Action 0 steps left or right with equal mass, action 1 steps right
    with 0.6 of it; both also send ``hazard`` straight to the forbidden
    state.  From the middle a trajectory takes hundreds of steps.
    """
    n = h + 2
    forbidden, target = h, h + 1
    trans = np.zeros((n, 2, n))
    for i in range(h):
        left, right = (forbidden if i == 0 else i - 1), (target if i == h - 1 else i + 1)
        for u, p_right in enumerate((0.5, 0.6)):
            trans[i, u, forbidden] += hazard
            trans[i, u, left] += (1.0 - hazard) * (1.0 - p_right)
            trans[i, u, right] += (1.0 - hazard) * p_right
    trans[forbidden, :, forbidden] = trans[target, :, target] = 1.0
    rewards = np.zeros((2, n))
    rewards[0, :h], rewards[1, :h] = np.linspace(0.5, 1.0, h), np.linspace(1.5, 3.0, h)
    return sm.MdpModel(
        states=tuple(f"h{i}" for i in range(h)) + ("u0", "e0"),
        actions=("fair", "push"),
        partition=sm.StatePartition(
            taboo=tuple(f"h{i}" for i in range(h)), forbidden=("u0",), target=("e0",)
        ),
        transitions=trans,
        rewards=rewards,
    )


def corridor_case():
    """The corridor from its middle, pushing on a third of it and mixing on a fifth."""
    model = birth_death_corridor()
    matrix = np.zeros((model.n_states, 2))
    matrix[:, 0] = 1.0
    matrix[20:30] = (0.0, 1.0)
    matrix[8:14] = (0.3, 0.7)
    return model, sm.make_policy(model, matrix), 15


@pytest.mark.parametrize("max_steps", MAX_STEPS_CASES)
def test_mc_estimates_equals_per_trajectory_walk_corpus(max_steps, monkeypatch):
    """Covers truncation, the batch and hand-off edges and chunk edges."""
    monkeypatch.setattr(simulate_module, "MC_CHUNK", 37)
    rng = np.random.default_rng(2024)
    slow = sm.load_model(SLOW_DOC)
    cases = [(slow, random_policy(rng, slow), start, 150) for start in (0, 1)]
    for _ in range(12):
        model = random_model_small(rng)
        start = int(rng.integers(0, model.n_states))
        cases.append((model, random_policy(rng, model), start, 150))
    cases.append((*corridor_case(), 240))
    longest = 0
    for model, pol, start, n in cases:
        seed = int(rng.integers(2**63))
        got = sm.mc_estimates(model, pol, start, n, seed, max_steps)
        want, steps = _per_trajectory_mc(model, pol, start, n, seed, max_steps)
        assert repr(got) == repr(want)
        longest = max(longest, steps)
    # Some trajectory hits the step cap or walks past every batch edge.
    assert longest >= min(max_steps, BATCH_EDGE + 1)


CHUNK_BATCH_RAW = [
    (37, 1, 64),
    (37, 2, 64),
    (37, 3, 64),
    (4096, 5, 64),
    (4096, 16, 64),
    (37, 10**9, 64),
    (4096, 16, 16),
    (4096, 16, 32),
    (37, 4, 10**9),
]


@pytest.mark.parametrize(
    "chunk, batch, raw",
    CHUNK_BATCH_RAW,
    ids=[f"{c}-{b}" + ("" if r == 64 else f"-raw{r}") for c, b, r in CHUNK_BATCH_RAW],
)
def test_mc_estimates_invariant_under_chunk_and_batch(chunk, batch, raw, monkeypatch):
    """Chunk, batch and hand-off sizes change no estimate, only who walks how.

    ``MC_BATCH`` sets both the most blocks per kernel batch and the
    hand-off: at 1 every trajectory stays in lockstep to its end, at 10**9
    every one walks alone from step 0.  ``MC_RAW_BATCH`` caps the batches
    from numpy's generator; at ``MC_BATCH`` the kernel draws every batch.
    """
    model, pol, start = corridor_case()
    walks = []
    walk = simulate_module._Lanes.walk

    def counted(self, *args):
        walks.append(args)
        return walk(self, *args)

    want, _ = _per_trajectory_mc(model, pol, start, 200, 5)
    monkeypatch.setattr(simulate_module, "MC_CHUNK", chunk)
    monkeypatch.setattr(simulate_module, "MC_BATCH", batch)
    monkeypatch.setattr(simulate_module, "MC_RAW_BATCH", raw)
    monkeypatch.setattr(simulate_module._Lanes, "walk", counted)
    got = sm.mc_estimates(model, pol, start, 200, 5)
    assert repr(got) == repr(want)
    if batch == 1:
        assert walks == []
    if batch == 10**9:
        assert len(walks) > 150
    # Streams reach the batches from numpy's generator unless none exceed MC_BATCH.
    assert (got.numpy_blocks > 0) == (batch < raw and batch < 10**9)


@pytest.mark.parametrize("chunk", [40, 4096])
def test_lockstep_draw_schedule(chunk, monkeypatch):
    """Each chunk draws 1, 2, 4, ... blocks back to back, from the kernel, then numpy.

    Blocks run from 0 with no gap or overlap, across the switch too.  A
    batch draws at most twice the blocks of the one before, so no lane
    gets more blocks drawn ahead than it has used, plus one.  The kernel
    draws the batches of up to ``MC_BATCH`` blocks and numpy's generator
    every later one, up to ``MC_RAW_BATCH``; only at least ``MC_BATCH``
    lanes step in lockstep.
    """
    calls = []
    philox_blocks = simulate_module._philox_blocks
    numpy_blocks = simulate_module._Streams.blocks

    def kernel(seed, index, first, count):
        calls.append(("kernel", first, count, len(index)))
        return philox_blocks(seed, index, first, count)

    def numpy(self, index, first, count):
        calls.append(("numpy", first, count, len(index)))
        return numpy_blocks(self, index, first, count)

    monkeypatch.setattr(simulate_module, "MC_CHUNK", chunk)
    monkeypatch.setattr(simulate_module, "_philox_blocks", kernel)
    monkeypatch.setattr(simulate_module._Streams, "blocks", numpy)
    model, pol, start = corridor_case()
    sm.mc_estimates(model, pol, start, 200, 5)
    batch, raw = simulate_module.MC_BATCH, simulate_module.MC_RAW_BATCH
    firsts = [c for c in calls if c[1] == 0]
    assert firsts == [("kernel", 0, 1, min(chunk, 200))] * -(-200 // chunk)
    for (source, first, count, lanes), (nxt_source, nxt, nxt_count, nxt_lanes) in (
        itertools.pairwise(calls)
    ):
        if nxt == 0:
            continue
        assert nxt == first + count
        assert nxt_count <= 2 * count
        assert batch <= nxt_lanes <= lanes
        assert (source, nxt_source) != ("numpy", "kernel")
    assert max(count for source, _, count, _ in calls if source == "kernel") == batch
    # Chunks of 40 fall below MC_BATCH lanes before their first batch of 64 blocks.
    numpy_max = max(count for source, _, count, _ in calls if source == "numpy")
    assert numpy_max == {40: 2 * batch, 4096: raw}[chunk]
    for source, first, count, _ in calls:
        assert count <= (batch if source == "kernel" else raw)
        assert (source == "numpy") == (first >= 2 * batch - 1)


def test_mc_report_records_where_the_work_went(ex1_model, ex1_policy):
    """The work counts are pinned on the corridor, and take no part in ``==`` or ``repr``.

    Every lockstep batch takes two steps a block, as none is cut by
    ``max_steps`` here; short trajectories draw no block from numpy.
    """
    model, pol, start = corridor_case()
    got = sm.mc_estimates(model, pol, start, 200, 5)
    work = (got.kernel_blocks, got.numpy_blocks, got.lockstep_steps, got.alone_steps)
    assert work == (5078, 4224, 18604, 17)
    assert got.lockstep_steps == 2 * (got.kernel_blocks + got.numpy_blocks)
    want, _ = _per_trajectory_mc(model, pol, start, 200, 5)
    assert got == want and repr(got) == repr(want)
    assert "blocks" not in repr(got) and "steps" not in repr(got)
    short = sm.mc_estimates(ex1_model, ex1_policy, "b", 400, 3)
    assert short.numpy_blocks == 0 < short.kernel_blocks


def test_mc_estimates_in_two_threads_equal_sequential_calls():
    """Each call re-keys a generator of its own, so calls in threads share none."""
    model, pol, start = corridor_case()

    def run(seed):
        return sm.mc_estimates(model, pol, start, 600, seed)

    want = [run(seed) for seed in (5, 6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between re-key and draw too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(run, (5, 6), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [vars(r) for r in got] == [vars(r) for r in want]
    assert got[0].numpy_blocks > 0


def test_peak_memory_of_a_corridor_sized_call():
    """600 trajectories from state 10 of a 100-state corridor, the benchmark's corridor
    shape, walk about a thousand steps each.  The kernel's 16-block batch holds about
    3 KB per trajectory and numpy's 64-block batch 2 KB; a batch's draws are
    freed before the next batch's are made, else the two together took 2.4 MB."""
    model = birth_death_corridor(h=100, hazard=0.0)
    matrix = np.zeros((model.n_states, 2))
    matrix[:, 0] = 1.0
    pol = sm.make_policy(model, matrix)
    tracemalloc.start()
    try:
        got = sm.mc_estimates(model, pol, "h10", 600, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.numpy_blocks > 0
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("max_steps", MAX_STEPS_CASES)
def test_simulate_equals_reference_walk(ex1_model, ex1_policy, max_steps):
    """``simulate`` walks the ``_support_table`` rows as the rule walks the full rows."""
    rng = np.random.default_rng(31)
    cases = [(ex1_model, ex1_policy, start) for start in ex1_model.states]
    for _ in range(12):
        model = random_model_small(rng)
        cases.append((model, random_policy(rng, model), int(rng.integers(model.n_states))))
    cases.append(corridor_case())
    longest = 0
    for model, pol, start in cases:
        walk = reference_walker(model, pol)
        for seed in range(8):
            got = sm.simulate(model, pol, start, seed, max_steps)
            i0 = model.state_index(start)
            states, actions, rewards, outcome = walk(
                i0, simulate_module._stream(seed, 0), max_steps
            )
            assert got.states == tuple(model.states[i] for i in states)
            assert got.actions == tuple(model.actions[u] for u in actions)
            assert got.rewards == tuple(rewards)
            assert got.absorbed_in == outcome
            longest = max(longest, len(actions))
    # Some walk is cut at the cap or runs past two blocks of 16 draws.
    assert min(max_steps, 17) <= longest <= max_steps


class _StubRng:
    """Hands out the given draws in order, as ``Generator.random`` would."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size):
        head, self.draws = self.draws[:size], self.draws[size:]
        return np.array(head)


def test_walk_row_short_of_one_takes_last_action():
    """A draw equal to a running sum passes it; one above the row's sum
    picks the last action, zero mass and all."""
    doc = json.loads(GEOMETRIC_DOC)
    doc["actions"] = ["a0", "a1", "a2"]
    doc["transitions"] += [
        {"from": "h0", "action": "a1", "to": "h0", "p": 0.5},
        {"from": "h0", "action": "a1", "to": "e0", "p": 0.5},
        {"from": "h0", "action": "a2", "to": "e0", "p": 1.0},
        {"from": "e0", "action": "a1", "to": "e0", "p": 1.0},
        {"from": "e0", "action": "a2", "to": "e0", "p": 1.0},
    ]
    doc["rewards"] += [
        {"state": "h0", "action": "a1", "rho": 2.0},
        {"state": "h0", "action": "a2", "rho": 5.0},
    ]
    model = sm.load_model(json.dumps(doc))
    short = 1.0 - 2.0**-45
    pol = sm.make_policy(model, np.array([[0.25, 0.75 - 2.0**-45, 0.0], [1, 0, 0]]))
    assert pol.matrix[0].sum() == short
    # Step 1 draws the sum of a0 and takes a1, back to h0; step 2 draws
    # above the row's sum.
    draws = [0.25, 0.25, (1.0 + short) / 2, 0.0] + [0.0] * 12
    lanes = simulate_module._Lanes(model, pol)
    assert lanes.walk(0, _StubRng(draws), 10) == ([0, 0, 1], [1, 2])
    want = ([0, 0, 1], [1, 2], [2.0, 5.0], "target")
    assert reference_walker(model, pol)(0, _StubRng(draws), 10) == want


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, 3.0, True, "3", None])
def test_max_steps_must_be_a_positive_integer(ex1_model, ex1_policy, max_steps):
    """2.5 used to raise TypeError, and -3 to give truncated results."""
    with pytest.raises(ValueError, match="max_steps must be a positive integer"):
        sm.mc_estimates(ex1_model, ex1_policy, "b", 10, 0, max_steps)
    with pytest.raises(ValueError, match="max_steps must be a positive integer"):
        sm.simulate(ex1_model, ex1_policy, "b", 0, max_steps)


def test_walk_rows_end_at_first_inf_and_skip_absorbing_states():
    """Each list row stops at its first +inf; absorbing states and their rows are None."""
    rng = np.random.default_rng(23)
    model = random_model_small(rng)
    lanes = simulate_module._Lanes(model, random_policy(rng, model))
    cum, col = lanes._walk_rows
    h, n, m = model.n_taboo, model.n_states, model.n_actions
    searched = list(range(h)) + list(range(n, n + h * m))
    assert [node for node, row in enumerate(cum) if row is not None] == searched
    assert [node for node, row in enumerate(col) if row is not None] == searched
    for node in searched:
        assert len(col[node]) == len(cum[node])
        assert cum[node][-1] == np.inf and np.isfinite(cum[node][:-1]).all()


@pytest.mark.parametrize("seed", [True, False, 3.0, np.float64(3.0), "3", None])
def test_seed_must_be_an_integer_not_bool_or_float(ex1_model, ex1_policy, seed):
    """``True`` and 3.0 used to pass as seeds 1 and 3."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        sm.simulate(ex1_model, ex1_policy, "b", seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n=10, seed=seed)


@pytest.mark.parametrize("n", [True, False, 400.0, np.float64(10.0), float("nan"), "3", None])
def test_mc_trajectory_count_must_be_an_integer(ex1_model, ex1_policy, n):
    """``True`` used to run one trajectory and 400.0 to run 400."""
    with pytest.raises(ValueError, match="trajectory count must be a positive integer"):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n, 0)


def test_seed_and_count_accept_numpy_integers(ex1_model, ex1_policy):
    want = sm.mc_estimates(ex1_model, ex1_policy, "b", 50, 7)
    assert sm.mc_estimates(ex1_model, ex1_policy, "b", np.int64(50), np.uint64(7)) == want
    assert sm.simulate(ex1_model, ex1_policy, "b", np.uint64(7)) == sm.simulate(
        ex1_model, ex1_policy, "b", 7
    )


def test_max_steps_accepts_numpy_integer(ex1_model, ex1_policy):
    steps = np.int64(3)
    assert sm.simulate(ex1_model, ex1_policy, "c", 7, steps) == sm.simulate(
        ex1_model, ex1_policy, "c", 7, 3
    )
    assert sm.mc_estimates(ex1_model, ex1_policy, "c", 50, 7, steps) == sm.mc_estimates(
        ex1_model, ex1_policy, "c", 50, 7, 3
    )


def test_support_table_search_is_bisect_with_clamp():
    """The first support entry above a draw is ``bisect_right`` plus the clamp."""
    rows = np.array(
        [
            [0.0, 0.25, 0.0, 0.5, 0.0, 0.125, 0.0],  # sums to 0.875: draws above clamp
            [0.5, 1e-300, 0.0, 0.0, 0.0, 0.0, 0.5],  # a positive entry that adds nothing
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.1] * 7,
        ]
    )
    draws = [0.0, 0.1, 0.25, 0.2500001, 0.5, 0.74999, 0.75, 0.8, 0.875, 0.9, 1 - 2**-53]
    cum, col = simulate_module._support_table(rows)
    width = cum.shape[1]
    assert width & (width - 1) == 0 and np.isinf(cum[:, -1]).all()
    for r, row in enumerate(rows.tolist()):
        running = list(itertools.accumulate(row))
        for x in draws:
            want = min(bisect_right(running, x), len(row) - 1)
            at = simulate_module._first_above(cum, np.array([r]), np.array([x]))
            assert col.ravel()[at[0]] == want, (r, x)


def test_mc_constant_outcome_has_zero_spread(ex1_model, ex1_policy):
    """From a the reward is 1 on every path, so the value spread vanishes."""
    mc = sm.mc_estimates(ex1_model, ex1_policy, "a", n=500, seed=2)
    assert mc.v_hat.mean == 1.0
    assert mc.v_hat.std_error == 0.0


def test_mc_zero_rewards():
    doc = json.loads(GEOMETRIC_DOC)
    doc["rewards"] = []
    flat = sm.load_model(json.dumps(doc))
    pol = sm.pure_policy(flat, {0: 0})
    mc = sm.mc_estimates(flat, pol, "h0", n=300, seed=0)
    assert mc.v_hat.mean == 0.0


def test_mc_requires_positive_n(ex1_model, ex1_policy):
    with pytest.raises(ValueError):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n=0, seed=0)


def test_mc_rejects_fractional_n(ex1_model, ex1_policy):
    """``np.zeros`` used to raise TypeError for a fractional trajectory count."""
    with pytest.raises(ValueError, match="trajectory count must be a positive integer"):
        sm.mc_estimates(ex1_model, ex1_policy, "b", n=2.5, seed=0)


def test_mc_truncated_are_counted_not_averaged():
    model = sm.load_model(GEOMETRIC_DOC)
    pol = sm.pure_policy(model, {0: 0})
    mc = sm.mc_estimates(model, pol, "h0", n=200, seed=8, max_steps=1)
    full = sm.mc_estimates(model, pol, "h0", n=200, seed=8)
    assert mc.truncated > 0
    assert mc.s_hat.n + mc.truncated == 200
    assert full.truncated == 0


def test_mc_coverage_on_random_configurations():
    """Interval check under the scaled-down trajectory count.

    Same statistic as the full-size run (the 3 standard-error band does
    not depend on n), sized to keep the suite fast.  The full-size
    variant follows.
    """
    inside = _coverage_count(n=4_000)
    assert inside >= 95


def test_mc_coverage_full_size():
    assert _coverage_count(n=100_000) >= 95


def _coverage_count(n):
    rng = np.random.default_rng(77)
    inside = 0
    for _ in range(100):
        model = random_model_small(rng)
        pol = random_policy(rng, model)
        h = model.n_taboo
        start = model.partition.taboo[int(rng.integers(0, h))]
        rep = sm.mc_estimates(model, pol, start, n=n, seed=int(rng.integers(2**31)))
        i = model.states.index(start)
        truths = (
            (rep.s_hat, sm.safety(model, pol)[i]),
            (rep.t_hat, sm.reach(model, pol)[i]),
            (rep.v_hat, sm.value(model, pol)[i]),
        )
        ok = True
        for est, truth in truths:
            if est.std_error > 0:
                ok = ok and abs(est.mean - truth) <= 3 * est.std_error
            else:
                ok = ok and abs(est.mean - truth) <= 1e-12
        inside += ok
    return inside


def test_exhaustive_paths_golden(ex1_model, ex1_policy):
    b = sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=3)
    assert [type(x) for x in (b.s_lo, b.s_hi, b.v_lo, b.mass_remaining, b.nodes)] == [
        float, float, float, float, int
    ]
    assert b.mass_remaining == 0.0
    assert abs(b.s_lo - 0.4) <= 1e-12
    assert b.s_hi == b.s_lo
    assert abs(b.v_lo - 3.6) <= 1e-12
    assert b.nodes == 4


def test_exhaustive_paths_depth_zero(ex1_model, ex1_policy):
    b = sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=0)
    assert b.s_lo == 0.0
    assert b.mass_remaining == 1.0


def test_exhaustive_paths_geometric_tail():
    model = sm.load_model(GEOMETRIC_DOC)
    pol = sm.pure_policy(model, {0: 0})
    b = sm.exhaustive_paths(model, pol, "h0", depth=10)
    assert b.mass_remaining == 0.5**10
    assert b.s_lo == 0.0
    assert b.s_hi == 0.5**10


def test_exhaustive_paths_bracket_on_corpus():
    rng = np.random.default_rng(123)
    for _ in range(15):
        model = random_model_small(rng)
        pol = random_policy(rng, model)
        S = sm.safety(model, pol)
        for depth in (0, 1, 3, 5):
            for idx, start in enumerate(model.partition.taboo):
                b = sm.exhaustive_paths(model, pol, start, depth=depth)
                assert b.s_lo <= S[idx] + 1e-12
                assert S[idx] <= b.s_hi + 1e-12


def test_exhaustive_paths_node_budget():
    rng = np.random.default_rng(1)
    model = random_model_small(rng)
    while model.n_taboo < 3:
        model = random_model_small(rng)
    pol = random_policy(rng, model)
    with pytest.raises(sm.PathExplosionError):
        sm.exhaustive_paths(
            model, pol, model.partition.taboo[0], depth=30, node_budget=10_000
        )


@pytest.mark.parametrize("budget", [float("nan"), -5, -1, True, False, 10.0, 2.5, "9", None])
def test_exhaustive_paths_node_budget_must_be_a_nonnegative_integer(
        ex1_model, ex1_policy, budget):
    """NaN used to switch the memory guard off, and -5 to raise PathExplosionError."""
    with pytest.raises(ValueError, match="node_budget must be a nonnegative integer"):
        sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=3, node_budget=budget)


def test_exhaustive_paths_node_budget_zero_and_numpy(ex1_model, ex1_policy):
    with pytest.raises(sm.PathExplosionError, match="exceeded 0 nodes at depth 0"):
        sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=3, node_budget=0)
    want = sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=3)
    assert sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=3,
                               node_budget=np.int64(want.nodes)) == want


def test_exhaustive_paths_depth_cap(ex1_model, ex1_policy):
    with pytest.raises(ValueError):
        sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=65)


@pytest.mark.parametrize("depth", [2.5, 3.0, np.float64(2.0), True, False, "3", None])
def test_exhaustive_paths_rejects_non_integer_depth(depth):
    model = sm.load_model(GEOMETRIC_DOC)
    pol = sm.pure_policy(model, {0: 0})
    with pytest.raises(ValueError, match="depth must be an integer"):
        sm.exhaustive_paths(model, pol, "h0", depth=depth)


def test_exhaustive_paths_accepts_numpy_integer_depth(ex1_model, ex1_policy):
    b = sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=np.int64(3))
    assert b == sm.exhaustive_paths(ex1_model, ex1_policy, "b", depth=3)


def reference_exhaustive_paths(model, policy, start, depth, node_budget=10**6):
    """The depth-first walk the level-by-level expansion replaced."""
    if not 0 <= depth <= simulate_module.MAX_DEPTH:
        raise ValueError("depth out of range")
    i0 = model.state_index(start)
    h, nu = model.n_taboo, model.n_forbidden
    s_lo = 0.0
    v_lo = 0.0
    mass_remaining = 0.0
    nodes = 0
    if i0 >= h:
        s_lo = 1.0 if i0 < h + nu else 0.0
        return sm.PathBounds(s_lo, s_lo, 0.0, 0.0, nodes)

    stack = [(i0, 1.0, 0)]
    while stack:
        i, mass, t = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise sm.PathExplosionError(
                f"path tree exceeded {node_budget} nodes at depth {t}"
            )
        if t == depth:
            mass_remaining += mass
            continue
        for u in range(model.n_actions):
            pu = policy.matrix[i, u]
            if pu == 0.0:
                continue
            step_mass = mass * pu
            row = model.transitions[i, u]
            for j in np.nonzero(row)[0]:
                child = step_mass * row[j]
                v_lo += child * model.rewards[u, i]
                if j < h:
                    stack.append((int(j), child, t + 1))
                elif j < h + nu:
                    s_lo += child
    return sm.PathBounds(s_lo, s_lo + mass_remaining, v_lo, mass_remaining, nodes)


# One taboo state whose two actions share both successors: a policy mixing
# them gives every node two children that land in the same state.
TWIN_DOC = json.dumps(
    {
        "states": ["h0", "u0", "e0"],
        "actions": ["a0", "a1"],
        "partition": {"taboo": ["h0"], "forbidden": ["u0"], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h0", "p": 0.5},
            {"from": "h0", "action": "a0", "to": "u0", "p": 0.25},
            {"from": "h0", "action": "a0", "to": "e0", "p": 0.25},
            {"from": "h0", "action": "a1", "to": "h0", "p": 0.75},
            {"from": "h0", "action": "a1", "to": "u0", "p": 0.125},
            {"from": "h0", "action": "a1", "to": "e0", "p": 0.125},
            {"from": "u0", "action": "a0", "to": "u0", "p": 1.0},
            {"from": "u0", "action": "a1", "to": "u0", "p": 1.0},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
            {"from": "e0", "action": "a1", "to": "e0", "p": 1.0},
        ],
        "rewards": [
            {"state": "h0", "action": "a0", "rho": 1.0},
            {"state": "h0", "action": "a1", "rho": 3.0},
        ],
    }
)


def _reference_cases():
    rng = np.random.default_rng(2024)
    twin = sm.load_model(TWIN_DOC)
    yield twin, sm.make_policy(twin, np.array([[0.3, 0.7], [1.0, 0.0], [1.0, 0.0]]))
    for _ in range(10):
        model = random_model_small(rng, max_actions=2)
        assignment = rng.integers(0, model.n_actions, size=model.n_taboo)
        yield model, sm.pure_policy(model, dict(enumerate(assignment.tolist())))
        yield model, random_policy(rng, model)


def test_exhaustive_paths_matches_reference():
    """Node counts equal, bounds within summation order, budget edge exact."""
    checked = 0
    for model, pol in _reference_cases():
        for depth in (0, 1, 3, 5):
            for start in model.states:
                got = sm.exhaustive_paths(model, pol, start, depth)
                want = reference_exhaustive_paths(model, pol, start, depth)
                assert got.nodes == want.nodes
                for field in ("s_lo", "s_hi", "v_lo", "mass_remaining"):
                    x, y = getattr(got, field), getattr(want, field)
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), (field, x, y)
                if want.nodes:
                    assert sm.exhaustive_paths(
                        model, pol, start, depth, node_budget=want.nodes
                    ) == got
                    with pytest.raises(sm.PathExplosionError):
                        sm.exhaustive_paths(
                            model, pol, start, depth, node_budget=want.nodes - 1
                        )
                checked += 1
    assert checked > 100


def test_exhaustive_paths_twin_actions_stay_two_children():
    model = sm.load_model(TWIN_DOC)
    pol = sm.make_policy(model, np.array([[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]]))
    b = sm.exhaustive_paths(model, pol, "h0", depth=6)
    assert b.nodes == 2**7 - 1
    assert b.mass_remaining == pytest.approx(0.625**6, rel=1e-12)


def test_exhaustive_paths_budget_checked_before_level():
    """The level that would break the budget is never allocated.

    One taboo state with 3,000 actions that each loop back under a
    uniform policy: level 1 holds 3,000 nodes, level 2 would hold 9e6
    (about 144 MB for its states and masses alone).
    """
    m = 3000
    states, actions = ["h0", "e0"], [f"a{k}" for k in range(m)]
    trans = np.zeros((2, m, 2))
    trans[0, :, :] = 0.5
    trans[1, :, 1] = 1.0
    model = sm.MdpModel(
        states=tuple(states),
        actions=tuple(actions),
        partition=sm.StatePartition(taboo=("h0",), forbidden=(), target=("e0",)),
        transitions=trans,
        rewards=np.zeros((m, 2)),
    )
    pol = sm.make_policy(model, np.full((2, m), 1.0 / m))
    tracemalloc.start()
    try:
        with pytest.raises(sm.PathExplosionError, match="at depth 2"):
            sm.exhaustive_paths(model, pol, "h0", depth=5, node_budget=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    level_bytes = 16 * m * m
    assert peak < level_bytes // 100


def test_brute_force_golden(ex1_model):
    res = sm.brute_force_constrained(ex1_model, p=0.5)
    assert res.feasible
    assert res.assignment == (0, 1, 0)
    assert np.abs(res.value - [1, 3.6, 4]).max() <= 1e-12
    assert res.admissible_count == 4
    assert res.total == 8


def test_brute_force_infeasible(ex1_model):
    res = sm.brute_force_constrained(ex1_model, p=0.3)
    assert not res.feasible
    assert res.policy is None


def test_brute_force_cap(ex1_model, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumeration started past the cap")

    monkeypatch.setattr("safemdp.evaluate._trapped", refuse)
    with pytest.raises(sm.CapExceededError, match="8 pure policies exceed the cap of 7"):
        sm.brute_force_constrained(ex1_model, p=0.5, cap=7)
    # A NaN cap would turn the guard off: every comparison with it is False.
    for cap in (float("nan"), True, 7.5, -1, "8"):
        with pytest.raises(ValueError, match="cap must be a nonnegative integer"):
            sm.brute_force_constrained(ex1_model, p=0.5, cap=cap)


def reference_brute_force(model, p, cap=10**6):
    """The one-policy-at-a-time loop the batched kernel replaced."""
    h, m = model.n_taboo, model.n_actions
    total = m**h
    if total > cap:
        raise sm.CapExceededError(f"{total} pure policies exceed the cap of {cap}")
    best, best_sum, admissible = None, np.inf, 0
    for assignment in itertools.product(range(m), repeat=h):
        pol = sm.pure_policy(model, dict(enumerate(assignment)))
        try:
            v, s, _ = _exact(model, pol)
        except sm.NotTransientError:
            continue
        if (s > p + ADMISSIBLE_TOL).any():
            continue
        admissible += 1
        if float(v.sum()) < best_sum:
            best_sum = float(v.sum())
            best = (assignment, pol, v, s)
    if best is None:
        return sm.BruteForceResult(False, None, None, None, None, 0, total)
    assignment, pol, v, s = best
    return sm.BruteForceResult(True, assignment, pol, v, s, admissible, total)


@pytest.mark.parametrize("chunk", [None, 37])
def test_brute_force_matches_reference(oracle_cases, monkeypatch, chunk):
    """Every field bit for bit, also when blocks of 37 policies split runs of ties."""
    if chunk:
        monkeypatch.setattr("safemdp.evaluate.PURE_CHUNK", chunk)
    feasible = 0
    for model, p in oracle_cases:
        got, want = sm.brute_force_constrained(model, p), reference_brute_force(model, p)
        assert (got.feasible, got.assignment, got.admissible_count, got.total) == (
            want.feasible, want.assignment, want.admissible_count, want.total
        )
        assert got.assignment is None or all(type(a) is int for a in got.assignment)
        if want.feasible:
            assert np.array_equal(got.policy.matrix, want.policy.matrix)
            assert np.array_equal(got.value, want.value)
            assert np.array_equal(got.safety, want.safety)
        else:
            assert (got.policy, got.value, got.safety) == (None, None, None)
        feasible += want.feasible
    assert 0 < feasible < len(oracle_cases)
