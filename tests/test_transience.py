"""Exact structural transience: verdicts against eigenvalues and enumeration.

The batched ``_trapped`` is checked row by row against the single-item
call and against an enumeration of pure choices, and ``_witness``
against its promise of a proper choice.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safemdp as sm
from corpus import _assemble
from safemdp.evaluate import _trapped, _witness

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
BATCH_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def grid_rows(draw, n_rows, width):
    """Rows over ``width`` columns on a 1/8 grid, each summing exactly to 1.

    Every row spreads its eight eighths over at most three columns, so the
    rows are sparse and closed classes come up often.
    """
    rows = np.zeros((n_rows, width))
    for r in range(n_rows):
        cols = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3,
                             unique=True))
        for c in draw(st.lists(st.sampled_from(cols), min_size=8, max_size=8)):
            rows[r, c] += 0.125
    return rows


@st.composite
def taboo_blocks(draw):
    """Substochastic (h, h) blocks, h <= 6; the last column is the exit."""
    h = draw(st.integers(1, 6))
    return draw(grid_rows(h, h + 1))[:, :h]


@st.composite
def sparse_models(draw):
    """Models with h <= 4 taboo states, one forbidden, one target, m <= 2."""
    h = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    n = h + 2
    trans = np.zeros((n, m, n))
    trans[:h] = draw(grid_rows(h * m, n)).reshape(h, m, n)
    for j in range(h, n):
        trans[j, :, j] = 1.0
    rewards = np.zeros((m, n))
    costs = draw(st.lists(st.integers(0, 4), min_size=m * h, max_size=m * h))
    rewards[:, :h] = np.reshape(costs, (m, h))
    states = [f"h{i}" for i in range(h)] + ["u0", "e0"]
    return _assemble(states, [f"a{k}" for k in range(m)], h, 1, trans, rewards)


def exit_is_sure(Q):
    """Per state: every state it can reach can itself reach a leaking row.

    A reference for the trapped set by transitive closure, exact on the
    1/8 grid where a row leaks iff its sum is below 1.
    """
    h = Q.shape[0]
    reach = np.eye(h, dtype=bool) | (Q > 0)
    for _ in range(h):
        reach |= (reach.astype(int) @ reach.astype(int)) > 0
    can_exit = (reach & (Q.sum(axis=1) < 1)).any(axis=1)
    return ~(reach & ~can_exit).any(axis=1)


@st.composite
def candidate_stacks(draw, max_h, max_k):
    """A stack (B, h, k, h) of sparse candidate rows and a mask (B, h, k)."""
    b = draw(st.integers(1, 4))
    h = draw(st.integers(1, max_h))
    k = draw(st.integers(1, max_k))
    Q = draw(grid_rows(b * h * k, h + 1))[:, :h].reshape(b, h, k, h)
    valid = draw(st.lists(st.booleans(), min_size=b * h * k, max_size=b * h * k))
    return Q, np.reshape(valid, (b, h, k))


def trapped_by_enumeration(Q, valid):
    """States no pure choice of valid candidates surely leads out of H.

    A state without a valid candidate gets a self-loop, which traps it.
    """
    h = Q.shape[0]
    choices = [
        [Q[i, c] for c in np.flatnonzero(valid[i])] or [np.eye(h)[i]] for i in range(h)
    ]
    sure = np.zeros(h, bool)
    for rows in itertools.product(*choices):
        sure |= exit_is_sure(np.array(rows))
    return ~sure


@BATCH_SETTINGS
@given(candidate_stacks(max_h=6, max_k=1))
def test_batched_trapped_on_pure_stacks(stack):
    Q = stack[0][:, :, 0]
    mask = _trapped(Q[:, :, None, :])
    assert mask.shape == Q.shape[:2]
    for item, row in zip(Q, mask):
        assert np.array_equal(row, _trapped(item))
        assert np.array_equal(row, ~exit_is_sure(item))


@BATCH_SETTINGS
@given(candidate_stacks(max_h=4, max_k=3))
def test_batched_trapped_on_masked_candidate_stacks(stack):
    Q, valid = stack
    mask = _trapped(Q, valid)
    assert mask.shape == Q.shape[:2]
    for item, ok, row in zip(Q, valid, mask):
        assert np.array_equal(row, _trapped(item, ok))
        assert np.array_equal(row, trapped_by_enumeration(item, ok))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(candidate_stacks(max_h=5, max_k=3))
def test_witness_is_a_proper_choice(stack):
    """A proper choice of candidates exactly when nothing is trapped."""
    for Q in stack[0]:
        trapped = np.flatnonzero(_trapped(Q))
        if trapped.size:
            with pytest.raises(sm.NotTransientError) as err:
                _witness(Q)
            assert err.value.trapped == tuple(trapped)
            continue
        choice = _witness(Q)
        assert exit_is_sure(Q[np.arange(Q.shape[0]), choice]).all()


def test_witness_steps_down_the_layers():
    """h0 may loop in place or step to h1, which leaks; the loop comes first."""
    Q = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.5], [0.0, 0.0]]])
    assert _witness(Q).tolist() == [1, 0]


@SETTINGS
@given(taboo_blocks())
def test_verdict_matches_eigenvalues(Q):
    radius = float(np.abs(np.linalg.eigvals(Q)).max())
    report = sm.check_transient(Q)
    assert report.transient == (radius < 1 - 1e-9)
    if report.transient:
        assert abs(report.spectral_radius - radius) <= 1e-12
    else:
        assert report.spectral_radius == 1.0
        with pytest.raises(sm.NotTransientError) as err:
            sm.green(Q)
        assert err.value.trapped == tuple(np.flatnonzero(~exit_is_sure(Q)))


@SETTINGS
@given(sparse_models())
def test_kernel_refuses_exactly_when_no_policy_is_proper(model):
    h, m = model.n_taboo, model.n_actions
    proper, sure = False, np.zeros(h, bool)
    for pick in itertools.product(range(m), repeat=h):
        Q = model.taboo_block[np.arange(h), list(pick)]
        proper |= sm.check_transient(Q).transient
        sure |= exit_is_sure(Q)
    trapped = ()
    try:
        sm.value_iteration(model, max_iter=10)
    except sm.MaxIterationsError:
        pass
    except sm.NotTransientError as err:
        trapped = err.trapped
    assert bool(trapped) == (not proper)
    assert trapped == tuple(np.flatnonzero(~sure))


def corridor(h):
    """Symmetric random walk on h taboo states between u0 (left) and e0."""
    states = [f"h{i}" for i in range(h)] + ["u0", "e0"]
    n = h + 2
    trans = np.zeros((n, 1, n))
    for i in range(h):
        trans[i, 0, i - 1 if i > 0 else h] = 0.5
        trans[i, 0, i + 1 if i < h - 1 else h + 1] = 0.5
    trans[h:, 0, h:] = np.eye(2)
    return _assemble(states, ["step"], h, 1, trans, np.zeros((1, n)))


@pytest.mark.parametrize("h, radius", [(5, 0.866), (20, 0.989)])
def test_symmetric_corridor_is_transient(h, radius):
    model = corridor(h)
    policy = sm.pure_policy(model, {i: 0 for i in range(h)})
    report = sm.check_transient(model.taboo_block[:, 0])
    assert report.transient
    assert report.spectral_radius == pytest.approx(np.cos(np.pi / (h + 1)), abs=1e-12)
    assert round(report.spectral_radius, 3) == radius
    ruin = 1.0 - np.arange(1, h + 1) / (h + 1)
    assert np.abs(sm.safety(model, policy) - ruin).max() <= 1e-12


def test_periodic_block_radius():
    report = sm.check_transient(np.array([[0.0, 1.0], [0.5, 0.0]]))
    assert report.transient
    assert report.spectral_radius == pytest.approx(np.sqrt(0.5), abs=1e-12)
