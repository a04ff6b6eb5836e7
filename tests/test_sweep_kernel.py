"""The candidate-major sweep kernel against the sweep it replaced.

``previous_sweep`` is ``bellman._sweep`` as it was before each sweep became
one product of the candidate-major rows into reused buffers.  The new
kernel must take the same sweeps to the same choices, with values equal
up to the summation order of that product, and must not let its buffer
swap leak into what it returns or raises.
"""
import numpy as np
import pytest

import safemdp as sm
from corpus import corridor_model
from safemdp.bellman import _sweep
from safemdp.evaluate import _induce, _witness


def previous_sweep(stage, Q, v0, tol, max_iter, history=None):
    """``_sweep`` as it was: ``stage + Q @ v`` over (h, k, h), min over axis 1."""
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    v = np.zeros(Q.shape[0]) if v0 is None else np.asarray(v0, dtype=float).copy()
    if not np.isfinite(v).all():
        raise ValueError("starting values must be finite")
    _witness(Q, np.isfinite(stage))
    diff = np.inf
    for sweep in range(1, max_iter + 1):
        totals = stage + Q @ v
        choice = totals.argmin(axis=1)
        nxt = totals.min(axis=1)
        diff = np.abs(nxt - v).max(initial=0.0)
        v = nxt
        if history is not None:
            history.append(v.copy())
        if diff <= tol:
            return v, choice, sweep
    raise sm.MaxIterationsError(
        f"no convergence within {max_iter} sweeps (last change {diff:.3g})", last=v
    )


def close(got, want):
    return (np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all()


def assert_matches_previous(stage, Q, v0=None, tol=1e-10, max_iter=100_000):
    """Same sweeps, same choices and close values, or the same error."""
    try:
        want = previous_sweep(stage, Q, v0, tol, max_iter)
    except sm.NotTransientError as err:
        with pytest.raises(sm.NotTransientError) as got:
            _sweep(stage, Q, v0, tol, max_iter)
        assert got.value.trapped == err.trapped
        return False
    v, choice, sweeps = _sweep(stage, Q, v0, tol, max_iter)
    assert sweeps == want[2]
    assert np.array_equal(choice, want[1])
    assert close(v, want[0])
    return True


def padded(model, rng):
    """Stage costs with +inf on a random set of slots, as ``constrained_vi_pure``
    passes them: every state keeps at least one finite candidate."""
    mask = rng.random(model.stage_costs.shape) < 0.6
    mask[np.arange(model.n_taboo), rng.integers(0, model.n_actions, model.n_taboo)] = True
    return np.where(mask, model.stage_costs, np.inf)


def test_matches_previous_on_corpora(oracle_cases):
    """ex1, both corpora and the sparse models of ``oracle_cases``, on the
    stage costs, the forbidden mass and a +inf-padded stage."""
    rng = np.random.default_rng(19)
    solved = 0
    for model, _ in oracle_cases:
        PH = model.taboo_block
        for stage in (model.stage_costs, model.forbidden_exit, padded(model, rng)):
            solved += assert_matches_previous(stage, PH)
    assert solved > len(oracle_cases)


def test_matches_previous_with_policy_blocks(chain_corpus):
    """k = 1: the iterative evaluators' ``blocks.q[:, None, :]`` view."""
    for model, policy, _ in chain_corpus:
        _, blocks, inputs = _induce(model, policy)
        for offset in (inputs.stage_cost, inputs.to_forbidden):
            assert_matches_previous(offset[:, None], blocks.q[:, None, :])


def test_matches_previous_on_corridor():
    model = corridor_model(np.random.default_rng(5), 100, 0.002)
    assert assert_matches_previous(model.stage_costs, model.taboo_block)
    assert assert_matches_previous(model.forbidden_exit, model.taboo_block, tol=1e-12)


def test_history_is_bit_identical(ex1_model):
    stage, PH = ex1_model.stage_costs, ex1_model.taboo_block
    got, want = [], []
    _sweep(stage, PH, None, 1e-10, 100, got)
    previous_sweep(stage, PH, None, 1e-10, 100, want)
    assert len(got) == len(want) == 4
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert not any(np.shares_memory(a, b) for a in got for b in got if a is not b)


def test_start_is_not_mutated(ex1_model):
    stage, PH = ex1_model.stage_costs, ex1_model.taboo_block
    v0 = np.array([0.5, 1.0, 2.0])
    v, _, _ = _sweep(stage, PH, v0, 1e-10, 100)
    assert v0.tolist() == [0.5, 1.0, 2.0]
    assert not np.shares_memory(v, v0)
    with pytest.raises(sm.MaxIterationsError):
        _sweep(stage, PH, v0, 0.0, 1)
    assert v0.tolist() == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("max_iter", [1, 2, 3, 50])
def test_budget_error_carries_the_last_iterate(max_iter):
    model = corridor_model(np.random.default_rng(5), 100, 0.002)
    stage, PH = model.stage_costs, model.taboo_block
    with pytest.raises(sm.MaxIterationsError) as want:
        previous_sweep(stage, PH, None, 0.0, max_iter)
    with pytest.raises(sm.MaxIterationsError) as got:
        _sweep(stage, PH, None, 0.0, max_iter)
    assert close(got.value.last, want.value.last)
    assert str(got.value) == str(want.value)


def test_calls_share_no_memory(ex1_model):
    stage, PH = ex1_model.stage_costs, ex1_model.taboo_block
    first, second = _sweep(stage, PH, None, 1e-10, 100), _sweep(stage, PH, None, 1e-10, 100)
    for a, b in zip(first[:2], second[:2]):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)


def test_witness_skips_masked_candidates():
    """A +inf slot with a zero row leaks, but the witness never takes it."""
    Q = np.zeros((2, 2, 2))
    Q[0, 1, 1], Q[1, 1, 0] = 0.5, 0.5
    valid = np.array([[False, True], [False, True]])
    assert _witness(Q).tolist() == [0, 0]
    assert _witness(Q, valid).tolist() == [1, 1]
    valid[1, 1] = False
    with pytest.raises(sm.NotTransientError):
        _witness(Q, valid)
