"""Policy iteration from a proper witness behind ``safest_policy``, and
``_improve`` on the stage cost rho + t K, the dual's inner problem at a
multiplier level t.

The solvers must return proper policies whose exact values are the
reported vectors, match the sweeps they replaced wherever those ended
at a proper policy, and decide feasibility as brute force does on the
sparse models whose zero-mass and zero-cost loops the sweeps mistook
for optima.
"""
import json

import numpy as np
import pytest

import safemdp as sm
from corpus import corridor_model, sparse_model
from safemdp.bellman import (
    CERTIFY_FROM,
    CERTIFY_GAP,
    _bellman,
    _candidate_major,
    _greedy_policy,
    _improve,
    _round,
    _sweep,
)
from safemdp.evaluate import _exact, _solve, _trapped, _witness


def sweep_safest_policy(model, tol=1e-12, max_iter=100_000):
    """``safest_policy`` as it was: value iteration on the forbidden mass."""
    v, greedy, _ = _sweep(model.forbidden_exit, model.taboo_block, None, tol, max_iter)
    return v, _greedy_policy(model, greedy)


def sweep_penalized(model, t, tol=1e-10, max_iter=100_000):
    """The dual's inner problem at level t as it was: value iteration on rho + t K."""
    stage = model.stage_costs + t * model.forbidden_exit
    v, greedy, _ = _sweep(stage, model.taboo_block, None, tol, max_iter)
    return v, _greedy_policy(model, greedy)


def improve_penalized(model, t, tol=1e-10, max_iter=100_000):
    """Policy iteration on rho + t K from the witness: V + t S of its proper policy.

    That is the dual's inner optimum at level t plus the constant p t.
    """
    PH = model.taboo_block
    stage = model.stage_costs + t * model.forbidden_exit
    v, choice = _improve(stage, PH, _witness(PH), tol, max_iter)
    return v, _greedy_policy(model, choice)


def is_proper(model, policy):
    rows = np.arange(model.n_taboo)
    return not _trapped(model.taboo_block[rows, policy.assignment()[rows]]).any()


def penalized(model, policy, t):
    """Exact V + t S of one policy, its value on the stage cost rho + t K."""
    v, s, _ = _exact(model, policy)
    return v + t * s


def assert_matches_sweep(got, want, model):
    """Values within 1e-9 of max(1, |v|) and the same policy, when the sweep's is proper.

    An improper sweep policy reaches values no proper policy attains, so
    there the sweep limit only bounds the new values from below.
    """
    (v, pol), (w, ref) = got, want
    assert is_proper(model, pol)
    if is_proper(model, ref):
        assert (np.abs(v - w) <= 1e-9 * np.maximum(1.0, np.abs(w))).all()
        assert np.array_equal(pol.matrix, ref.matrix)
    else:
        assert (v >= w - 1e-9 * np.maximum(1.0, np.abs(w))).all()


def test_matches_sweep_reference(ex1_model, solver_corpus, oracle_cases):
    improper = 0
    for model, _ in [(ex1_model, 0.5)] + solver_corpus + oracle_cases:
        try:
            want = sweep_safest_policy(model)
        except sm.NotTransientError as err:
            with pytest.raises(sm.NotTransientError) as got:
                sm.safest_policy(model)
            assert got.value.trapped == err.trapped
            continue
        assert_matches_sweep(sm.safest_policy(model), want, model)
        improper += not is_proper(model, want[1])
        for t in (0.0, 1.0):
            want = sweep_penalized(model, t)
            assert_matches_sweep(improve_penalized(model, t), want, model)
            improper += not is_proper(model, want[1])
    assert improper >= 10


def sparse_draws():
    """The 273 of 300 sparse draws where some policy leaves H from every state."""
    rng = np.random.default_rng(2026)
    models = [sparse_model(rng) for _ in range(300)]
    return [m for m in models if not _trapped(m.taboo_block).any()]


def test_sparse_draws_get_proper_exact_answers():
    models = sparse_draws()
    assert len(models) == 273
    infeasible = 0
    for model in models:
        s, pol = sm.safest_policy(model)
        assert is_proper(model, pol)
        assert np.abs(_exact(model, pol)[1] - s).max() <= 1e-9
        proper = sm.enumerate_admissible(model, 1.0)
        assert np.abs(proper.safety.min(axis=0) - s).max() <= 1e-9
        for t in (0.0, 1.0, 10.0):
            v, pol = improve_penalized(model, t)
            assert is_proper(model, pol)
            assert np.abs(penalized(model, pol, t) - v).max() <= 1e-9
        report = sm.dual_ascent(model, 0.5)
        assert report.feasible == sm.brute_force_constrained(model, 0.5).feasible
        assert is_proper(model, report.policy)
        infeasible += not report.feasible
    assert infeasible == 112


def zero_cost_loop_model():
    """One taboo state: a zero-cost ``loop`` in place, or ``go`` to the target at cost 1."""
    doc = {
        "states": ["s", "e"],
        "actions": ["loop", "go"],
        "partition": {"taboo": ["s"], "forbidden": [], "target": ["e"]},
        "transitions": [
            {"from": "s", "action": "loop", "to": "s", "p": 1.0},
            {"from": "s", "action": "go", "to": "e", "p": 1.0},
            {"from": "e", "action": "loop", "to": "e", "p": 1.0},
            {"from": "e", "action": "go", "to": "e", "p": 1.0},
        ],
        "rewards": [
            {"state": "s", "action": "loop", "rho": 0.0},
            {"state": "s", "action": "go", "rho": 1.0},
        ],
    }
    return sm.load_model(json.dumps(doc))


def test_zero_cost_loop_model():
    """Both actions tie at the exact values; the lowest-index one never leaves."""
    model = zero_cost_loop_model()
    s, pol = sm.safest_policy(model)
    assert s.tolist() == [0.0]
    assert pol.assignment()[0] == 1
    report = sm.dual_ascent(model, 0.5)
    assert report.feasible
    assert report.value.tolist() == [1.0]
    assert report.policy.assignment()[0] == 1
    assert sm.value(model, report.policy).tolist() == [1.0]


def test_value_iteration_leaves_zero_cost_loop():
    """The sweeps stop at once on the loop; the final ``_improve`` leaves it."""
    model = zero_cost_loop_model()
    res = sm.value_iteration(model)
    assert res.value.tolist() == [1.0] and res.residual == 0.0
    assert model.actions[res.policy.assignment()[0]] == "go"
    assert res.iterations == 1


def test_relative_vi_leaves_zero_cost_loop():
    model = zero_cost_loop_model()
    report = sm.relative_vi(model, 1.0)
    assert report.value.tolist() == [1.0]
    assert report.info["sweeps"] == 1
    assert is_proper(model, report.policy)
    assert sm.value(model, report.policy).tolist() == [1.0]


def finish(stage, Q, greedy, tol, max_iter):
    """How the sweeps ended before the certificate: ``_improve`` from their
    greedy choice, or from the witness over the finite candidates where the
    first exact solve finds that choice improper."""
    try:
        return _improve(stage, Q, greedy, tol, max_iter)
    except sm.NotTransientError:
        return _improve(stage, Q, _witness(Q, np.isfinite(stage)), tol, max_iter)


def sweep_value_iteration(model, tol=1e-10, max_iter=100_000):
    """``value_iteration`` as it was: the kernel to ``tol``, then ``finish``."""
    stage, PH = model.stage_costs, model.taboo_block
    _, greedy, sweeps = _sweep(stage, PH, None, tol, max_iter)
    v, choice = finish(stage, PH, greedy, tol, max_iter)
    return v, _greedy_policy(model, choice), sweeps


def assert_value_iteration_exact(model):
    """Bit for bit the answer of the sweeps to ``tol`` and the finish, in
    no more sweeps; the value is the exact value of the proper policy.
    Returns the sweeps (new, plain), or None where both raise."""
    try:
        v, pol, sweeps = sweep_value_iteration(model)
    except sm.NotTransientError as err:
        with pytest.raises(sm.NotTransientError) as got:
            sm.value_iteration(model)
        assert got.value.trapped == err.trapped
        return None
    res = sm.value_iteration(model)
    assert res.iterations <= sweeps
    assert np.array_equal(res.value, v)
    assert np.array_equal(res.policy.matrix, pol.matrix)
    assert is_proper(model, res.policy)
    exact = sm.value(model, res.policy)
    assert np.abs(res.value - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
    assert res.residual <= 1e-10 * max(1.0, np.abs(exact).max())
    return res.iterations, sweeps


def test_value_iteration_is_exact(ex1_model, solver_corpus, oracle_cases):
    """The certificate returns what the sweeps to ``tol`` and the finish
    return, and stops some runs before the change rule would."""
    rng = np.random.default_rng(2026)
    models = [m for m, _ in [(ex1_model, 0.5)] + solver_corpus + oracle_cases]
    counts = [assert_value_iteration_exact(m) for m in models]
    counts += [assert_value_iteration_exact(sparse_model(rng)) for _ in range(300)]
    counts = [c for c in counts if c is not None]
    assert len(counts) >= 400
    assert sum(new < plain for new, plain in counts) >= 100


def loop_beside_slow_state_model():
    """Two taboo states: ``s`` as in ``zero_cost_loop_model``, and ``t``,
    which leaves to the target with probability 1/10 at cost 1 a step
    (``loop``) or 2 (``go``), so the change rule waits for t's value 10."""
    doc = json.loads(sm.serialize_model(zero_cost_loop_model()))
    doc["states"].insert(1, "t")
    doc["partition"]["taboo"].append("t")
    doc["transitions"] += [
        {"from": "t", "action": a, "to": to, "p": p}
        for a in ("loop", "go")
        for to, p in (("t", 0.9), ("e", 0.1))
    ]
    doc["rewards"] += [
        {"state": "t", "action": "loop", "rho": 1.0},
        {"state": "t", "action": "go", "rho": 2.0},
    ]
    return sm.load_model(json.dumps(doc))


def test_certificate_declines_improper_greedy_choice():
    """At every checkpoint s's greedy choice is the zero-cost loop, which
    never leaves H, so the certificate declines it and the change rule
    stops the sweeps; the finish from the witness then leaves the loop."""
    model = loop_beside_slow_state_model()
    new, plain = assert_value_iteration_exact(model)
    assert new == plain > 4 * CERTIFY_FROM
    res = sm.value_iteration(model)
    assert [model.actions[u] for u in res.policy.assignment()[:2]] == ["go", "loop"]
    assert np.allclose(res.value, [1.0, 10.0], rtol=1e-12)


def test_certificate_stops_corridor_sweeps():
    """On a slow-mixing corridor the certificate passes at a checkpoint,
    long before the change rule, with the same answer.  The sweeps go on
    from the exact values of each failed certificate's policy, so they
    certify at sweep 128 without hazard and at 64 with it."""
    for hazard, certified in ((0.0, 128), (0.002, 64)):
        model = corridor_model(np.random.default_rng(5), 100, hazard)
        new, plain = assert_value_iteration_exact(model)
        assert new < plain / 2
        checkpoints = [CERTIFY_FROM]
        while checkpoints[-1] < new:
            checkpoints.append(checkpoints[-1] + min(checkpoints[-1], CERTIFY_GAP))
        assert new == checkpoints[-1] == certified


@pytest.mark.parametrize("hazard", [0.0, 0.002])
def test_failed_certificate_restarts_sweeps(hazard):
    """At sweep CERTIFY_FROM on a corridor the greedy choice is proper but
    its round switches states, so the next sweep starts from that policy's
    exact values.  Those bound the optimum from above: from there on the
    iterates never rise (up to a few ulps of rounding) and never fall
    below the returned value less the threshold ``tol * max(1, |v|)``."""
    tol = 1e-10
    model = corridor_model(np.random.default_rng(5), 100, hazard)
    res = sm.value_iteration(model, tol=tol, keep_history=True)
    hist = np.array(res.history)
    assert len(res.history) == res.iterations + 1
    rows, flat = _candidate_major(model.stage_costs, model.taboo_block)
    greedy = _bellman(rows, flat, hist[CERTIFY_FROM - 1]).argmin(axis=0)
    values, _, stable = _round(rows, flat, greedy, tol)
    assert not stable
    restarted = hist[CERTIFY_FROM + 1]
    assert np.array_equal(restarted, _bellman(rows, flat, values).min(axis=0))
    assert (restarted > hist[CERTIFY_FROM]).any()
    after = hist[CERTIFY_FROM + 1 :]
    scale = np.maximum(1.0, np.abs(res.value))
    assert (np.diff(after, axis=0) <= 1e-15 * scale).all()
    assert (after >= res.value - tol * scale).all()
    assert_value_iteration_exact(model)


def test_corridor_values_are_exact():
    """Exact where the sweeps end up to 3e-8 away, on a slow-mixing corridor."""
    model = corridor_model(np.random.default_rng(5), 100, 0.002)
    got = s, pol = sm.safest_policy(model)
    assert np.abs(sm.safety(model, pol) - s).max() <= 1e-12
    assert_matches_sweep(got, sweep_safest_policy(model), model)
    got = v, pol = improve_penalized(model, 0.0)
    assert np.abs(sm.value(model, pol) - v).max() <= 1e-12 * np.abs(v).max()
    assert_matches_sweep(got, sweep_penalized(model, 0.0), model)


def test_sub_threshold_gain_keeps_values_exact():
    """A gain within the threshold moves a state to the lowest-index greedy
    candidate only with the values re-solved, and only when that is proper.

    h0 exits at cost 1/2 or 1/2 - 2^-44; h1 may loop at no cost or pay 1/4
    and step to h0 with probability 1/2, an exact tie at value 1/2.
    """
    stage = np.array([[0.5, 0.5 - 2.0**-44], [0.0, 0.25]])
    Q = np.zeros((2, 2, 2))
    Q[1, 0, 1], Q[1, 1, 0] = 1.0, 0.5
    v, choice = _improve(stage[:1], Q[:1, :, :1], np.array([0]), 1e-12, 10)
    assert choice.tolist() == [1] and v.tolist() == [0.5 - 2.0**-44]
    v, choice = _improve(stage, Q, np.array([0, 1]), 1e-12, 10)
    assert choice.tolist() == [0, 1] and v.tolist() == [0.5, 0.5]


def test_round_cap_raises(ex1_model):
    """The witness on ex1 is not the unconstrained optimum, so one round is short."""
    with pytest.raises(sm.MaxIterationsError) as err:
        improve_penalized(ex1_model, 0.0, max_iter=1)
    assert err.value.last is not None


@pytest.mark.parametrize("tol", [np.nan, -1.0], ids=["nan", "negative"])
def test_bad_improvement_threshold_rejected(ex1_model, tol):
    for solve in (
        lambda: sm.safest_policy(ex1_model, tol=tol),
        lambda: improve_penalized(ex1_model, 0.0, tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            solve()
