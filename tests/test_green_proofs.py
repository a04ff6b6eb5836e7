"""The two facts the evaluation core reads from the Green operator.

``_solve`` proves transience from the exit times tau = G 1 and runs the
graph search ``_trapped`` only where that proof fails; ``_radius``
brackets the spectral radius by Collatz-Wielandt bounds of power
iterates of G and calls eigvals only where the bracket does not settle
the 12-digit report token.  The rounding bounds are checked against
exact rational arithmetic, the verdicts against ``_trapped`` at the leak
threshold, and the radius against eigvals.
"""
from fractions import Fraction

import numpy as np
import pytest

import safemdp as sm
from corpus import _fill, corridor_model
from safemdp import evaluate
from safemdp.evaluate import (
    _collatz_wielandt,
    _leaks,
    _proves_transient,
    _radius,
    _solve,
    _transience_residual,
    _trapped,
)


def random_blocks(seed, count, max_h=6):
    """Substochastic float blocks, some rows leaking, some of mass about 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h = int(rng.integers(1, max_h + 1))
        Q = rng.random((h, h)) * (rng.random((h, h)) < 0.7)
        Q /= np.maximum(Q.sum(axis=1, keepdims=True), 1e-300)
        mass = np.where(rng.random(h) < 0.5, 1.0, rng.uniform(0.3, 1.0, h))
        yield Q * mass[:, None]


def exit_times(Q):
    """tau = (I - Q)^{-1} 1, or NaN where I - Q is singular."""
    try:
        return np.linalg.solve(np.eye(len(Q)) - Q, np.ones(len(Q)))
    except np.linalg.LinAlgError:
        return np.full(len(Q), np.nan)


def exact_residual(Q, tau, leaks):
    """``m_i tau_i - (Q tau)_i`` in rationals, ``m_i`` 1 or the row's exact mass."""
    out = []
    for i in range(Q.shape[0]):
        row = [Fraction(q) for q in Q[i]]
        mass = Fraction(1) if leaks[i] else sum(row)
        out.append(mass * Fraction(tau[i]) - sum(q * Fraction(t) for q, t in zip(row, tau)))
    return out


def test_residual_bound_covers_the_exact_residual():
    rng = np.random.default_rng(5)
    checked = 0
    for Q in random_blocks(11, 200):
        h = Q.shape[0]
        tau = exit_times(Q) if rng.random() < 0.5 else rng.random(h)
        if not (tau > 0).all() or not np.isfinite(tau).all():
            continue
        leaks = _leaks(Q)
        residual, bound = _transience_residual(Q, tau, leaks)
        for got, err, exact in zip(residual, bound, exact_residual(Q, tau, leaks)):
            assert abs(exact - Fraction(got)) <= Fraction(err)
        checked += 1
    assert checked > 150


def test_collatz_wielandt_bracket_holds_the_exact_ratios():
    rng = np.random.default_rng(6)
    for Q in random_blocks(12, 150):
        x = rng.uniform(1e-3, 1.0, Q.shape[0])
        lo, hi = _collatz_wielandt(Q, x)
        ratios = [
            sum(Fraction(q) * Fraction(v) for q, v in zip(row, x)) / Fraction(xi)
            for row, xi in zip(Q, x)
        ]
        assert Fraction(lo) <= min(ratios) and max(ratios) <= Fraction(hi)


def threshold_blocks(eps):
    """Blocks whose only leak out of H is ``eps`` of mass, at and around the threshold."""
    yield np.array([[1.0 - eps]])
    yield np.array([[0.0, 1.0], [1.0 - eps, 0.0]])
    yield np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5 - eps], [0.25, 0.75, 0.0]])
    walk = np.zeros((6, 6))
    for i in range(6):
        walk[i, max(i - 1, 0)] += 0.5
        walk[i, min(i + 1, 5)] += 0.5
    walk[5] *= 1.0 - eps
    yield walk
    closed = np.zeros((4, 4))
    closed[0, 1] = closed[1, 0] = 1.0
    closed[2, 3], closed[3, 2] = 1.0 - eps, 0.5
    yield closed


@pytest.mark.parametrize("eps", [1e-11, 1e-12, 1e-13])
def test_verdicts_at_the_leak_threshold_match_the_graph_rule(eps, monkeypatch):
    searched = []
    monkeypatch.setattr(evaluate, "_trapped", lambda *a: searched.append(1) or _trapped(*a))
    for Q in threshold_blocks(eps):
        trapped = tuple(np.flatnonzero(_trapped(Q)))
        searched.clear()
        if trapped:
            with pytest.raises(sm.NotTransientError) as err:
                _solve(Q, np.ones(len(Q)))
            assert err.value.trapped == trapped
        else:
            X = _solve(Q, np.ones(len(Q)))
            assert X.tobytes() == np.linalg.solve(np.eye(len(Q)) - Q, np.ones(len(Q))).tobytes()
        assert sm.check_transient(Q).transient == (not trapped)
        # The graph search ran exactly where the proof could not decide.
        leaks = _leaks(Q)
        assert bool(searched) == (not leaks.all() and not _proves_transient(Q, exit_times(Q), leaks))
        if eps > 1e-12 and not trapped:
            assert not searched  # a leak above the threshold is proven, not searched


def test_no_proof_where_a_state_is_trapped():
    """A closed class never passes: its residuals sum to zero or less."""
    for Q in threshold_blocks(1e-13):
        tau = np.linalg.solve(np.eye(len(Q)) - Q + 1e-3 * np.eye(len(Q)), np.ones(len(Q)))
        assert not _proves_transient(Q, tau, _leaks(Q))


def test_reducible_block():
    """Two classes, one slow (0.2) and one fast (0.9): transience is proven
    either way.  Where the slow state leads into the fast class, its
    iterate takes the fast rate and the bracket settles; where the fast
    class leads into the slow state, that state's ratio stays 0.2, the
    bracket cannot close and eigvals answers."""
    feeds_slow = np.array([[0.5, 0.4, 0.05], [0.4, 0.5, 0.0], [0.0, 0.0, 0.2]])
    fed_by_slow = np.array([[0.2, 0.3, 0.0], [0.0, 0.5, 0.4], [0.0, 0.4, 0.5]])
    for Q in (feeds_slow, fed_by_slow):
        assert _proves_transient(Q, exit_times(Q), _leaks(Q))
        radius = float(np.abs(np.linalg.eigvals(Q)).max())
        assert abs(radius_by(Q) - radius) <= 1e-12
    assert answered_by_bracket(fed_by_slow)
    assert not answered_by_bracket(feeds_slow)


def radius_by(Q):
    return _radius(Q, _solve(Q))


def answered_by_bracket(Q):
    """Whether ``_radius`` answers from the bracket, with no size cut-off."""
    calls = []
    eigvals = np.linalg.eigvals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "RADIUS_EIG_BELOW", 0)
        mp.setattr(np.linalg, "eigvals", lambda Q: calls.append(1) or eigvals(Q))
        radius_by(Q)
    return not calls


def test_nilpotent_block_falls_back(ex1_model, ex1_policy):
    Q = sm.decompose(sm.induced_matrix(ex1_model, ex1_policy), ex1_model.partition).q
    assert not answered_by_bracket(Q)
    assert radius_by(Q) < 1e-6


def test_periodic_block_is_bracketed():
    Q = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert answered_by_bracket(Q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "RADIUS_EIG_BELOW", 0)
        assert sm.check_transient(Q).spectral_radius == pytest.approx(np.sqrt(0.5), abs=1e-12)


def corridor_block(seed, hazard, solver):
    model = corridor_model(np.random.default_rng(seed), 100, hazard)
    if solver == "safest":
        policy = sm.safest_policy(model)[1]
    else:
        policy = sm.value_iteration(model).policy
    return model, policy, model.taboo_block[np.arange(100), policy.assignment()[:100]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hazard_free_corridor_needs_no_search(seed, monkeypatch):
    """Only the two end states leak; the exit times prove the block transient,
    every number is the plain solve's, and the radius needs no eigvals."""
    model, policy, Q = corridor_block(seed, 0.0, "value_iteration")
    assert _leaks(Q).sum() == 2
    monkeypatch.setattr(evaluate, "_trapped", None)
    rhs = np.column_stack((model.stage_costs[np.arange(100), policy.assignment()[:100]],
                           np.ones(100)))
    A = np.eye(100) - Q
    assert _solve(Q, rhs).tobytes() == np.linalg.solve(A, rhs).tobytes()
    assert _solve(Q, rhs[:, 0]).tobytes() == np.linalg.solve(A, rhs[:, 0]).tobytes()
    assert _solve(Q).tobytes() == np.linalg.solve(A, np.eye(100)).tobytes()
    assert answered_by_bracket(Q)
    assert abs(radius_by(Q) - float(np.abs(np.linalg.eigvals(Q)).max())) <= 1e-12


def test_safest_corridor_falls_back_to_eigvals():
    """The safest policy's corridor converges slowly; this one never settles its
    12th digit within RADIUS_SQUARINGS squarings, and eigvals answers."""
    _, _, Q = corridor_block(0, 0.0, "safest")
    assert not answered_by_bracket(Q)
    assert radius_by(Q) == float(np.abs(np.linalg.eigvals(Q)).max())


def test_bracket_corrects_eigvals_in_the_twelfth_digit():
    """On this safest-policy corridor eigvals is 3.9e-12 off: exact rational
    Collatz-Wielandt bounds from a power iterate hold the bracket's answer
    and exclude eigvals' token."""
    _, _, Q = corridor_block(2, 0.0, "safest")
    radius = radius_by(Q)
    eig = float(np.abs(np.linalg.eigvals(Q)).max())
    assert f"{radius:.12g}" != f"{eig:.12g}"
    G = np.linalg.inv(np.eye(100) - Q)
    x = G.sum(axis=1)
    for _ in range(400):
        x = G @ x
        x /= x.max()
    fx = [Fraction(v) for v in x]
    ratios = [
        sum(Fraction(Q[i, j]) * fx[j] for j in np.flatnonzero(Q[i])) / fx[i]
        for i in range(100)
    ]
    lo, hi = float(min(ratios)), float(max(ratios))
    assert f"{lo:.12g}" == f"{hi:.12g}" == f"{radius:.12g}"


def block_cases(chain_corpus, oracle_cases):
    """Taboo blocks of the corpora's policies and of bench-shaped models."""
    for model, policy, _ in chain_corpus:
        yield sm.decompose(sm.induced_matrix(model, policy), model.partition).q
    for model, _ in oracle_cases:
        if sm.check_transient(model.taboo_block[:, 0]).transient:
            yield model.taboo_block[:, 0]
    rng = np.random.default_rng(32)
    for k in range(4):
        yield corridor_block(10 + k, (0.0, 0.001, 0.002, 0.005)[k], "value_iteration")[2]
        dense = _fill(rng, 100, 1, 2, 3, 0.1)
        policy = sm.value_iteration(dense).policy
        yield dense.taboo_block[np.arange(100), policy.assignment()[:100]]


def test_radius_matches_eigvals(chain_corpus, oracle_cases):
    bracketed = total = 0
    for Q in block_cases(chain_corpus, oracle_cases):
        total += 1
        bracketed += answered_by_bracket(Q)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "RADIUS_EIG_BELOW", 0)
            radius = radius_by(Q)
        assert abs(radius - float(np.abs(np.linalg.eigvals(Q)).max())) <= 1e-12
    assert bracketed > total // 2
