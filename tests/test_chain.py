"""Block decomposition, transience, Green operator, occupation and hitting."""
import json

import numpy as np
import pytest

import safemdp as sm

RECURRENT_DOC = json.dumps(
    {
        "states": ["h0", "h1", "e0"],
        "actions": ["a0"],
        "partition": {"taboo": ["h0", "h1"], "forbidden": [], "target": ["e0"]},
        "transitions": [
            {"from": "h0", "action": "a0", "to": "h1", "p": 1.0},
            {"from": "h1", "action": "a0", "to": "h0", "p": 1.0},
            {"from": "e0", "action": "a0", "to": "e0", "p": 1.0},
        ],
        "rewards": [
            {"state": "h0", "action": "a0", "rho": 1.0},
            {"state": "h1", "action": "a0", "rho": 1.0},
        ],
    }
)


def test_decompose_golden(ex1_model, ex1_policy):
    P = sm.induced_matrix(ex1_model, ex1_policy)
    blocks = sm.decompose(P, ex1_model.partition)
    assert np.allclose(blocks.q, [[0, 0, 0], [0.8, 0, 0.2], [1, 0, 0]], atol=1e-15)
    assert np.allclose(blocks.hu, [[0.4], [0], [0]], atol=1e-15)
    assert np.allclose(blocks.he, [[0.6], [0], [0]], atol=1e-15)
    stacked = np.hstack([blocks.q, blocks.hu, blocks.he])
    assert np.abs(stacked.sum(axis=1) - 1.0).max() <= 1e-12


def test_decompose_rejects_non_square(ex1_model):
    with pytest.raises(ValueError):
        sm.decompose(np.ones((3, 5)), ex1_model.partition)


def test_decompose_rejects_nan_row(ex1_model, ex1_policy):
    """A NaN row sum used to pass the ``abs(sum - 1) > tol`` test."""
    P = sm.induced_matrix(ex1_model, ex1_policy).copy()
    P[1, 0] = np.nan
    with pytest.raises(ValueError, match="row 1 sums to nan, matrix is not stochastic"):
        sm.decompose(P, ex1_model.partition)


def test_decompose_rejects_opposite_infinities(ex1_model, ex1_policy):
    """inf - inf sums to NaN without a RuntimeWarning, which tier-1's
    ``error::RuntimeWarning`` filter would raise in the ValueError's place."""
    P = sm.induced_matrix(ex1_model, ex1_policy).copy()
    P[0, :2] = [np.inf, -np.inf]
    with pytest.raises(ValueError, match="row 0 sums to nan, matrix is not stochastic"):
        sm.decompose(P, ex1_model.partition)


def test_transient_on_nilpotent_block(ex1_model, ex1_policy):
    P = sm.induced_matrix(ex1_model, ex1_policy)
    Q = sm.decompose(P, ex1_model.partition).q
    report = sm.check_transient(Q)
    assert report.transient
    assert report.spectral_radius < 1e-6


def test_recurrent_block_detected():
    model = sm.load_model(RECURRENT_DOC)
    pol = sm.pure_policy(model, {0: 0, 1: 0})
    Q = sm.decompose(sm.induced_matrix(model, pol), model.partition).q
    report = sm.check_transient(Q)
    assert not report.transient
    assert report.spectral_radius == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(sm.NotTransientError) as err:
        sm.green(Q)
    assert err.value.spectral_radius == pytest.approx(1.0, abs=1e-9)


def test_green_golden(ex1_model, ex1_policy):
    """Closed form: visits to a from anywhere are certain, b reaches c with p_bc."""
    P = sm.induced_matrix(ex1_model, ex1_policy)
    Q = sm.decompose(P, ex1_model.partition).q
    G = sm.green(Q)
    assert np.allclose(G, [[1, 0, 0], [1, 1, 0.2], [1, 0, 1]], atol=1e-12)
    h = Q.shape[0]
    assert np.abs(G - np.eye(h) - Q @ G).max() <= 1e-10
    assert np.abs(G - np.eye(h) - G @ Q).max() <= 1e-10
    assert (G >= 0).all()


def test_green_neumann_agrees(ex1_model, ex1_policy):
    Q = sm.decompose(
        sm.induced_matrix(ex1_model, ex1_policy), ex1_model.partition
    ).q
    assert np.abs(sm.green(Q) - sm.green_neumann(Q)).max() <= 1e-12


def test_green_neumann_geometric():
    Q = np.array([[0.5]])
    assert sm.green_neumann(Q)[0, 0] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("tail_tol", [0.0, -1e-12, np.nan, -np.inf])
def test_green_neumann_rejects_tail_tol(tail_tol):
    """The stop test ``norm < tail_tol`` never held: 10^7 products ran silently."""
    with pytest.raises(ValueError, match="tail_tol must be positive"):
        sm.green_neumann(np.array([[0.5]]), tail_tol=tail_tol)


@pytest.mark.parametrize("entry", [sm.check_transient, sm.green, sm.green_neumann])
@pytest.mark.parametrize("Q", [
    [[0.5, np.inf], [0.0, 0.5]],  # green gave all NaN, check_transient a LinAlgError
    [[np.nan]],  # called not transient
    [[-0.5]],  # called transient with radius 0.5
    [[1.5]],  # given radius 1.0
    [[0.5, 0.5 + 1e-9], [0.0, 0.0]],  # above decompose's 1e-10 row-sum tolerance
], ids=["inf", "nan", "negative", "above-one", "row-sum"])
def test_raw_block_entry_points_reject_a_bad_block(entry, Q):
    with pytest.raises(ValueError, match="taboo block must be finite, nonnegative"):
        entry(Q)


@pytest.mark.parametrize("entry", [sm.check_transient, sm.green, sm.green_neumann])
def test_raw_block_entry_points_take_rows_within_tolerance(entry):
    """A row less than 1e-10 above 1 passes the block check; it does not
    leak, so its state is trapped."""
    Q = [[1.0 + 1e-11]]
    if entry is sm.check_transient:
        assert entry(Q) == (False, 1.0)
    else:
        with pytest.raises(sm.NotTransientError):
            entry(Q)


def test_occupation_hitting_golden(ex1_model, ex1_policy):
    """Uniform start over taboo states, golden policy."""
    mu = np.array([1 / 3, 1 / 3, 1 / 3, 0, 0])
    gamma = sm.occupation(ex1_model, ex1_policy, mu)
    lam = sm.hitting(ex1_model, ex1_policy, mu)
    assert np.allclose(gamma, [1.0, 1 / 3, 0.4], atol=1e-12)
    assert np.allclose(lam, [0.4, 0.6], atol=1e-12)
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)


def test_initial_mass_already_absorbed(ex1_model, ex1_policy):
    mu = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(sm.occupation(ex1_model, ex1_policy, mu), 0.0)
    assert np.allclose(sm.hitting(ex1_model, ex1_policy, mu), [1.0, 0.0])


def test_initial_must_be_distribution(ex1_model, ex1_policy):
    with pytest.raises(ValueError):
        sm.occupation(ex1_model, ex1_policy, np.array([1.0, 1.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        sm.occupation(ex1_model, ex1_policy, np.array([1.0, 0, 0, 0]))
    # A NaN sum used to pass and give NaN visit counts.
    with pytest.raises(ValueError, match="sum to 1"):
        sm.occupation(ex1_model, ex1_policy, np.array([np.nan, 0, 0, 0, 0]))


def test_evolution_residual_golden(ex1_model, ex1_policy):
    mu = np.array([0.2, 0.5, 0.3, 0, 0])
    gamma = sm.occupation(ex1_model, ex1_policy, mu)
    lam = sm.hitting(ex1_model, ex1_policy, mu)
    P = sm.induced_matrix(ex1_model, ex1_policy)
    assert sm.evolution_residual(mu, gamma, lam, P) <= 1e-12


def test_evolution_residual_detects_wrong_pair(ex1_model, ex1_policy):
    mu = np.array([1.0, 0, 0, 0, 0])
    gamma = sm.occupation(ex1_model, ex1_policy, mu)
    lam = sm.hitting(ex1_model, ex1_policy, mu)
    P = sm.induced_matrix(ex1_model, ex1_policy)
    assert sm.evolution_residual(mu, gamma + 0.05, lam, P) > 1e-3


def test_evolution_residual_shape_check(ex1_model, ex1_policy):
    P = sm.induced_matrix(ex1_model, ex1_policy)
    with pytest.raises(ValueError):
        sm.evolution_residual(np.ones(5) / 5, np.zeros(3), np.zeros(3), P)


@pytest.mark.parametrize(
    "mu,rows,message",
    [
        (np.ones(5) / 5, 4, "chain matrix must be square"),
        (np.ones(4) / 4, 5, "initial distribution has length 4, expected 5"),
    ],
    ids=["non-square", "initial length"],
)
def test_evolution_residual_rejects_shapes(ex1_model, ex1_policy, mu, rows, message):
    P = sm.induced_matrix(ex1_model, ex1_policy)[:rows]
    with pytest.raises(ValueError, match=message):
        sm.evolution_residual(mu, np.zeros(3), np.zeros(2), P)


def test_check_transient_rejects_non_square():
    with pytest.raises(ValueError, match="taboo block must be square"):
        sm.check_transient(np.zeros((2, 3)))
