"""Absorbing-chain analysis: block decomposition, transience, Green operator.

All functions assume the canonical state order (taboo H, forbidden U,
target E) used by :mod:`safemdp.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import NotTransientError
from .model import MdpModel, Policy, StatePartition, induced_matrix

TRANSIENCE_MARGIN = 1e-10
POWER_ITER_LIMIT = 10_000
NEUMANN_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class BlockDecomposition:
    """The nine blocks of a chain matrix in canonical (H, U, E) order.

    ``q`` is the within-taboo block, ``hu`` and ``he`` the exit blocks from H.
    The remaining blocks are retained for residual checks.
    """

    q: np.ndarray
    hu: np.ndarray
    he: np.ndarray
    uh: np.ndarray
    uu: np.ndarray
    ue: np.ndarray
    eh: np.ndarray
    eu: np.ndarray
    ee: np.ndarray


class TransienceReport(NamedTuple):
    transient: bool
    spectral_radius: float


def decompose(P: np.ndarray, partition: StatePartition) -> BlockDecomposition:
    """Split a row-stochastic chain matrix into its partition blocks.

    Parameters
    ----------
    P : ndarray, shape (n, n)
        Chain matrix with rows ordered canonically (taboo, forbidden, target).
    partition : StatePartition
        Supplies the block sizes.

    Raises
    ------
    ValueError
        If the matrix shape does not match the partition or a row does not
        sum to one.
    """
    P = np.asarray(P, dtype=float)
    h, u, e = len(partition.taboo), len(partition.forbidden), len(partition.target)
    n = h + u + e
    if P.shape != (n, n):
        raise ValueError(f"matrix has shape {P.shape}, partition implies {(n, n)}")
    sums = P.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-10)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"row {i} sums to {sums[i]:.12g}, matrix is not stochastic")
    hs, us, es = slice(0, h), slice(h, h + u), slice(h + u, n)
    return BlockDecomposition(
        q=P[hs, hs], hu=P[hs, us], he=P[hs, es],
        uh=P[us, hs], uu=P[us, us], ue=P[us, es],
        eh=P[es, hs], eu=P[es, us], ee=P[es, es],
    )


def check_transient(Q: np.ndarray) -> TransienceReport:
    """Estimate the spectral radius of the taboo block by power iteration.

    Deterministic start vector 1/|H|, at most 10^4 steps.  The block is
    declared transient when the radius estimate is below ``1 - 1e-10``.
    """
    Q = np.asarray(Q, dtype=float)
    h = Q.shape[0]
    if Q.shape != (h, h):
        raise ValueError("taboo block must be square")
    if h == 0:
        return TransienceReport(True, 0.0)
    v = np.full(h, 1.0 / h)
    radius = 0.0
    for _ in range(POWER_ITER_LIMIT):
        w = Q @ v
        norm = np.abs(w).max()
        if norm == 0.0:
            radius = 0.0
            break
        estimate = norm / np.abs(v).max()
        v = w / norm
        if abs(estimate - radius) < 1e-13:
            radius = estimate
            break
        radius = estimate
    return TransienceReport(bool(radius < 1.0 - TRANSIENCE_MARGIN), float(radius))


def _require_transient(Q: np.ndarray) -> float:
    """Raise NotTransientError unless Q is transient; return its radius estimate."""
    transient, radius = check_transient(Q)
    if not transient:
        raise NotTransientError(radius)
    return radius


def green(Q: np.ndarray) -> np.ndarray:
    """Green operator of a transient taboo block, ``G = (I - Q)^{-1}``.

    Solved densely via LU factorization.  G row i counts the expected visits
    to each taboo state before absorption when starting from state i, so
    ``G = I + Q G = I + G Q``.

    Raises
    ------
    NotTransientError
        When the power-iteration radius estimate is at or above the
        transience threshold; carries the estimate.
    """
    Q = np.asarray(Q, dtype=float)
    _require_transient(Q)
    h = Q.shape[0]
    return np.linalg.solve(np.eye(h) - Q, np.eye(h))


def green_neumann(Q: np.ndarray, tail_tol: float = NEUMANN_TAIL_TOL) -> np.ndarray:
    """Green operator by truncated Neumann series, an independent cross-check.

    Sums ``I + Q + Q^2 + ...`` until the sup-norm of the next power drops
    below ``tail_tol``.  Kept deliberately separate from :func:`green` so the
    two routes can be compared in tests.
    """
    Q = np.asarray(Q, dtype=float)
    _require_transient(Q)
    h = Q.shape[0]
    total = np.eye(h)
    term = np.eye(h)
    # Geometric decay is guaranteed by transience; the bound below is generous.
    for _ in range(10_000_000):
        term = term @ Q
        norm = np.abs(term).sum(axis=1).max() if h else 0.0
        if norm < tail_tol:
            break
        total += term
    return total


def occupation(model: MdpModel, policy: Policy, initial: np.ndarray) -> np.ndarray:
    """Expected visit counts over taboo states before absorption.

    Parameters
    ----------
    initial : ndarray, shape (n_states,)
        Initial distribution over the full state set.  Mass already on
        forbidden or target states contributes nothing here.

    Returns
    -------
    ndarray, shape (n_taboo,)
        ``gamma = initial|_H  G``.
    """
    initial = _check_initial(model, initial)
    P = induced_matrix(model, policy)
    blocks = decompose(P, model.partition)
    G = green(blocks.q)
    return initial[model.taboo_slice] @ G


def hitting(model: MdpModel, policy: Policy, initial: np.ndarray) -> np.ndarray:
    """Distribution of the state in which the process is absorbed.

    Returns
    -------
    ndarray, shape (n_forbidden + n_target,)
        Probability of finishing in each forbidden and target state,
        including any initial mass already sitting there.  Sums to one for
        transient chains.
    """
    initial = _check_initial(model, initial)
    P = induced_matrix(model, policy)
    blocks = decompose(P, model.partition)
    G = green(blocks.q)
    gamma = initial[model.taboo_slice] @ G
    exits = np.hstack([blocks.hu, blocks.he])
    return gamma @ exits + initial[model.exit_slice]


def evolution_residual(
    mu: np.ndarray, gamma: np.ndarray, lam: np.ndarray, P: np.ndarray
) -> float:
    """Sup-norm residual of the balance identity linking occupation and hitting.

    Extending ``gamma`` by zeros on exit states and ``lam`` by zeros on taboo
    states, a correct pair satisfies ``lam_full = mu + gamma_full (P - I)``.
    Returns the largest absolute violation.
    """
    mu = np.asarray(mu, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("chain matrix must be square")
    h = gamma.shape[0]
    if lam.shape[0] != n - h:
        raise ValueError(
            f"occupation ({h}) and hitting ({lam.shape[0]}) lengths do not "
            f"partition the {n} states"
        )
    if mu.shape[0] != n:
        raise ValueError(f"initial distribution has length {mu.shape[0]}, expected {n}")
    gamma_full = np.concatenate([gamma, np.zeros(n - h)])
    lam_full = np.concatenate([np.zeros(h), lam])
    residual = lam_full - mu - gamma_full @ (P - np.eye(n))
    return float(np.abs(residual).max())


def _check_initial(model: MdpModel, initial: np.ndarray) -> np.ndarray:
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (model.n_states,):
        raise ValueError(
            f"initial distribution has shape {initial.shape}, expected "
            f"{(model.n_states,)}"
        )
    if (initial < -1e-12).any() or abs(initial.sum() - 1.0) > 1e-10:
        raise ValueError("initial distribution must be nonnegative and sum to 1")
    return initial
