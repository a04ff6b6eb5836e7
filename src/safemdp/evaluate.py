"""The policy-induced chain and the exact evaluation of a fixed policy.

A policy pi induces a chain on the canonical states (taboo H, forbidden
U, target E) of :mod:`safemdp.model`.  ``decompose`` splits its taboo
rows into the block Q(pi) and the exit blocks, ``_trapped`` decides
exactly on the support graph whether Q is transient, and the Green
operator G(pi) = (I - Q)^{-1} then gives over taboo states

* value   V = G(pi) R,   the expected cost accumulated before absorption,
* safety  S = G(pi) K,   the probability of being absorbed in a forbidden state,
* reach   T = G(pi) L,   the probability of being absorbed in a target state,

where R is the policy-averaged stage cost, K the one-step mass sent to
forbidden states and L the one-step mass sent to target states (S + T = 1),
and the occupation and hitting distributions (``_absorption``).

Every exact evaluation in the package goes through one core: ``_induce``
builds the induced chain and its cost inputs, and ``_solve`` checks the
taboo block for transience once and solves ``(I - Q) X = B`` by one LU
factorization, with B = [R, K, L] (``_exact``) or, only when G itself is
returned, the identity.  ``_pure_blocks``, the kernel of the enumeration
oracles, does the same for PURE_CHUNK pure policies at once: one batched
``_trapped``, one batched solve.  The iterative evaluators live next to
the sweep kernel in :mod:`safemdp.bellman`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import CapExceededError, NotTransientError
from .model import ROW_SUM_TOL, MdpModel, Policy, StatePartition, induced_matrix

NEUMANN_TAIL_TOL = 1e-12
# Pure policies gathered and solved together by ``_pure_blocks``.
PURE_CHUNK = 1 << 12


@dataclass(frozen=True)
class BlockDecomposition:
    """The rows of a chain matrix leaving the taboo states, in (H, U, E) order.

    ``q`` is the within-taboo block, ``hu`` and ``he`` the exit blocks from H.
    """

    q: np.ndarray
    hu: np.ndarray
    he: np.ndarray


class TransienceReport(NamedTuple):
    transient: bool
    spectral_radius: float


@dataclass(frozen=True)
class CostInputs:
    """Policy-averaged stage cost and one-step exit masses over taboo states."""

    stage_cost: np.ndarray
    to_forbidden: np.ndarray
    to_target: np.ndarray


@dataclass(frozen=True)
class ChainQuantities:
    """Everything the evaluators need about one induced chain."""

    matrix: np.ndarray
    blocks: BlockDecomposition
    green: np.ndarray
    spectral_radius: float
    inputs: CostInputs


def decompose(P: np.ndarray, partition: StatePartition) -> BlockDecomposition:
    """Split the taboo rows of a row-stochastic chain matrix into its blocks.

    ``P`` (n, n) lists the states canonically (taboo, forbidden, target),
    with block sizes from ``partition``.  Raises ValueError if the shape
    does not match the partition or a row does not sum to one.
    """
    P = np.asarray(P, dtype=float)
    h, u, e = len(partition.taboo), len(partition.forbidden), len(partition.target)
    n = h + u + e
    if P.shape != (n, n):
        raise ValueError(f"matrix has shape {P.shape}, partition implies {(n, n)}")
    sums = P.sum(axis=1)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= 1e-10))[0]  # NaN sums too
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"row {i} sums to {sums[i]:.12g}, matrix is not stochastic")
    return BlockDecomposition(q=P[:h, :h], hu=P[:h, h : h + u], he=P[:h, h + u :])


def _trapped(Q: np.ndarray, valid: np.ndarray | bool = True) -> np.ndarray:
    """Taboo states from which no choice of valid candidates surely leaves H.

    ``Q`` is one block (h, h) or k candidate rows per state (..., h, k, h)
    after any batch axes, ``valid`` (..., h, k) masks the candidates, and
    the result is a mask (..., h).  A row leaks when its taboo mass is
    below ``1 - ROW_SUM_TOL``, validate_model's row-sum tolerance.  The
    kept states are the Prob1 fixpoint: those that reach a leaking row
    through candidates whose taboo successors all stay kept.  A pass
    leaves an item already at its fixpoint unchanged, and where every
    state has a valid leaking candidate, every state is kept at once.
    """
    if Q.ndim == 2:
        Q = Q[:, None, :]
    leaks = Q.sum(axis=-1) < 1.0 - ROW_SUM_TOL
    kept = np.ones(Q.shape[:-2], bool)
    if (valid & leaks).any(axis=-1).all():
        return ~kept
    support = Q > 0.0
    while True:
        escapes = (support & ~kept[..., None, None, :]).any(axis=-1)
        allowed = valid & kept[..., None] & ~escapes
        edges = (support & allowed[..., None]).any(axis=-2)
        reach = (allowed & leaks).any(axis=-1)
        grown = reach | (edges & reach[..., None, :]).any(axis=-1)
        while grown.sum() > reach.sum():
            reach, grown = grown, grown | (edges & grown[..., None, :]).any(axis=-1)
        if (reach == kept).all():
            return ~kept
        kept = reach


def _witness(Q: np.ndarray, valid: np.ndarray | bool = True) -> np.ndarray:
    """A proper choice of valid candidates, one index per state of ``Q`` (h, k, h).

    ``valid`` (h, k) masks the candidates as in ``_trapped``.  Raises
    NotTransientError when ``_trapped(Q, valid)`` finds states.  Otherwise
    peels the Prob1 set in attractor layers: each state takes its first
    valid candidate that leaks out of H or enters a lower layer.
    """
    _require_transient(Q, valid)
    support = Q > 0.0
    ready = (Q.sum(axis=-1) < 1.0 - ROW_SUM_TOL) & valid
    choice, done = np.zeros(Q.shape[0], int), np.zeros(Q.shape[0], bool)
    while not done.all():
        new = ready.any(axis=1) & ~done
        choice[new], done = ready[new].argmax(axis=1), done | new
        ready |= (support & done).any(axis=-1) & valid
    return choice


def _require_transient(Q: np.ndarray, valid: np.ndarray | bool = True) -> None:
    """Raise NotTransientError naming the states ``_trapped(Q, valid)`` finds."""
    trapped = np.flatnonzero(_trapped(Q, valid))
    if trapped.size:
        raise NotTransientError(trapped)


def _radius(Q: np.ndarray) -> float:
    """Exact spectral radius ``max|eig(Q)|`` of a taboo block (0 when empty)."""
    return float(np.abs(np.linalg.eigvals(Q)).max(initial=0.0))


def check_transient(Q: np.ndarray) -> TransienceReport:
    """Decide exactly, on the support graph, whether the taboo block is transient.

    Transient iff every taboo state reaches a row that leaks out of H.  The
    radius is the exact ``max|eig(Q)|``, which is 1 when not transient.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("taboo block must be square")
    if _trapped(Q).any():
        return TransienceReport(False, 1.0)
    return TransienceReport(True, _radius(Q))


def _induce(model: MdpModel, policy: Policy):
    """The core's input builder: induced matrix, its blocks and cost inputs.

    Raises PolicyError when the policy fails ``model._check_policy`` and
    ValueError when an induced row does not sum to one.
    """
    P = induced_matrix(model, policy)
    blocks = decompose(P, model.partition)
    pi_h = policy.matrix[: model.n_taboo]
    inputs = CostInputs(
        stage_cost=np.einsum("iu,iu->i", pi_h, model.stage_costs),
        to_forbidden=blocks.hu.sum(axis=1),
        to_target=blocks.he.sum(axis=1),
    )
    return P, blocks, inputs


def _solve(Q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The core's solve: ``(I - Q) X = rhs`` after one transience check.

    One LU factorization serves every column of ``rhs``.
    """
    _require_transient(Q)
    return np.linalg.solve(np.eye(Q.shape[0]) - Q, rhs)


def _exact(model: MdpModel, policy: Policy) -> np.ndarray:
    """Rows V, S and T of one policy: ``G(pi) [R, K, L]`` from one solve."""
    _, blocks, inputs = _induce(model, policy)
    rhs = np.column_stack((inputs.stage_cost, inputs.to_forbidden, inputs.to_target))
    return np.ascontiguousarray(_solve(blocks.q, rhs).T)


def _pure_blocks(model: MdpModel, cap: int):
    """Evaluate every pure policy, PURE_CHUNK at a time, in product order.

    Yields per block the assignments (B, h), last taboo state varying
    fastest, the transience verdicts (B,) and X (B, 3, h), C-contiguous,
    with rows V, S and T bit for bit as ``_exact`` returns them (NaN when
    not transient).  Raises CapExceededError first when m^h > ``cap``.
    """
    h, m = model.n_taboo, model.n_actions
    total = m**h
    if total > cap:
        raise CapExceededError(f"{total} pure policies exceed the cap of {cap}")
    rows = np.arange(h)
    inputs = np.stack((model.stage_costs, model.forbidden_exit, model.target_exit), 2)
    for lo in range(0, total, PURE_CHUNK):
        flat = np.arange(lo, min(total, lo + PURE_CHUNK))
        picks = np.stack(np.unravel_index(flat, (m,) * h), axis=1)
        Q, rhs = model.taboo_block[rows, picks], inputs[rows, picks]
        transient = ~_trapped(Q[:, :, None, :]).any(axis=1)
        X = np.full((len(flat), 3, h), np.nan)
        solved = np.linalg.solve(np.eye(h) - Q[transient], rhs[transient])
        X[transient] = solved.transpose(0, 2, 1)
        yield picks, transient, X


def green(Q: np.ndarray) -> np.ndarray:
    """Green operator of a transient taboo block, ``G = (I - Q)^{-1}``.

    Solved densely via LU factorization.  G row i counts the expected visits
    to each taboo state before absorption when starting from state i, so
    ``G = I + Q G = I + G Q``.

    Raises
    ------
    NotTransientError
        When some taboo state cannot reach an exit; carries those states.
    """
    Q = np.asarray(Q, dtype=float)
    return _solve(Q, np.eye(Q.shape[0]))


def green_neumann(Q: np.ndarray, tail_tol: float = NEUMANN_TAIL_TOL) -> np.ndarray:
    """Green operator by truncated Neumann series, an independent cross-check.

    Sums ``I + Q + Q^2 + ...`` until the sup-norm of the next power drops
    below ``tail_tol``.  Kept deliberately separate from :func:`green` so the
    two routes can be compared in tests.  Raises ValueError unless
    ``tail_tol`` is positive.
    """
    if not tail_tol > 0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol!r}")
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


def _absorption(model: MdpModel, blocks: BlockDecomposition, G: np.ndarray, initial):
    """Occupation ``gamma = mu_H G`` and hitting ``gamma [P_HU P_HE] + mu_exit``."""
    gamma = initial[model.taboo_slice] @ G
    exits = np.hstack([blocks.hu, blocks.he])
    return gamma, gamma @ exits + initial[model.exit_slice]


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
    _, blocks, _ = _induce(model, policy)
    return _absorption(model, blocks, green(blocks.q), initial)[0]


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
    _, blocks, _ = _induce(model, policy)
    return _absorption(model, blocks, green(blocks.q), initial)[1]


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
    if (initial < -1e-12).any() or not abs(initial.sum() - 1.0) <= 1e-10:
        raise ValueError("initial distribution must be nonnegative and sum to 1")
    return initial


def cost_inputs(model: MdpModel, policy: Policy) -> CostInputs:
    """Average the stage cost and exit masses under a policy.

    Returns
    -------
    CostInputs
        ``stage_cost[i] = sum_u pi[i, u] rho[u, i]`` and the row sums of the
        H-to-U and H-to-E blocks, all over taboo states.
    """
    return _induce(model, policy)[2]


def chain_quantities(model: MdpModel, policy: Policy) -> ChainQuantities:
    """Induced matrix, blocks, Green operator and cost inputs for one policy.

    Raises
    ------
    NotTransientError
        When the taboo block of the induced chain is not transient.
    """
    P, blocks, inputs = _induce(model, policy)
    G = _solve(blocks.q, np.eye(model.n_taboo))
    radius = _radius(blocks.q)
    return ChainQuantities(
        matrix=P, blocks=blocks, green=G, spectral_radius=radius, inputs=inputs
    )


def value(model: MdpModel, policy: Policy) -> np.ndarray:
    """Expected accumulated cost before absorption, one entry per taboo state."""
    return _exact(model, policy)[0]


def safety(model: MdpModel, policy: Policy) -> np.ndarray:
    """Probability of absorption in a forbidden state, per taboo start state."""
    return _exact(model, policy)[1]


def reach(model: MdpModel, policy: Policy) -> np.ndarray:
    """Probability of absorption in a target state, per taboo start state."""
    return _exact(model, policy)[2]
