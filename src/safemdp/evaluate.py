"""Evaluation of a fixed policy: expected cost, safety and reach probabilities.

For a policy pi with taboo block Q(pi) and Green operator G(pi), the three
headline quantities over taboo states are

* value   V = G(pi) R,   the expected cost accumulated before absorption,
* safety  S = G(pi) K,   the probability of being absorbed in a forbidden state,
* reach   T = G(pi) L,   the probability of being absorbed in a target state,

where R is the policy-averaged stage cost, K the one-step mass sent to
forbidden states and L the one-step mass sent to target states.  S + T = 1
on transient chains.

Every exact evaluation in the package goes through one core: ``_induce``
builds the induced chain and its cost inputs, and ``_solve`` checks the
taboo block for transience once and solves ``(I - Q) X = B`` by one LU
factorization, with B = [R, K, L] (``_exact``) or, only when G itself is
returned, the identity.  ``_pure_blocks``, the kernel of the enumeration
oracles, does the same for PURE_CHUNK pure policies at once: one batched
``_trapped``, one batched solve.  The iterative evaluators run the sweep
kernel of :mod:`safemdp.bellman` with one candidate per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import BlockDecomposition, _require_transient, _trapped, decompose
from .exceptions import CapExceededError
from .model import MdpModel, Policy, induced_matrix

# Pure policies gathered and solved together by ``_pure_blocks``.
PURE_CHUNK = 1 << 12


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


def _induce(model: MdpModel, policy: Policy):
    """The core's input builder: induced matrix, its blocks and cost inputs.

    Raises PolicyError when the policy shape does not match the model and
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
    radius = float(np.abs(np.linalg.eigvals(blocks.q)).max(initial=0.0))
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


def value_iterative(
    model: MdpModel,
    policy: Policy,
    v0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, int]:
    """Fixed-point iteration ``V <- R + Q V`` for the policy value.

    Returns the final iterate and the number of sweeps taken.  Raises
    MaxIterationsError (carrying the last iterate) when the sup-norm change
    still exceeds ``tol`` after ``max_iter`` sweeps.
    """
    return _iterate_policy(model, policy, "stage_cost", v0, tol, max_iter)


def safety_iterative(
    model: MdpModel,
    policy: Policy,
    s0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, int]:
    """Fixed-point iteration ``S <- Q S + K`` for the policy safety."""
    return _iterate_policy(model, policy, "to_forbidden", s0, tol, max_iter)


def _iterate_policy(model, policy, offset, x0, tol, max_iter):
    from .bellman import _sweep  # bellman imports this module

    _, blocks, inputs = _induce(model, policy)
    x0 = np.zeros(model.n_taboo) if x0 is None else x0
    stage = getattr(inputs, offset)[:, None]
    x, _, sweeps = _sweep(stage, blocks.q[:, None, :], x0, tol, max_iter)
    return x, sweeps


def set_safety(safety_vector: np.ndarray, states) -> float:
    """Worst-case safety over a non-empty set of taboo state indices."""
    idx = np.asarray(list(states), dtype=int)
    if idx.size == 0:
        raise ValueError("state set must be non-empty")
    s = np.asarray(safety_vector, dtype=float)
    if idx.min() < 0 or idx.max() >= s.shape[0]:
        raise ValueError("state index out of range for the safety vector")
    return float(s[idx].max())
