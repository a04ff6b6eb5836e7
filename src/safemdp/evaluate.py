"""The policy-induced chain and the exact evaluation of a fixed policy.

A policy pi induces a chain on the canonical states (taboo H, forbidden
U, target E) of :mod:`safemdp.model`.  ``decompose`` splits its taboo
rows into the block Q(pi) and the exit blocks, and the Green operator
G(pi) = (I - Q)^{-1} of a transient block gives over taboo states

* value   V = G(pi) R,   the expected cost accumulated before absorption,
* safety  S = G(pi) K,   the probability of being absorbed in a forbidden state,
* reach   T = G(pi) L,   the probability of being absorbed in a target state,

where R is the policy-averaged stage cost, K the one-step mass sent to
forbidden states and L the one-step mass sent to target states (S + T = 1),
and the occupation and hitting distributions (``_absorption``).

Every exact evaluation in the package goes through one core: ``_induce``
builds the induced chain and its cost inputs, and ``_solve`` solves
``(I - Q) X = B`` by one LU factorization, with B = [R, K, L]
(``_exact``) or, only when G itself is returned, the identity.  Where
every taboo row leaks out of H the block is transient as it stands.
Elsewhere the exit-time column tau = G 1, solved with the same LU,
proves it: ``_transience_residual`` bounds tau - Q' tau > 0 rigorously
in floating point, for the block Q' in which the rows that do not leak
carry mass exactly 1.  Only where that proof fails does ``_witness`` run
``_trapped``, the one search of the support graph (the Prob1 fixpoint),
and read a proper choice off its attractor layers.  ``_radius``
brackets the spectral radius by the Collatz-Wielandt bounds of power
iterates of G.  ``_pure_blocks``, the kernel of the enumeration oracles,
evaluates PURE_CHUNK pure policies at once: one batched ``_trapped``,
one batched solve.  The iterative evaluators live next to the sweep
kernel in :mod:`safemdp.bellman`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import CapExceededError, NotTransientError
from .model import ROW_SUM_TOL, MdpModel, Policy, StatePartition, _check_count, induced_matrix

NEUMANN_TAIL_TOL = 1e-12
# Pure policies gathered and solved together by ``_pure_blocks``.
PURE_CHUNK = 1 << 12
# Unit roundoff of float64 and its least subnormal, for rounding bounds.
_UNIT = np.finfo(float).eps / 2
_SUBNORMAL = float(np.nextafter(0.0, 1.0))
# ``_radius`` squares G at most this often (the bracket's iterate reaches
# G^(2^k - 1) tau after k squarings) before it falls back to eigvals.
RADIUS_SQUARINGS = 12
# Below this many taboo states ``_radius`` takes eigvals at once, which is
# as fast or faster there than the 5-6 squarings a 12-digit bracket needs:
# on dense random blocks, one core, eigvals takes 21, 100, 162 and 3,000 us
# at 7, 24, 32 and 100 states, the bracket 123, 103, 108 and 301 us.
RADIUS_EIG_BELOW = 32


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
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN sum
        sums = P.sum(axis=1)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= 1e-10))[0]  # NaN sums too
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"row {i} sums to {sums[i]:.12g}, matrix is not stochastic")
    return BlockDecomposition(q=P[:h, :h], hu=P[:h, h : h + u], he=P[:h, h + u :])


def _leaks(Q: np.ndarray) -> np.ndarray:
    """Rows whose taboo mass is below ``1 - ROW_SUM_TOL``, validate_model's row-sum tolerance."""
    return Q.sum(axis=-1) < 1.0 - ROW_SUM_TOL


def _trapped(Q: np.ndarray, valid: np.ndarray | bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The mask of taboo states no valid choice surely leads out of H, and layers.

    ``Q`` is one block (h, h) or k candidate rows per state (..., h, k, h)
    after any batch axes, ``valid`` (..., h, k) masks the candidates; mask
    and layers are (..., h).  A row leaks as ``_leaks`` says.  The kept
    states are the Prob1 fixpoint: those that reach a leaking row through
    candidates whose taboo successors all stay kept.  A kept state's
    layer is the pass of the last round in which it first reaches a
    leaking row or a lower layer; trapped states lie above them all.  An
    item at its fixpoint stays so; where every state has a valid leaking
    candidate, all are kept in layer 0 at once.
    """
    if Q.ndim == 2:
        Q = Q[:, None, :]
    leaks = _leaks(Q)
    kept = np.ones(Q.shape[:-2], bool)
    if (valid & leaks).any(axis=-1).all():
        return ~kept, np.zeros(kept.shape, int)
    support = Q > 0.0
    while True:
        escapes = (support & ~kept[..., None, None, :]).any(axis=-1)
        allowed = valid & kept[..., None] & ~escapes
        edges = (support & allowed[..., None]).any(axis=-2)
        reach = (allowed & leaks).any(axis=-1)
        passes = [reach]
        grown = reach | (edges & reach[..., None, :]).any(axis=-1)
        while grown.sum() > reach.sum():
            passes.append(grown)
            reach, grown = grown, grown | (edges & grown[..., None, :]).any(axis=-1)
        if (reach == kept).all():
            return ~kept, len(passes) - np.sum(passes, axis=0)
        kept = reach


def _witness(Q: np.ndarray, valid: np.ndarray | bool = True) -> np.ndarray:
    """A proper choice of valid candidates of ``Q`` (h, k, h) or (h, h), one per state.

    ``valid`` (h, k) masks the candidates as in ``_trapped``.  Raises
    NotTransientError naming the states ``_trapped`` finds.  Otherwise
    each state takes its first valid candidate that leaks out of H or
    enters a strictly lower layer of ``_trapped``.
    """
    if Q.ndim == 2:
        Q = Q[:, None, :]
    trapped, layer = _trapped(Q, valid)
    if trapped.any():
        raise NotTransientError(np.flatnonzero(trapped))
    ready = valid & _leaks(Q)
    if layer.any():  # only then can a support reach a lower layer
        ready |= valid & ((Q > 0.0) & (layer < layer[:, None])[:, None, :]).any(axis=-1)
    return ready.argmax(axis=1)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _transience_residual(
    Q: np.ndarray, tau: np.ndarray, leaks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The residual of ``tau`` against ``Q'`` in floating point, and a bound on its error.

    ``Q'`` is ``Q`` with each row that does not leak (``leaks`` False)
    scaled to mass exactly 1.  Row i's residual is ``m_i tau_i - (Q
    tau)_i``, with ``m_i`` 1 where the row leaks and its mass otherwise:
    the residual ``tau_i - (Q' tau)_i`` times the row's mass, so it has
    the same sign and needs no division.  For ``Q >= 0`` and finite
    ``tau > 0`` the exact residual lies within the bound of the computed
    one: gamma_(h+3) times ``m_i tau_i + (Q tau)_i``, the componentwise
    residual bound ``|A| |x|`` of Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, §3.5, with one more rounding for the
    mass, plus a term for products below the normal range.
    """
    h = Q.shape[0]
    ahead = Q @ tau
    held = np.where(leaks, 1.0, Q.sum(axis=1)) * tau
    return held - ahead, _gamma(h + 3) * (held + ahead) + 4 * (h + 1) * _SUBNORMAL


def _proves_transient(Q: np.ndarray, tau: np.ndarray, leaks: np.ndarray) -> bool:
    """Whether ``tau`` proves that ``_trapped(Q)`` finds no state.

    The proof holds where ``Q >= 0``, ``tau`` is finite and positive and
    every residual of ``_transience_residual`` exceeds its bound.  Then
    ``Q' tau < tau``, so by Collatz-Wielandt the spectral radius of
    ``Q'`` is below 1 and every state reaches a row that leaks.  ``Q'``
    has the support and the leaking rows of ``Q`` and no other row
    leaks, so that is the verdict of the graph rule with its threshold.
    """
    if not ((tau > 0.0) & (tau < np.inf)).all() or not (Q >= 0.0).all():
        return False
    residual, bound = _transience_residual(Q, tau, leaks)
    return bool((residual > bound).all())


def _collatz_wielandt(Q: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """A proven bracket of the spectral radius of ``Q >= 0`` from finite ``x > 0``.

    The Collatz-Wielandt bounds ``min_i (Qx)_i / x_i <= rho(Q) <= max_i
    (Qx)_i / x_i`` (Berman & Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*, 1994, ch. 2), each moved outward by the
    rounding error of the product and the quotient.
    """
    ratio = (Q @ x) / x
    gamma = _gamma(Q.shape[0] + 3)
    slack = 4 * (Q.shape[0] + 1) * _SUBNORMAL / x.min()
    return ratio.min() * (1.0 - gamma) - slack, ratio.max() * (1.0 + gamma) + slack


def _radius(Q: np.ndarray, G: np.ndarray) -> float:
    """Spectral radius of a transient taboo block ``Q`` with Green operator ``G``.

    From x = tau, the row sums of G, each iterate is ``x <- M x`` and
    then ``M <- M^2``, starting from M = G (each normalized to maximum
    1), so after k squarings x is ``G^(2^k - 1) tau``.  G has Q's
    eigenvectors, and the Perron one dominates, so x tends to it.  The
    answer is the middle of the first ``_collatz_wielandt`` bracket whose
    ends give the same 12-significant-digit report token.  Blocks below
    RADIUS_EIG_BELOW states, blocks with a negative entry, a bracket that
    stops narrowing and RADIUS_SQUARINGS squarings without agreement
    fall back to ``max|eig(Q)|`` (0 when empty).
    """
    x = G.sum(axis=1)
    if len(x) >= RADIUS_EIG_BELOW and (Q >= 0.0).all():
        M, width = G / G.max(), np.inf
        for _ in range(RADIUS_SQUARINGS):
            if not ((x > 0.0) & (x < np.inf)).all():
                break
            lo, hi = _collatz_wielandt(Q, x)
            if f"{lo:.12g}" == f"{hi:.12g}":
                return float(0.5 * (lo + hi))
            if not hi - lo < width:
                break
            width, x = hi - lo, M @ (x / x.max())
            M = M @ M
            M /= M.max()
    return float(np.abs(np.linalg.eigvals(Q)).max(initial=0.0))


def _check_block(Q) -> np.ndarray:
    """A raw taboo block as a float array; ValueError unless it is square,
    finite, nonnegative and no row sums above 1 (``decompose``'s 1e-10)."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("taboo block must be square")
    if not (((Q >= 0.0) & (Q < np.inf)).all() and (Q.sum(axis=1) <= 1.0 + 1e-10).all()):
        raise ValueError("taboo block must be finite, nonnegative and substochastic")
    return Q


def check_transient(Q: np.ndarray) -> TransienceReport:
    """Whether the taboo block is transient, and its spectral radius.

    Transient iff every taboo state reaches a row that leaks out of H,
    decided as ``_solve`` decides it: by the exit-time proof, else on the
    support graph.  The radius is ``_radius``'s, and 1 when not transient.
    """
    Q = _check_block(Q)
    try:
        G = _solve(Q)
    except NotTransientError:
        return TransienceReport(False, 1.0)
    return TransienceReport(True, _radius(Q, G))


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


def _solve(Q: np.ndarray, rhs: np.ndarray | None = None, left: np.ndarray | None = None):
    """The core's solve: ``(I - Q) X = rhs``, the identity when ``rhs`` is None.

    One LU factorization serves every column of ``rhs``.  Where every
    row of ``Q`` leaks, that is all.  Elsewhere the exit times tau =
    (I - Q)^{-1} 1 go to ``_proves_transient``, and only where they
    prove nothing does ``_trapped`` run: NotTransientError names the
    states it finds.  tau is the row sums of G for the identity and one
    more column of a matrix ``rhs``, which leaves the other columns'
    bits as they were.  A vector ``rhs`` keeps its own solve and tau
    gets a second one: the BLAS solves a single column with another
    kernel than several, and its bits would change.  ``left`` (h,) adds y,
    ``y (I - Q) = left`` by an LU of the transpose once Q is proven: ``(X, y)``.
    """
    h = Q.shape[0]
    A, leaks = np.eye(h) - Q, _leaks(Q)
    try:
        if leaks.all():
            X = np.linalg.solve(A, np.eye(h) if rhs is None else rhs)
        else:
            if rhs is None:
                X = np.linalg.solve(A, np.eye(h))
                tau = X.sum(axis=1)
            elif rhs.ndim == 1:
                X, tau = np.linalg.solve(A, rhs), np.linalg.solve(A, np.ones(h))
            else:
                X = np.linalg.solve(A, np.column_stack((rhs, np.ones(h))))
                X, tau = X[:, :-1], X[:, -1]
            if not _proves_transient(Q, tau, leaks):
                _witness(Q)
    except np.linalg.LinAlgError:  # I - Q is singular where a state is trapped
        _witness(Q)
        raise
    return X if left is None else (X, np.linalg.solve(A.T, left))


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
    not transient).  Raises ValueError first unless ``_check_count`` takes
    ``cap``, then CapExceededError when m^h > ``cap``.
    """
    h, m = model.n_taboo, model.n_actions
    total = m**h
    if total > _check_count(cap, "cap", 0):
        raise CapExceededError(f"{total} pure policies exceed the cap of {cap}")
    rows = np.arange(h)
    inputs = np.stack((model.stage_costs, model.forbidden_exit, model.target_exit), 2)
    for lo in range(0, total, PURE_CHUNK):
        flat = np.arange(lo, min(total, lo + PURE_CHUNK))
        picks = np.stack(np.unravel_index(flat, (m,) * h), axis=1)
        Q, rhs = model.taboo_block[rows, picks], inputs[rows, picks]
        transient = ~_trapped(Q[:, :, None, :])[0].any(axis=1)
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
    ValueError
        When ``Q`` fails ``_check_block``.
    NotTransientError
        When some taboo state cannot reach an exit; carries those states.
    """
    return _solve(_check_block(Q))


def green_neumann(Q: np.ndarray, tail_tol: float = NEUMANN_TAIL_TOL) -> np.ndarray:
    """Green operator by truncated Neumann series, an independent cross-check.

    Sums ``I + Q + Q^2 + ...`` until the sup-norm of the next power drops
    below ``tail_tol``.  Kept deliberately separate from :func:`green` so the
    two routes can be compared in tests.  Raises ValueError unless
    ``tail_tol`` is positive and ``Q`` passes ``_check_block``.
    """
    if not tail_tol > 0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol!r}")
    Q = _check_block(Q)
    _witness(Q)
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
    return _absorption(model, blocks, _solve(blocks.q), initial)[0]


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
    return _absorption(model, blocks, _solve(blocks.q), initial)[1]


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

    G comes from ``_solve`` and the spectral radius from ``_radius`` on
    that G: a Collatz-Wielandt bracket of power iterates of G wherever it
    settles the 12-digit report token, else ``max|eig(Q)|``.

    Raises
    ------
    NotTransientError
        When the taboo block of the induced chain is not transient.
    """
    P, blocks, inputs = _induce(model, policy)
    G = _solve(blocks.q)
    radius = _radius(blocks.q, G)
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
