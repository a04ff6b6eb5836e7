"""Bellman operator, sweep kernel, value and policy iteration, iterative evaluation.

The operator acts on vectors over taboo states,

    (T V)(i) = min_u [ rho(u, i) + sum_{j in H} p[i, u, j] V(j) ].

The per-state objective is linear in the action distribution, so the
minimum over distributions is attained at a pure action; ties break to
the lowest action index.

Two loops minimize stage cost plus the taboo-block image of the
current values over each state's candidates.  ``_sweep`` repeats that
until the change between sweeps is small, for value iteration,
``constrained_vi_pure``, ``relative_vi`` and the iterative evaluators.
``_improve``, Howard's policy iteration from a proper policy, solves
each choice exactly, one ``_round`` at a time; it serves
``safest_policy`` and ``dual_ascent`` at t = 0.  ``_settle`` ends the
sweeps of ``value_iteration`` and ``relative_vi`` one way: at the first
checkpoint (sweep CERTIFY_FROM, then doubling up to CERTIFY_GAP apart)
where the greedy choice is proper and one ``_round`` from it switches
no state, the modified-policy-iteration certificate (Puterman 1994,
6.5-6.6), or else at the change rule, followed by ``_improve`` from the
greedy choice (or from the witness where that choice never leaves H).
Where the choice is proper but the round switches a state, the sweeps
go on from that round's values (Puterman & Shin 1978): the exact value
of a proper policy is at least the best proper policy's, and from any
such start value iteration converges to it, zero-cost cycles or not
(Bertsekas & Yu 2016).  Either way the value is the exact value of the
proper policy returned, and exceeds the best proper policy's by at most
``tol * max(1, |v|)`` per expected visit under that policy (README,
Numerical notes).
Stage costs, taboo block and exit masses come from the model view on
:class:`~safemdp.model.MdpModel`.

Both loops form the candidate totals ``stage + Q v`` in one place,
``_bellman``, over the candidates laid out candidate-major once per call
by ``_candidate_major``: row ``c*h + i`` of a (k*h, h) matrix is
candidate c of state i.  One matrix-vector product then gives every
total, and the minimum over candidates runs over k contiguous rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evaluate import _induce, _require_transient, _solve, _witness
from .exceptions import MaxIterationsError, NotTransientError
from .model import MdpModel, Policy, _check_count, _taboo_policy

# Value iteration tries its certificate after CERTIFY_FROM sweeps, then
# at every doubling of the count until checkpoints are CERTIFY_GAP sweeps
# apart, then every CERTIFY_GAP sweeps: 16, 32, ..., 256, 512, 768, ...
# Doubling alone overshoots by up to the sweeps already run.  Since a
# failed certificate restarts the sweeps (``_settle``), the bench
# corridors certify by sweep 256, before the cap first departs from
# doubling (768 against 1,024), so the cap no longer changes their
# sweeps; it still bounds the overshoot where the certificate keeps
# failing.  With the restart a start of 8 halves the sweeps on all three
# bench workloads; its end-to-end effect is not yet measured.
CERTIFY_FROM, CERTIFY_GAP = 16, 256


@dataclass(frozen=True)
class BellmanResult:
    """Outcome of a value-iteration run.

    ``value`` is the exact value of the proper ``policy``, and
    ``residual`` the sup-norm of one more operator application at that
    value: at most the improvement threshold ``tol * max(1, |v|)``, plus
    rounding.  ``iterations`` counts the sweeps run, up to the change
    rule or the certificate, whichever stopped them first, and
    ``history`` holds those iterates (including the start) when
    requested.  Where a failed certificate restarted the sweeps from the
    exact values of a proper policy, ``history`` jumps there after the
    checkpoint's entry, so it need not be monotone across a restart.
    """

    value: np.ndarray
    policy: Policy
    iterations: int
    residual: float
    history: list[np.ndarray] = field(default_factory=list, repr=False)


def _greedy_policy(model: MdpModel, greedy: np.ndarray) -> Policy:
    """The pure policy taking action ``greedy[i]`` at taboo state i."""
    return _taboo_policy(model, np.eye(model.n_actions)[greedy])


def _candidate_major(stage: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of ``stage`` (h, k) and ``Q`` (h, k, h), candidate-major.

    Returns ``rows`` (k*h, h) and ``flat`` (k*h,), contiguous, where entry
    ``c*h + i`` is candidate c of state i; a contiguous block with k = 1
    already has this layout and is not copied.
    """
    h, k = stage.shape
    rows = np.ascontiguousarray(Q.transpose(1, 0, 2)).reshape(k * h, h)
    return rows, np.ascontiguousarray(stage.T).reshape(k * h)


def _bellman(rows: np.ndarray, flat: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """Every candidate's total ``stage + Q v`` as a (k, h) grid, by one product.

    ``rows`` and ``flat`` come from ``_candidate_major``; ``out`` (k*h,),
    when given, receives the totals and backs the returned grid.
    """
    out = np.dot(rows, v, out=out)
    out += flat
    return out.reshape(-1, v.shape[0])


def _sweep(
    stage: np.ndarray,
    Q: np.ndarray,
    v0: np.ndarray | None,
    tol: float,
    max_iter: int,
    history: list | None = None,
    certify=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sweep ``v(i) <- min_k [stage(i, k) + sum_j Q(i, k, j) v(j)]`` from ``v0``.

    ``stage`` has shape (h, k) and ``Q`` shape (h, k, h): row k of state i
    is its k-th candidate, and a +inf stage cost marks a padding slot.
    Before the first sweep, states from which no choice of finite
    candidates leaves the taboo set with probability 1 raise
    NotTransientError naming them.  Stops after the first sweep whose
    sup-norm change is at most ``tol`` and returns the values, the
    minimizing candidate per state (ties go to the first) and the sweep
    count; past ``max_iter`` sweeps raises MaxIterationsError carrying
    the last iterate.  ``history`` receives a copy of every iterate.
    ``v0`` None means zeros.  Before the first sweep, ValueError is
    raised for a NaN or negative ``tol``, a ``max_iter`` that is not a
    positive integer, and a ``v0`` that is not finite or not of shape
    (h,).  ``certify``, when given, is called with the candidate-major
    rows and stage costs of ``_candidate_major``, the minimizing
    candidates and the iterate at the checkpoints of CERTIFY_FROM and
    CERTIFY_GAP that the change rule did not stop before.  It answers
    None to stop the sweeps there, or the values to go on from (the
    iterate itself to go on unchanged), which are copied into the
    iterate in place; ``history`` keeps the iterate from before the
    copy.

    Each sweep is one product of the candidate-major rows into a reused
    buffer, a minimum over candidates into the spare iterate and the
    change measured in place; the argmin is taken only at the end and
    at the certificate's checkpoints.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    max_iter = _check_count(max_iter, "max_iter", 1)
    h = Q.shape[0]
    v = np.zeros(h) if v0 is None else np.array(v0, dtype=float)
    if v.shape != (h,):
        raise ValueError(f"starting values must have shape ({h},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("starting values must be finite")
    _require_transient(Q, np.isfinite(stage))
    rows, flat = _candidate_major(stage, Q)
    totals, nxt, delta = np.empty(flat.size), np.empty_like(v), np.empty_like(v)
    diff, check = np.inf, CERTIFY_FROM if certify else 0
    for sweep in range(1, max_iter + 1):
        grid = _bellman(rows, flat, v, out=totals)
        grid.min(axis=0, out=nxt)
        np.subtract(nxt, v, out=delta)
        diff = np.abs(delta, out=delta).max(initial=0.0)
        v, nxt = nxt, v
        if history is not None:
            history.append(v.copy())
        if diff <= tol:
            return v, grid.argmin(axis=0), sweep
        if sweep == check:
            greedy, check = grid.argmin(axis=0), check + min(check, CERTIFY_GAP)
            start = certify(rows, flat, greedy, v)
            if start is None:
                return v, greedy, sweep
            v[:] = start
    raise MaxIterationsError(
        f"no convergence within {max_iter} sweeps (last change {diff:.3g})", last=v
    )


def _round(
    rows: np.ndarray, flat: np.ndarray, choice: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, bool]:
    """One round of policy iteration from ``choice``, one candidate per state.

    ``rows`` and ``flat`` are the candidates of ``_candidate_major``.
    Solves ``choice`` exactly (NotTransientError where it never leaves
    H) and switches each state to its best candidate where that beats
    the current one by more than ``tol * max(1, |v|)``.  Returns the
    values, the next choice and whether none switched.  When none did,
    the choice returned is the lowest-index greedy one, its values
    solved once more, if that is proper and differs; else ``choice``.
    """
    h = choice.shape[0]
    states = np.arange(h)
    at = choice * h + states
    v = _solve(rows[at], flat[at])
    totals = _bellman(rows, flat, v)
    greedy = totals.argmin(axis=0)
    gain = totals[choice, states] - totals[greedy, states]
    switch = gain > tol * np.maximum(1.0, np.abs(v))
    if switch.any():
        return v, np.where(switch, greedy, choice), False
    if (greedy == choice).all():
        return v, choice, True
    at = greedy * h + states
    try:
        return _solve(rows[at], flat[at]), greedy, True
    except NotTransientError:  # the greedy choice never leaves H
        return v, choice, True


def _improve(
    stage: np.ndarray, Q: np.ndarray, choice: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Policy iteration from a proper ``choice`` on ``stage`` (h, k), ``Q`` (h, k, h).

    Runs ``_round`` until no state switches, which keeps every choice
    proper (README, Numerical notes), and returns that round's values
    and choice; past ``max_iter`` rounds raises MaxIterationsError.  A
    NaN or negative ``tol`` and a ``max_iter`` that is not a positive
    integer raise ValueError first.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    max_iter = _check_count(max_iter, "max_iter", 1)
    rows, flat = _candidate_major(stage, Q)
    v = None
    for _ in range(max_iter):
        v, choice, stable = _round(rows, flat, choice, tol)
        if stable:
            return v, choice
    raise MaxIterationsError(f"no policy is stable within {max_iter} rounds", last=v)


def _settle(
    stage: np.ndarray,
    Q: np.ndarray,
    v0: np.ndarray,
    tol: float,
    max_iter: int,
    history: list | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Value iteration on ``stage`` (h, k), ``Q`` (h, k, h) to a proper policy.

    Runs ``_sweep`` from ``v0`` and stops at the first checkpoint
    (CERTIFY_FROM, then doubling up to CERTIFY_GAP apart) where the
    greedy choice passes the certificate of modified policy iteration
    (Puterman 1994, 6.5-6.6): it is proper and one ``_round`` from it
    switches no state; that round's values and choice are returned.
    Where the choice is proper but the round switches a state, the
    sweeps go on from the round's values, the exact value of that
    proper policy: no lower than the best proper value, so the sweeps
    still converge to it (Bertsekas & Yu 2016).  An improper choice
    leaves the iterate as it is.
    Where the change rule stops the sweeps first, ``_improve`` runs from
    their greedy choice, or from the witness over the finite candidates
    where the first exact solve finds that choice improper; a switch
    above the threshold keeps a proper choice proper (README, Numerical
    notes).  Returns the exact values of the proper choice, the choice
    and the sweeps run; ``tol`` is both the change rule and the
    improvement threshold, ``max_iter`` caps the sweeps and the rounds.
    """
    exact = None

    def certify(
        rows: np.ndarray, flat: np.ndarray, greedy: np.ndarray, v: np.ndarray
    ) -> np.ndarray | None:
        nonlocal exact
        try:
            values, choice, stable = _round(rows, flat, greedy, tol)
        except NotTransientError:  # the greedy choice never leaves H
            return v
        if stable:
            exact = values, choice
            return None
        return values

    _, greedy, sweeps = _sweep(stage, Q, v0, tol, max_iter, history, certify)
    if exact is None:
        try:
            exact = _improve(stage, Q, greedy, tol, max_iter)
        except NotTransientError:
            exact = _improve(stage, Q, _witness(Q, np.isfinite(stage)), tol, max_iter)
    return *exact, sweeps


def value_iteration(
    model: MdpModel,
    v0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    keep_history: bool = False,
) -> BellmanResult:
    """Value iteration for the minimal expected cost until absorption.

    Starts from ``v0`` (zeros by default; must be nonnegative, of shape
    (h,)) and runs ``_settle``: the sweeps stop at the certificate or
    where the sup-norm change drops to ``tol``, go on from the exact
    value of the greedy policy where its certificate fails, and end at
    the exact value of a proper policy.  ``history`` and ``iterations``
    are the sweeps run; ``history`` is not monotone across a restart.
    At the exact value of the policy the last round solved, no state's
    best candidate beats it by more than eps = ``tol * max(1, |v|)``, so
    that value exceeds the best proper policy's by at most G eps, G the
    best policy's expected visits; a lowest-index greedy choice returned
    in its place has no higher value.  States that no policy leads out
    of H raise NotTransientError before any sweep.
    """
    h = model.n_taboo
    v0 = np.zeros(h) if v0 is None else np.asarray(v0, dtype=float)
    if (v0 < 0).any():
        raise ValueError("starting values must be nonnegative")
    stage, PH = model.stage_costs, model.taboo_block
    history = [v0.copy()] if keep_history else None
    v, choice, sweeps = _settle(stage, PH, v0, tol, max_iter, history)
    totals = _bellman(*_candidate_major(stage, PH), v)
    residual = float(np.abs(totals.min(axis=0) - v).max(initial=0.0))
    return BellmanResult(v, _greedy_policy(model, choice), sweeps, residual, history or [])


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
    _, blocks, inputs = _induce(model, policy)
    stage = getattr(inputs, offset)[:, None]
    x, _, sweeps = _sweep(stage, blocks.q[:, None, :], x0, tol, max_iter)
    return x, sweeps


def safest_policy(
    model: MdpModel, tol: float = 1e-12, max_iter: int = 100_000
) -> tuple[np.ndarray, Policy]:
    """Minimal absorption-in-forbidden probability and a proper policy attaining it.

    Runs ``_improve`` (``tol`` its improvement threshold, ``max_iter``
    its cap on exact solves) from the witness on the one-step forbidden
    mass: the exact coordinate-wise minimum over proper policies.
    States that no policy leads out of H raise NotTransientError.
    """
    K, PH = model.forbidden_exit, model.taboo_block
    v, choice = _improve(K, PH, _witness(PH), tol, max_iter)
    return v, _greedy_policy(model, choice)
