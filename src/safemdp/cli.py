"""Command-line interface.

Four subcommands: ``validate`` checks a model document, ``eval``
evaluates a fixed policy, ``solve`` runs one of the optimizers, and
``simulate`` compares Monte Carlo estimates against the analytic
values.  Every command prints a JSON report to stdout with sorted keys
and floats rounded to 12 significant digits; everything except the
``timings`` block is a pure function of the inputs and the seed.

Exit codes: 0 success, 1 every other solver error (MaxIterationsError,
LpNumericalError), 2 validation or parameter problems, 3 unreadable
input files, 4 non-transient chain, including taboo states that no
policy can lead out (reported before any sweep), 5 infeasible
constraint, 6 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import bellman, constrained, evaluate
from .exceptions import (
    CapExceededError,
    InfeasibleError,
    LpUnboundedError,
    ModelFormatError,
    ModelValidationError,
    NotTransientError,
    PolicyError,
    SafeMdpError,
)
from .model import MdpModel, Policy, _key_text, _text_index, load_model, load_policy
from .simulate import mc_estimates

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NOT_TRANSIENT = 4
EXIT_INFEASIBLE = 5
EXIT_CAP = 6

SOLVE_MODES = ("unconstrained", "safest", "p-safe", "relative", "lp", "dual")


def _round_floats(obj):
    """The report's scalars rounded; a ``_Floats`` array is rounded as it is written."""
    if isinstance(obj, float):
        # NaN has no JSON token (RFC 8259); it is reported as null.
        return None if math.isnan(obj) else float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _read_inputs(report: dict, args, *names: str) -> list[bytes]:
    """The bytes of each named input file, read once, with their digests in ``report``.

    ``report["inputs"]`` gets a digest for every file only after every
    one was read; an unreadable file raises OSError first.
    """
    paths = [getattr(args, name) for name in names]
    contents = []
    for path in paths:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    report["inputs"] = {
        name: {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
        for name, path, data in zip(names, paths, contents)
    }
    return contents


def _text(data: bytes) -> str:
    """``data`` as a text file opened for reading in UTF-8 reads it.

    A byte sequence that is not UTF-8 raises UnicodeDecodeError, a
    ValueError; line ends become ``"\\n"`` as universal newlines make them.
    """
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# Reports key a label by the text JSON writes for it as an object key
# (``_key_text``), the text a policy document's ``dist`` keys and
# ``--start`` are matched against: the state labelled true is "true".
@dataclass(frozen=True)
class _Floats:
    """An object of floats keyed by the first states' key texts, kept as one array.

    A vector maps each key to a number; a square matrix maps each key to
    its row, an object keyed the same way.  ``_indented`` writes it as the
    encoder writes those dicts, every number in one format call.
    """

    keys: list[str]
    values: np.ndarray


def _labeled(model: MdpModel, vec) -> _Floats:
    values = np.asarray(vec, float)
    return _Floats(list(map(_key_text, model.states[: len(values)])), values)


def _policy_doc(model: MdpModel, policy: Policy) -> dict:
    actions = list(map(_key_text, model.actions))
    return {
        _key_text(s): {a: x for a, x in zip(actions, row) if x != 0.0}
        for s, row in zip(model.states, policy.matrix[: model.n_taboo].tolist())
    }


def _emit(report: dict, started: float) -> None:
    report["timings"] = {"total_seconds": time.perf_counter() - started}
    print(_indented(_round_floats(report)))


_CONTAINERS = (dict, list, tuple, _Floats)
# The tokens "%.12g" writes for non-finite values, as the report writes them.
_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _indented(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for ``obj`` on a line that ``pad`` starts.

    ``indent`` selects the pure-Python encoder.  Here the C encoder writes
    every dict or list that holds no container, with the next line's
    indent in its item separator, and only the levels above are joined
    by hand.  A ``_Floats`` is written as the dicts it stands for with
    its numbers rounded to 12 significant digits (``_floats_text``).
    """
    inner = pad + "  "
    if isinstance(obj, _Floats):
        return _floats_text(obj, pad)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        if any(isinstance(v, _CONTAINERS) for _, v in items):
            # The key as the encoder writes it, a number or bool key included.
            body = (inner + json.dumps({k: 0})[1:-4] + ": " + _indented(v, inner)
                    for k, v in items)
            return "{" + ",".join(body) + pad + "}"
    elif isinstance(obj, (list, tuple)):
        if any(isinstance(v, _CONTAINERS) for v in obj):
            return "[" + ",".join(inner + _indented(v, inner) for v in obj) + pad + "]"
    else:
        return json.dumps(obj)
    text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
    return text[0] + inner + text[1:-1] + pad + text[-1] if obj else text


def _floats_text(obj: _Floats, pad: str) -> str:
    """``_indented`` of the dicts ``obj`` stands for, its floats rounded as in ``_round_floats``.

    The keys are sorted once, and every number of the array is formatted
    by one ``_report_tokens`` call.
    """
    order = sorted(range(len(obj.keys)), key=obj.keys.__getitem__)
    names = [json.dumps(obj.keys[i]) + ": " for i in order]
    if obj.values.ndim == 1:
        return _object(names, _report_tokens(obj.values[order]), pad)
    n = len(order)
    tokens = _report_tokens(obj.values[np.ix_(order, order)])
    rows = [_object(names, tokens[k * n:(k + 1) * n], pad + "  ") for k in range(n)]
    return _object(names, rows, pad)


def _object(names: list[str], texts: list[str], pad: str) -> str:
    """The object of ``names`` (each a key token and ": ") and value ``texts``, indented."""
    if not names:
        return "{}"
    inner = pad + "  "
    return "{" + inner + ("," + inner).join(map(str.__add__, names, texts)) + pad + "}"


def _report_tokens(values: np.ndarray) -> list[str]:
    """``json.dumps(float(f"{x:.12g}"))`` for each value, with NaN as null.

    One ``"%.12g"`` format call writes every number.  For a normal float
    its digits are already the shortest ones of the rounded value, as
    ``repr`` writes them: two decimals of at most 15 digits never round
    to the same float.  Only these tokens are written again, by ``repr``
    or as the encoder's non-finite tokens:

    - no ``"."``: integral values (``repr`` adds ``.0``), a one-digit
      mantissa (``1e-05``, ``1e+12``), ``nan`` and ``inf``;
    - ``"e+1"``: exponents 12 to 15, which ``repr`` writes in full;
    - ``"e-3"``: subnormals, whose 12 digits can be more than the
      shortest (``4.94065645841e-324`` is ``5e-324``).

    Most arrays have none, which a scan of the whole text shows.
    """
    flat = values.ravel().tolist()
    text = "%.12g " * len(flat) % tuple(flat)
    tokens = text.split()
    if text.count(".") == len(tokens) and "e+1" not in text and "e-3" not in text:
        return tokens
    return [t if "." in t and "e+1" not in t and "e-3" not in t
            else _NONFINITE.get(t) or repr(float(t)) for t in tokens]


def _error_report(report: dict, started: float, kind: str, message: str, code: int) -> int:
    report["error"] = {"kind": kind, "message": message}
    _emit(report, started)
    return code


def cmd_validate(args, report: dict, started: float) -> int:
    (data,) = _read_inputs(report, args, "model")
    try:
        model = load_model(_text(data))
    except (ModelFormatError, ModelValidationError) as exc:
        violations = getattr(exc, "violations", [str(exc)])
        report["results"] = {"valid": False, "violations": violations}
        _emit(report, started)
        return EXIT_INVALID
    report["results"] = {
        "valid": True,
        "violations": [],
        "states": len(model.states),
        "taboo": model.n_taboo,
        "forbidden": model.n_forbidden,
        "target": model.n_target,
        "actions": model.n_actions,
    }
    _emit(report, started)
    return EXIT_OK


def _load_pair(args, model_data: bytes, policy_data: bytes) -> tuple[MdpModel, Policy]:
    model = args.loaded_model = load_model(_text(model_data))
    policy = load_policy(_text(policy_data), model)
    return model, policy


def cmd_eval(args, report: dict, started: float) -> int:
    model, policy = _load_pair(args, *_read_inputs(report, args, "model", "policy"))
    cq = evaluate.chain_quantities(model, policy)
    v = cq.green @ cq.inputs.stage_cost
    s = cq.green @ cq.inputs.to_forbidden
    t = cq.green @ cq.inputs.to_target
    h = model.n_taboo
    initial = np.zeros(model.n_states)
    initial[:h] = 1.0 / h
    gamma, lam = evaluate._absorption(model, cq.blocks, cq.green, initial)
    residual = evaluate.evolution_residual(initial, gamma, lam, cq.matrix)
    report["results"] = {
        "value": _labeled(model, v),
        "safety": _labeled(model, s),
        "reach": _labeled(model, t),
        "green": _labeled(model, cq.green),
        "spectral_radius": float(cq.spectral_radius),
        "evolution_residual": float(residual),
        "residual_initial": "uniform over taboo states",
    }
    if args.csv:
        _emit_eval_csv(report["results"])
        return EXIT_OK
    _emit(report, started)
    return EXIT_OK


def _emit_eval_csv(results: dict) -> None:
    """The eval numbers in state order, each block written by one ``"%.12g"`` format call."""
    # A key holding , " CR or LF is quoted as csv.writer quotes it; % is escaped.
    keys = ['"' + k.replace('"', '""') + '"' if any(c in k for c in ',"\r\n') else k
            for k in results["value"].keys]
    keys = [k.replace("%", "%%") for k in keys]
    lines = ["quantity,state,value"]
    for name in ("value", "safety", "reach"):
        lines.append("\n".join(f"{name},{k},%.12g" for k in keys)
                     % tuple(results[name].values.tolist()))
    cells = [f"{k},%.12g" for k in keys]
    rows = "\n".join(f"green,{k}," + f"\ngreen,{k},".join(cells) for k in keys)
    lines += ["green,from,to,value", rows % tuple(results["green"].values.ravel().tolist())]
    print("\n".join(lines))


def cmd_solve(args, report: dict, started: float) -> int:
    (data,) = _read_inputs(report, args, "model")
    model = args.loaded_model = load_model(_text(data))
    mode = args.mode
    results: dict = {"mode": mode}

    for flag in ("p", "q", "tol"):
        x = getattr(args, flag)
        if x is not None and not (np.isfinite(x) and (flag == "p" or x >= 0)):
            need = "finite" if flag == "p" else "finite and nonnegative"
            raise ParameterError(f"--{flag} must be {need}, got {x}")

    if mode in ("p-safe", "lp", "dual") and args.p is None:
        raise ParameterError(f"--mode {mode} requires --p")
    if mode == "relative" and args.q is None and args.p is None:
        raise ParameterError("--mode relative requires --q (or --p to convert)")

    if mode == "unconstrained":
        res = bellman.value_iteration(model, tol=args.tol)
        results.update(
            value=_labeled(model, res.value),
            policy=_policy_doc(model, res.policy),
            iterations=res.iterations,
            residual=res.residual,
        )
    elif mode == "safest":
        s_star, pol = bellman.safest_policy(model)
        results.update(
            min_safety=_labeled(model, s_star), policy=_policy_doc(model, pol)
        )
    elif mode == "p-safe":
        rep = constrained.constrained_vi_pure(model, args.p, tol=args.tol)
        results.update(
            value=_labeled(model, rep.value),
            policy=_policy_doc(model, rep.policy),
            feasible=rep.feasible,
            gap_vs_best_policy=rep.gap,
            info=rep.info,
            p=args.p,
        )
    elif mode == "relative":
        q = args.q if args.q is not None else constrained.p_to_q(args.p)
        rep = constrained.relative_vi(model, q, tol=args.tol)
        results.update(
            value=_labeled(model, rep.value),
            policy=_policy_doc(model, rep.policy),
            q=float(q),
            info=rep.info,
        )
    else:  # lp and dual: one dual run, one infeasibility report
        rep = constrained.dual_ascent(model, args.p, inner_tol=args.tol)
        results["p"] = args.p
        if not rep.feasible:
            results.update(feasible=False, min_safety=_labeled(model, rep.info["min_safety"]))
            report["results"] = results
            raise InfeasibleError(f"no policy keeps safety within {args.p} everywhere")
        results["policy"] = _policy_doc(model, rep.policy)
        if mode == "lp":
            solution = constrained.solve_lp(constrained.build_lp(model, args.p))
            level, value = solution.level, solution.value
            results.update(
                l=_labeled(model, solution.l),
                objective=solution.objective,
                simplex_iterations=solution.iterations,
                multiplier_level=level,
            )
        else:
            level, value, gap = rep.info["level"], rep.value, None
            oracle = constrained.brute_force_constrained(model, args.p) if args.oracle else None
            if oracle is not None and oracle.feasible:
                results["oracle"] = {
                    "value": _labeled(model, oracle.value),
                    "policy": _policy_doc(model, oracle.policy),
                    "admissible_count": oracle.admissible_count,
                }
                gap = float(oracle.value.sum() - value.sum())
            results.update(feasible=True, gap=gap, info=rep.info)
        results.update(
            value=_labeled(model, value),
            multipliers=_labeled(model, np.full(model.n_taboo, level)),
        )

    report["results"] = results
    _emit(report, started)
    return EXIT_OK


def _deviation_in_se(mean: float, std_error: float, exact: float) -> float | None:
    """|mean - exact| in standard errors, or None where that is undefined.

    A zero error counts as no deviation only when the mean is exact; a
    NaN error (fewer than two kept trajectories) has no deviation.
    """
    if 0.0 < std_error < math.inf:
        return abs(mean - exact) / std_error
    if std_error == 0.0 and mean == exact:
        return 0.0
    return None


def cmd_simulate(args, report: dict, started: float) -> int:
    contents = _read_inputs(report, args, "model", "policy")
    for flag, x in (("--n", args.n), ("--max-steps", args.max_steps)):
        if x < 1:
            raise ParameterError(f"{flag} must be a positive integer")
    if not 0 <= args.seed < 2**64:
        raise ParameterError(f"--seed must lie in [0, 2^64), got {args.seed}")
    model, policy = _load_pair(args, *contents)
    start = _text_index(model.states).get(args.start)
    if start is None:
        raise ParameterError(f"--start names no state: {args.start!r}")
    mc = mc_estimates(
        model, policy, model.states[start], args.n, args.seed, max_steps=args.max_steps
    )
    results = {
        "start": str(args.start),
        "n": args.n,
        "seed": args.seed,
        "truncated": mc.truncated,
        "estimates": {
            name: {"mean": est.mean, "std_error": est.std_error, "n": est.n}
            for name, est in (
                ("safety", mc.s_hat),
                ("reach", mc.t_hat),
                ("value", mc.v_hat),
            )
        },
    }
    if start < model.n_taboo:
        exact = evaluate._exact(model, policy)[:, start]
        analytic = dict(zip(("value", "safety", "reach"), map(float, exact)))
        results["analytic"] = analytic
        results["deviation_in_se"] = {
            name: _deviation_in_se(
                results["estimates"][name]["mean"],
                results["estimates"][name]["std_error"],
                analytic[name],
            )
            for name in analytic
        }
    report["results"] = results
    _emit(report, started)
    return EXIT_OK


class ParameterError(SafeMdpError):
    """A command was invoked with missing or inconsistent parameters."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safemdp",
        description="Safety-constrained dynamic programming on finite MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a model document")
    p_val.add_argument("model")

    p_eval = sub.add_parser("eval", help="evaluate a fixed policy")
    p_eval.add_argument("model")
    p_eval.add_argument("policy")
    p_eval.add_argument("--csv", action="store_true", help="emit CSV tables")

    p_solve = sub.add_parser("solve", help="run an optimizer")
    p_solve.add_argument("model")
    p_solve.add_argument(
        "--mode",
        choices=SOLVE_MODES,
        required=True,
        help="optimizer to run; p-safe enumerates every pure policy (m^H for m "
        "actions and H taboo states, exponential in H) and exits 6 when that "
        "count exceeds the cap of 10^6",
    )
    p_solve.add_argument("--p", type=float, help="safety level for p-safe/lp/dual")
    p_solve.add_argument("--q", type=float, help="relative level for --mode relative")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force enumeration oracle (dual mode)",
    )

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of a policy")
    p_sim.add_argument("model")
    p_sim.add_argument("policy")
    p_sim.add_argument("--start", required=True)
    p_sim.add_argument("--n", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-steps", type=int, default=10**5)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: a build takes about 0.5 ms."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    report: dict = {"command": args.command, "arguments": _echo_arguments(args)}
    handler = {
        "validate": cmd_validate,
        "eval": cmd_eval,
        "solve": cmd_solve,
        "simulate": cmd_simulate,
    }[args.command]
    try:
        return handler(args, report, started)
    except OSError as exc:
        return _error_report(report, started, "IO", str(exc), EXIT_IO)
    except ParameterError as exc:
        return _error_report(report, started, "Parameter", str(exc), EXIT_INVALID)
    except (ModelFormatError, ModelValidationError, PolicyError, ValueError) as exc:
        return _error_report(report, started, "Invalid", str(exc), EXIT_INVALID)
    except NotTransientError as exc:
        results = report.setdefault("results", {})
        results["spectral_radius"] = exc.spectral_radius
        results["trapped"] = [_key_text(args.loaded_model.states[i]) for i in exc.trapped]
        return _error_report(report, started, "NotTransient", str(exc), EXIT_NOT_TRANSIENT)
    except (InfeasibleError, LpUnboundedError) as exc:
        return _error_report(report, started, "Infeasible", str(exc), EXIT_INFEASIBLE)
    except CapExceededError as exc:
        return _error_report(report, started, "CapExceeded", str(exc), EXIT_CAP)
    except SafeMdpError as exc:
        return _error_report(report, started, type(exc).__name__, str(exc), 1)


def _echo_arguments(args) -> dict:
    skip = {"command"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value
    return out


if __name__ == "__main__":
    sys.exit(main())
