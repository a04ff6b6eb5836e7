"""One instance through the user's pipeline: solve, verify, report.

Every step is a call to a public function of one ``safemdp`` module,
made from here and named ``<module>.<call>``; the module is the layer.
A step that raises is recorded and the pipeline goes on, so the work
does not change when a bug is fixed.  After the three timed phases the
outputs are checked against each other and against the set-up's exact
reference answers; checks are not part of any phase time.

With a :class:`Tracer` enabled, each step is also recorded as a span
(id, parent, instance position in the run, name, start, end) kept in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import gamblers_ruin

PHASES = ("solve", "verify", "report")

# Bounds of the output checks.
DUAL_LP_GAP = 1e-3  # tier-1 bound on |sum dual value - LP objective|
ORACLE_EXCESS = 1e-6  # tier-1 bound on any solver's excess over brute force
MC_SE = 5.0  # Monte Carlo must lie within this many standard errors
MC_UNANIMOUS = 5.7e-7  # two-sided tail of 5 standard errors
SWEEP_REL = 1e-6  # sweep solvers vs exact evaluation, relative to max |x|
EXACT_REL = 1e-9  # two exact routes (closed forms, CLI report to 12 digits)


@dataclass
class Span:
    id: int
    parent: int | None
    instance: int
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans in memory when enabled; a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next = 0

    @contextlib.contextmanager
    def span(self, instance: int, name: str):
        if not self.enabled:
            yield
            return
        sid, self._next = self._next, self._next + 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append(Span(sid, parent, instance, name, start,
                                   time.perf_counter()))

    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its duration minus the time its children cover."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
        return [(s, s.end - s.start - child.get(s.id, 0.0)) for s in self.spans]


@dataclass
class Outcome:
    """What one instance did: phase times, failures, wrong outputs, counts.

    ``seq`` is the instance's position in the run (spans carry it);
    ``index`` is its index in the workload.  ``scale`` converts wall
    seconds to reference seconds (see ``run.py``).
    """

    seq: int
    index: int
    scale: float = 1.0
    phase_s: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # step -> exception text
    wrong: dict = field(default_factory=dict)  # check -> detail
    counts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)

    @property
    def total_s(self) -> float:
        return sum(self.phase_s.values())


class _Steps:
    def __init__(self, tracer: Tracer, outcome: Outcome):
        self.tracer = tracer
        self.out = outcome

    def __call__(self, name, fn, *args):
        with self.tracer.span(self.out.seq, name):
            try:
                return fn(*args)
            except Exception as exc:  # noqa: BLE001 - a failed step must not stop the pipeline
                self.out.errors.setdefault(name, f"{type(exc).__name__}: {exc}")
                return None

    @contextlib.contextmanager
    def phase(self, name):
        start = time.perf_counter()
        with self.tracer.span(self.out.seq, name):
            yield
        self.out.phase_s[name] = time.perf_counter() - start


def _cli_eval(cli, model_path: str, policy_path: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["eval", model_path, policy_path])
    if code != 0:
        raise RuntimeError(f"safemdp eval exited {code}")
    return json.loads(buf.getvalue())


def run_instance(sm, cli, inst, paths: tuple[str, str], tracer: Tracer,
                 mc_seed: int, seq: int = 0) -> Outcome:
    """Run one generated instance and check every output.

    ``paths`` are the model and policy documents written at set-up, read
    by the in-process ``safemdp eval``.
    """
    out = Outcome(seq, inst.index)
    step = _Steps(tracer, out)
    r = {}
    with step.phase("solve"):
        model = r["model"] = step("model.load", sm.load_model, inst.doc)
        r["vi"] = step("bellman.value_iteration", sm.value_iteration, model)
        r["safest"] = step("bellman.safest_policy", sm.safest_policy, model)
        r["dual"] = step("constrained.dual_ascent", sm.dual_ascent, model, inst.p)
        lp = r["lp"] = step("constrained.build_lp", sm.build_lp, model, inst.p)
        r["sol"] = step("simplex.solve_lp", sm.solve_lp, lp)
    if r["vi"] is not None:
        policy = r["vi"].policy
    else:
        # Keep the verify work the same when value iteration fails.
        policy = step("model.pure_policy", sm.pure_policy, model,
                      dict(enumerate(inst.policy.tolist())))
    with step.phase("verify"):
        r["value"] = step("evaluate.value", sm.value, model, policy)
        r["safety"] = step("evaluate.safety", sm.safety, model, policy)
        r["reach"] = step("evaluate.reach", sm.reach, model, policy)
        r["mc"] = step("simulate.mc_estimates", sm.mc_estimates, model, policy,
                       inst.start, inst.mc_trajectories, mc_seed)
        r["paths"] = step("simulate.exhaustive_paths", sm.exhaustive_paths, model,
                          policy, inst.start, inst.path_depth)
        if inst.workload == "enum":
            r["brute"] = step("simulate.brute_force_constrained",
                              sm.brute_force_constrained, model, inst.p)
            r["pvi"] = step("constrained.constrained_vi_pure",
                            sm.constrained_vi_pure, model, inst.p)
    with step.phase("report"):
        text = r["text"] = step("model.serialize_model", sm.serialize_model, model)
        r["reload"] = step("model.load", sm.load_model, text)
        r["cli"] = step("cli.eval", _cli_eval, cli, *paths)
    _check(inst, policy, r, out)
    return out


def _close(a, b, rel) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return bool(a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= rel * scale)


def _check(inst, policy, r, out: Outcome) -> None:
    """Check every output that exists; record counts next to the checks."""
    wrong, counts = out.wrong, out.counts
    model = r["model"]
    counts["doc_bytes"] = len(inst.doc.encode())

    if model is not None and not (
        np.array_equal(model.transitions, inst.transitions)
        and np.array_equal(model.rewards, inst.rewards)
    ):
        wrong["load"] = "loaded arrays differ from the generated ones"

    vi = r["vi"]
    if vi is not None:
        counts["vi_sweeps"] = vi.iterations
        if r["value"] is not None and not _close(vi.value, r["value"], SWEEP_REL):
            wrong["vi_vs_evaluate"] = float(np.abs(vi.value - r["value"]).max())

    if r["safest"] is not None and not _close(r["safest"][0], inst.min_safety,
                                              SWEEP_REL):
        wrong["safest_vs_reference"] = float(
            np.abs(r["safest"][0] - inst.min_safety).max())

    dual, sol, lp = r["dual"], r["sol"], r["lp"]
    if dual is not None:
        counts["dual_inner_solves"] = dual.info.get("outer_iterations", 0) + \
            dual.info.get("refinement_evaluations", 0)
        if not dual.feasible:
            wrong["dual_feasible"] = "dual ascent reports p infeasible"
    if lp is not None:
        rows, cols = lp.rows.shape
        # Tableau of the in-package simplex: columns, slacks, artificials, rhs.
        width = cols + rows + int((lp.rhs < 0).sum()) + 1
        counts["tableau_mb"] = rows * width * 8 / 1e6
    if sol is not None:
        counts["pivots"] = sol.iterations
    if dual is not None and sol is not None:
        gap = abs(float(dual.value.sum()) - sol.objective)
        counts["dual_lp_gap"] = gap
        if gap > DUAL_LP_GAP:
            wrong["dual_vs_lp"] = gap

    if inst.workload == "enum":
        brute, pvi = r["brute"], r["pvi"]
        if brute is not None:
            counts["brute_policies"] = brute.total
            if not brute.feasible:
                wrong["brute_feasible"] = "no admissible pure policy"
            else:
                best = float(brute.value.sum())
                for name, total in (
                    ("dual", None if dual is None else float(dual.value.sum())),
                    ("lp", None if sol is None else sol.objective),
                ):
                    if total is not None and total - best > ORACLE_EXCESS:
                        wrong[f"{name}_vs_brute"] = total - best
                if pvi is not None:
                    member = float(pvi.value.sum()) + pvi.gap
                    if abs(member - best) > EXACT_REL * max(1.0, abs(best)):
                        wrong["pvi_vs_brute"] = member - best
        if pvi is not None:
            counts["pvi_sweeps"] = pvi.info["sweeps"]

    # Analytic answers for the oracles: the exact evaluation when it ran;
    # for hazard-free corridors the gambler's-ruin closed form as well.
    s_exact, v_exact = r["safety"], r["value"]
    if inst.hazard == 0.0 and policy is not None:
        ruin = gamblers_ruin(inst.transitions, policy.assignment()[: len(inst.value)])
        if s_exact is not None and not _close(s_exact, ruin, EXACT_REL):
            wrong["gamblers_ruin"] = float(np.abs(s_exact - ruin).max())
        s_exact = ruin if s_exact is None else s_exact

    mc = r["mc"]
    if mc is not None:
        counts["mc_truncated"] = mc.truncated
        counts["mc_trajectories"] = mc.n
        for name, est, exact in (("s", mc.s_hat, s_exact), ("v", mc.v_hat, v_exact)):
            if exact is None:
                continue
            x = float(exact[inst.start])
            dev = abs(est.mean - x)
            if est.std_error > 0.0:
                bad = dev > MC_SE * est.std_error
            elif name == "s":
                # Every kept trajectory ended alike: test that outcome's
                # exact probability instead of a zero standard error.
                bad = (x if est.mean == 1.0 else 1.0 - x) ** est.n < MC_UNANIMOUS
            else:
                bad = dev > EXACT_REL * max(1.0, abs(x))
            if bad:
                wrong[f"mc_{name}"] = dev
        if policy is not None:
            h = model.n_taboo
            q = np.einsum("iu,iuj->ij", policy.matrix[:h], model.transitions[:h, :, :h])
            steps = np.linalg.solve(np.eye(h) - q, np.ones(h))[inst.start]
            counts["mc_steps"] = float(steps) * mc.n

    paths = r["paths"]
    if paths is not None:
        counts["paths_nodes"] = paths.nodes
        if s_exact is not None:
            s0 = s_exact[inst.start]
            if not paths.s_lo - 1e-9 <= s0 <= paths.s_hi + 1e-9:
                wrong["paths_bracket"] = (paths.s_lo, s0, paths.s_hi)
        if v_exact is not None and paths.v_lo > v_exact[inst.start] + 1e-9:
            wrong["paths_value"] = (paths.v_lo, v_exact[inst.start])

    if r["text"] is not None:
        counts["serialized_bytes"] = len(r["text"].encode())
    again = r["reload"]
    if again is not None and model is not None and not (
        again.states == model.states
        and again.actions == model.actions
        and again.partition == model.partition
        and np.array_equal(again.transitions, model.transitions)
        and np.array_equal(again.rewards, model.rewards)
    ):
        wrong["serialize_reload"] = "reloaded model differs"

    report = r["cli"]
    if report is not None:
        res = report["results"]
        names = [f"h{i}" for i in range(len(inst.value))]
        for key, exact in (("value", inst.value), ("safety", inst.safety)):
            got = [res[key][s] for s in names]
            if not _close(got, exact, EXACT_REL):
                wrong[f"cli_{key}"] = float(np.abs(np.asarray(got) - exact).max())
