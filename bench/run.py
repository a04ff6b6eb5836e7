"""Layered benchmark of the safemdp package.

Usage, from the repository root::

    python3 bench/run.py --workload dense|corridor|enum --seed N \\
        --seconds S --trace 0|1

Set-up imports the package from ``src/``, generates a seeded pool of
instances (``workloads.py``), writes their model and policy documents
under ``.bench_run/`` and runs one small warm-up instance; it is
repeated ``SETUP_REPEATS`` times and the median reported.  The measured
loop is one process with one client in a closed loop: the next instance
starts when the previous one finished, until ``--seconds`` have passed
at the end of a round (``workloads.ROUND``).  Each instance goes
through ``pipeline.run_instance`` and every output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
with a span around every layer call, writes the spans to
``.bench_run/trace-<workload>-<seed>.json``, replays the same instances
untraced to measure the tracing overhead and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Reference seconds.  The CPU speed of a small shared sandbox drifts by
20-70% over tens of seconds with its neighbours' load, which moves a
wall-time median by as much from run to run.  So every time is
reported in reference seconds: the wall time multiplied by
``REF_KERNEL_S`` over the time of a fixed pure-Python kernel.  The
kernel runs eight times just before and eight times just after every
instance and set-up repetition; an instance uses the median of that
time over itself and its two neighbours on each side, set-up the
median over its repetitions.  On a quiet core the two agree; the wall
times are printed next to them.

The run pins ``SAFE_MDP_THREADS=1`` (the package default) and one BLAS
thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

T_PROCESS = time.perf_counter()

# Thread counts must be fixed before numpy loads its BLAS.
PINNED_ENV = {
    "SAFE_MDP_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
import workloads  # noqa: E402
SETUP_REPEATS = 3
# Instances generated per run; the loop cycles through them.
POOL = {"dense": 28, "corridor": 32, "enum": 20}
# Time of one calibration kernel on a quiet core of the reference machine
# (2-core x86-64 sandbox, CPython 3.11).
REF_KERNEL_S = 7.5e-4


def _median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 0.0
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def _kernel() -> int:
    acc = 0
    d = {}
    for i in range(6000):
        d[i & 63] = i
        acc += d[i & 63] * 3 % 7
    return acc


def _kernel_s(repeats: int = 8) -> float:
    """Mean wall time of the calibration kernel over ``repeats`` runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - start) / repeats


def _timed(fn, *args):
    """(result, wall seconds, kernel seconds around the call) of one call."""
    before = _kernel_s()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, (before + _kernel_s()) / 2


def _import_package(root: Path):
    """Import safemdp from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "safemdp" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'safemdp'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    import safemdp
    import safemdp.cli

    if Path(safemdp.__file__).resolve().parent != (src / "safemdp").resolve():
        sys.exit(f"bench: imported safemdp from {safemdp.__file__}, not {src}")
    return safemdp, safemdp.cli


def _policy_doc(inst) -> str:
    """Policy document of the set-up's exact optimum, for ``safemdp eval``."""
    rows = [{"state": f"h{i}", "dist": {inst.actions[u]: 1.0}}
            for i, u in enumerate(inst.policy.tolist())]
    return json.dumps({"policy": rows})


def _setup(workload, seed, workdir: Path, sm, cli):
    """Generate the pool, write its documents and run one warm-up instance."""
    pool = workloads.pool(workload, seed, POOL[workload])
    files = []
    for inst in pool:
        model_path = workdir / f"i{inst.index}.model.json"
        policy_path = workdir / f"i{inst.index}.policy.json"
        model_path.write_text(inst.doc)
        policy_path.write_text(_policy_doc(inst))
        files.append((str(model_path), str(policy_path)))
    warm = workloads.warmup(workload, seed)
    warm_files = (workdir / "warm.model.json", workdir / "warm.policy.json")
    warm_files[0].write_text(warm.doc)
    warm_files[1].write_text(_policy_doc(warm))
    pipeline.run_instance(sm, cli, warm, tuple(map(str, warm_files)),
                          pipeline.Tracer(False), mc_seed=seed)
    return pool, files


def _loop(workload, seed, seconds, pool, files, sm, cli, tracer, count=None):
    """Closed loop over the pool; stops after ``seconds`` or ``count`` instances."""
    outcomes, kernels = [], []
    start = time.perf_counter()
    k = 0
    while True:
        inst = pool[k % len(pool)]
        # Start every instance from the same collector state, so garbage
        # left by the previous one is not collected inside its phases.
        gc.collect()
        out, _, kernel = _timed(pipeline.run_instance, sm, cli, inst,
                                files[k % len(pool)], tracer,
                                seed * 10_000 + inst.index, k)
        outcomes.append(out)
        kernels.append(kernel)
        k += 1
        if count is not None:
            if k >= count:
                break
        elif (k % workloads.ROUND[workload] == 0
              and time.perf_counter() - start >= seconds):
            break
    # The kernel speed around one instance is itself noisy, so each
    # instance takes the median over it and its two neighbours each side.
    for i, out in enumerate(outcomes):
        out.scale = REF_KERNEL_S / _median(kernels[max(0, i - 2) : i + 3])
    return outcomes, time.perf_counter() - start


def end_to_end(outcomes, setup_s, scaled=True):
    """The end-to-end metrics; a failed instance counts as +inf in each median.

    Times are in reference seconds (``scaled``) or wall seconds.  An
    infinite median (half the instances or more failed) prints as the
    summed time of all instances.
    """
    inf = float("inf")
    certified = sum(not o.failed for o in outcomes)

    def t(o, phase=None):
        s = o.total_s if phase is None else o.phase_s[phase]
        return s * o.scale if scaled else s

    busy = sum(t(o) for o in outcomes)

    def p50(phase=None):
        m = _median([inf if o.failed else t(o, phase) for o in outcomes])
        return busy if m == inf else m

    return {
        "certified_per_s": (certified / busy, "1/s"),
        "instance_s_p50": (p50(), "s"),
        "solve_s_p50": (p50("solve"), "s"),
        "verify_s_p50": (p50("verify"), "s"),
        "report_s_p50": (p50("report"), "s"),
        "certified_frac": (certified / len(outcomes), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


# Per-layer metric -> span names whose self time it sums per instance.
LAYER_TIMES = {
    "model.load_s": ("model.load",),
    "model.serialize_s": ("model.serialize_model",),
    "bellman.vi_s": ("bellman.value_iteration",),
    "bellman.safest_s": ("bellman.safest_policy",),
    "constrained.dual_s": ("constrained.dual_ascent",),
    "constrained.build_lp_s": ("constrained.build_lp",),
    "simplex.solve_s": ("simplex.solve_lp",),
    "evaluate.s": ("evaluate.value", "evaluate.safety", "evaluate.reach"),
    "simulate.mc_s": ("simulate.mc_estimates",),
    "simulate.paths_s": ("simulate.exhaustive_paths",),
    "simulate.brute_s": ("simulate.brute_force_constrained",),
    "constrained.pvi_s": ("constrained.constrained_vi_pure",),
    "cli.eval_s": ("cli.eval",),
}
LAYERS = ("model", "bellman", "constrained", "simplex", "evaluate", "simulate", "cli")


def per_layer(outcomes, tracer, overhead):
    """Per-layer metrics from the spans and the counts of a traced loop.

    Times, in reference seconds, are medians over the instances that
    called the layer of the per-instance self time of those calls; rates
    divide total work by total self time.
    """
    scale = {o.seq: o.scale for o in outcomes}
    names = {n: metric for metric, spans in LAYER_TIMES.items() for n in spans}
    per = {}  # (instance position, metric) -> reference seconds
    totals = {}
    for span, self_s in tracer.self_times():
        metric = names.get(span.name)
        if metric is None:
            continue
        s = self_s * scale[span.instance]
        per[(span.instance, metric)] = per.get((span.instance, metric), 0.0) + s
        totals[metric] = totals.get(metric, 0.0) + s
    out = {}
    for metric in LAYER_TIMES:
        out[metric] = (_median([v for (_, m), v in per.items() if m == metric]), "s")

    def count(key):
        return [o.counts[key] for o in outcomes if key in o.counts]

    def rate(work, metric):
        t = totals.get(metric, 0.0)
        return sum(work) / t if t > 0 else 0.0

    def per_unit(work, metric, unit):
        n = sum(work)
        return unit * totals.get(metric, 0.0) / n if n else 0.0

    out["model.doc_mb"] = (_median(count("doc_bytes")) / 1e6, "MB")
    out["model.load_mb_per_s"] = (
        rate(count("doc_bytes") + count("serialized_bytes"), "model.load_s") / 1e6, "MB/s")
    out["model.serialize_mb_per_s"] = (
        rate(count("serialized_bytes"), "model.serialize_s") / 1e6, "MB/s")
    out["simplex.pivots"] = (_median(count("pivots")), "count")
    out["simplex.ms_per_pivot"] = (per_unit(count("pivots"), "simplex.solve_s", 1e3), "ms")
    out["simplex.tableau_mb"] = (_median(count("tableau_mb")), "MB")
    out["bellman.vi_sweeps"] = (_median(count("vi_sweeps")), "count")
    out["bellman.vi_us_per_sweep"] = (
        per_unit(count("vi_sweeps"), "bellman.vi_s", 1e6), "us")
    out["constrained.dual_inner_solves"] = (_median(count("dual_inner_solves")), "count")
    out["constrained.dual_lp_gap_max"] = (max(count("dual_lp_gap"), default=0.0), "cost")
    out["constrained.pvi_sweeps"] = (_median(count("pvi_sweeps")), "count")
    out["simulate.brute_policies_per_s"] = (
        rate(count("brute_policies"), "simulate.brute_s"), "1/s")
    out["simulate.mc_traj_per_s"] = (rate(count("mc_trajectories"), "simulate.mc_s"), "1/s")
    out["simulate.mc_steps_per_s"] = (rate(count("mc_steps"), "simulate.mc_s"), "1/s")
    out["simulate.mc_truncated"] = (sum(count("mc_truncated")), "count")
    out["simulate.paths_nodes"] = (_median(count("paths_nodes")), "count")
    out["simulate.paths_nodes_per_s"] = (
        rate(count("paths_nodes"), "simulate.paths_s"), "1/s")
    for layer in LAYERS:
        failed = sum(1 for o in outcomes for step in o.errors
                     if step.split(".")[0] == layer)
        out[f"{layer}.failed"] = (failed, "count")
    out["trace_overhead_frac"] = (overhead, "ratio")
    return out


def _write_trace(path: Path, tracer) -> None:
    rows = [{"id": s.id, "parent": s.parent, "instance": s.instance, "name": s.name,
             "start": s.start, "end": s.end, "self": self_s}
            for s, self_s in tracer.self_times()]
    path.write_text(json.dumps(rows))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    sm, cli = _import_package(root)
    import_wall = time.perf_counter() - T_PROCESS
    import_kernel = _kernel_s()
    workdir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        walls, kernels = [], [import_kernel]
        for _ in range(SETUP_REPEATS):
            (pool, files), wall, kernel = _timed(_setup, args.workload, args.seed,
                                                 workdir, sm, cli)
            walls.append(wall)
            kernels.append(kernel)
        setup_wall = import_wall + _median(walls)
        setup_s = setup_wall * REF_KERNEL_S / _median(kernels)

        tracer = pipeline.Tracer(bool(args.trace))
        outcomes, wall = _loop(args.workload, args.seed, args.seconds, pool, files,
                               sm, cli, tracer)
        wrong = [o for o in outcomes if o.wrong]
        if args.trace:
            _write_trace(root / ".bench_run" / f"trace-{args.workload}-{args.seed}.json",
                         tracer)
            replay, _ = _loop(args.workload, args.seed, args.seconds, pool, files,
                              sm, cli, pipeline.Tracer(False), count=len(outcomes))
            wrong += [o for o in replay if o.wrong]
            traced = sum(o.total_s * o.scale for o in outcomes)
            plain = sum(o.total_s * o.scale for o in replay)
            metrics = per_layer(outcomes, tracer, (traced - plain) / plain)
        else:
            metrics = end_to_end(outcomes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    print(f"# bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(outcomes)} instances in {wall:.2f} s wall, {len(failed)} failed; "
          f"nproc={os.cpu_count()} numpy={np.__version__} "
          f"blas_threads={PINNED_ENV['OPENBLAS_NUM_THREADS']} "
          f"SAFE_MDP_THREADS={PINNED_ENV['SAFE_MDP_THREADS']} "
          f"reference/wall={_median([o.scale for o in outcomes]):.3f}")
    for o in failed:
        print(f"#   instance {o.index}: errors={o.errors} wrong={o.wrong}")
    walls = {} if args.trace else end_to_end(outcomes, setup_wall, scaled=False)
    for name, (value, unit) in metrics.items():
        raw = f"   (wall {walls[name][0]:.6g})" if name in walls else ""
        print(f"{name:32s} {value:14.6g} {unit}{raw}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
