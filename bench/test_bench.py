"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pipeline  # noqa: E402
import run  # noqa: E402
import safemdp  # noqa: E402
import safemdp.cli  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_instances(workload):
    size = 5 if workload == "enum" else 2
    a = workloads.pool(workload, 7, size)
    b = workloads.pool(workload, 7, size)
    assert [x.doc for x in a] == [x.doc for x in b]
    assert [x.p for x in a] == [x.p for x in b]
    other = workloads.pool(workload, 8, size)
    assert [x.doc for x in a] != [x.doc for x in other]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generated_documents_load(workload):
    for inst in workloads.pool(workload, 11, 4) + [workloads.warmup(workload, 3)]:
        model = safemdp.load_model(inst.doc)
        assert np.array_equal(model.transitions, inst.transitions)
        assert np.array_equal(model.rewards, inst.rewards)
        assert inst.min_safety.max() <= inst.p <= inst.safety.max()


def test_enum_pool_mix():
    kinds = [workloads.binds_in_sum(x) for x in workloads.pool("enum", 2, 8)]
    assert kinds == [True, False, False, False] * 2


def test_gamblers_ruin_matches_linear_solve():
    inst = workloads.corridor(4, 0)
    assert inst.hazard == 0.0
    ruin = workloads.gamblers_ruin(inst.transitions, inst.policy)
    assert np.abs(ruin - inst.safety).max() < 1e-9


class _Broken:
    """The package with value_iteration raising, everything else real."""

    def __getattr__(self, name):
        return getattr(safemdp, name)

    @staticmethod
    def value_iteration(model):
        raise safemdp.MaxIterationsError("injected")


def test_raising_step_runs_later_steps_and_fails_once(tmp_path):
    inst = workloads.warmup("dense", 3)
    paths = (tmp_path / "m.json", tmp_path / "p.json")
    paths[0].write_text(inst.doc)
    paths[1].write_text(run._policy_doc(inst))
    tracer = pipeline.Tracer(True)
    out = pipeline.run_instance(_Broken(), safemdp.cli, inst, tuple(map(str, paths)),
                                tracer, mc_seed=1)
    assert list(out.errors) == ["bellman.value_iteration"]
    assert out.failed and not out.wrong
    ran = {s.name for s in tracer.spans}
    assert {"simplex.solve_lp", "evaluate.value", "simulate.mc_estimates",
            "model.serialize_model", "cli.eval"} <= ran
    assert set(out.phase_s) == set(pipeline.PHASES)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_spec(trace, section):
    done = _bench(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == spec


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
