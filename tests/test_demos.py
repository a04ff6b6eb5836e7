"""Every demo script runs to the end without a traceback and prints, byte for
byte, the output committed under ``tests/data/demo_output/``."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Each demo's stdout as it printed when these files were written.  Demo 01's
# ``residual`` line depends on LAPACK rounding (README), so the files hold
# one machine's output.  Regenerate one with
#   PYTHONPATH=src python demos/NAME.py > tests/data/demo_output/NAME.txt
OUTPUT = ROOT / "tests" / "data" / "demo_output"


def test_five_demos_found():
    assert len(DEMOS) == 5
    assert sorted(path.stem for path in OUTPUT.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (OUTPUT / f"{demo.stem}.txt").read_text()
