"""Every demo runs to completion in a fresh interpreter and prints its
walkthrough, byte for byte as ``golden_demos.json`` holds it."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "category_checker.py", "dirichlet_functions.py", "posets_and_classification.py",
    "power_series.py", "puiseux_series.py", "truncated_polynomials.py"])
def test_demo_runs(demo):
    # conftest puts this checkout's src on PYTHONPATH
    run = subprocess.run([sys.executable, str(REPO / "demos" / demo)], capture_output=True,
                         text=True, cwd=REPO, env={**os.environ, "PYTHONHASHSEED": "0"})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()


GOLDEN = json.loads((REPO / "tests" / "golden_demos.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_prints_its_golden_output(demo):
    run = subprocess.run([sys.executable, str(REPO / "demos" / demo)], capture_output=True,
                         text=True, cwd=REPO, env={**os.environ, "PYTHONHASHSEED": "0"})
    assert (run.returncode, run.stdout) == (0, GOLDEN[demo]), run.stderr
