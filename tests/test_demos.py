"""Smoke test: every script under demos/ runs to completion at a small budget.

The demos are documentation that executes; this only checks that each one
still runs against the current package (exit 0), not what it prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

DEMOS = {
    "fields_tour.py": [],
    "identity_walkthrough.py": ["--mc", "20000"],
    "quadrature_showcase.py": ["--mc", "20000"],
    "sharpness_sweep.py": ["--levels", "14", "--mc", "20000"],
    "spectral_bottom.py": ["--bumps", "2", "--mc", "20000"],
}


def test_every_demo_is_listed():
    assert sorted(DEMOS) == sorted(p.name for p in (REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", list(DEMOS))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / script), *DEMOS[script]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
