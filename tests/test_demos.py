"""Smoke test: the narrative demos run to completion.

demos/05_convexity_suites.py is left out because it runs its suites at full
sample counts and takes over ten seconds.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ["01_complexes_and_hulls.py", "02_geodesics.py", "03_decompositions.py",
         "04_p_sweeps_and_limits.py", "06_oracle.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
