"""The demos run to the end: each is a subprocess that must exit 0.

simulation_convergence.py is left out: it runs about 20 s of Monte Carlo.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["critical_points.py", "enumerate_and_check.py", "flux_and_moments.py", "regime_tour.py"],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
