"""The tracked demos run to completion against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]

# Listed by name: power_sweep.py writes an untracked plot script next to its CSV.
DEMOS = ("geometry_tour.py", "solver_convergence.py", "surface_loss.py", "power_sweep.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
