"""The demos that need no data run to completion against the package in `src/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["complexity_ledgers.py", "reduction_search.py", "verify_gradients.py"])
def test_data_free_demo_exits_zero(demo, tmp_path):
    # reduction_search.py writes its artifacts under a mkdtemp directory
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
