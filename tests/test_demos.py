import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    # no other test runs the demos, so a public name they use and that is gone shows only here
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
                               "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
