import os
import subprocess
import sys
from pathlib import Path

import pathae

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_numerics_demo_runs(tmp_path):
    """Demo 01 checks a model's gradients against finite differences; the
    other demos train for seconds each and are run by hand."""
    src = str(Path(pathae.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(DEMOS / "01_numerics_and_gradients.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "max |analytic - finite difference|" in done.stdout
    assert list(tmp_path.iterdir()) == []
