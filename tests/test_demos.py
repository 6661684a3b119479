"""The README's demo scripts run to completion.

Each script under ``demos/`` runs in its own interpreter, as the README
shows it, with the package under test on the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treesum

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(treesum.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["transition_walkthrough.py",
                                    "train_and_decode.py", "metrics_tour.py"])
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip()
