import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo 02 runs a census and is left out to keep the suite fast
FAST_DEMOS = [*ROOT.glob("demos/01_*.py"), *ROOT.glob("demos/03_*.py")]


def test_fast_demos_exist():
    assert len(FAST_DEMOS) == 2


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
