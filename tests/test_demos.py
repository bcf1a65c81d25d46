"""Every demo runs to completion against the package in ``src/``.

Keeps the demos honest, and keeps "reached by a demo" a checked fact when
deciding what code is still in use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py")) + [ROOT / "demos" / "08_cli_tour.sh"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = ["sh", str(demo)] if demo.suffix == ".sh" else [sys.executable, str(demo)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
