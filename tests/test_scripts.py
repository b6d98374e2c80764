"""Smoke tests of the scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_term_counts_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "term_counts.py"), "--max-size", "3", "--n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  shape (2, 1):      2 vs      4" in lines
    # (3, 0) has 1 word and (2, 1) has 3: the dominant contents of size 3 at n = 2
    assert "  size 3:      4 vs      8  (50.0%)" in lines
