"""Smoke tests of the scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_term_counts(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "term_counts.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_term_counts_runs():
    proc = run_term_counts("--max-size", "3", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  shape (2, 1):      2 vs      4" in lines
    # (3, 0) has 1 word and (2, 1) has 3: the dominant contents of size 3 at n = 2
    assert "  size 3:      4 vs      8  (50.0%)" in lines
    # the modified-family section counts the side htilde_compact walks:
    # (1, 1)'s own diagram, 3 sorted tableaux, not its conjugate's 4
    assert "  shape (1, 1):      3 vs      4  (75.0%)" in lines
    # P((3,2,1)) at n = 5 weighs only the fillings of dominant content, and
    # fillings with one weight key share one weight across every composition
    assert "  shape (3, 2, 1):   2160 enumerated,    217 kept,     55 weights" in lines
    # J((4,2)) at n = 4 expands only the keys of dominant x, by either route
    assert (
        "  shape (4, 2): j_plain   1230 counted,   143 tallied;"
        " j_compact    922 counted,   116 tallied"
    ) in lines


def test_term_counts_at_n_zero():
    # nothing to count over an empty alphabet, and no share of 0 fillings
    proc = run_term_counts("--max-size", "2", "--n", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  shape (1, 1):      0 vs      0" in lines
    assert "  size 2:      0 vs      0" in lines
    assert "%" not in proc.stdout
