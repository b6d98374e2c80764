"""Smoke tests of the scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # (1, 1)'s own diagram, 3 sorted tableaux, not its conjugate's 4, and it
    # builds a Filling for the 2 of dominant content, (1, 1) and (1, 2)
    assert "  shape (1, 1):      3 walked,      2 weighed vs      4  (75.0%)" in lines
    # a single cell is walked over the values 1..1 only, not 1..n
    assert "  shape (1,):      1 walked,      1 weighed vs      2  (50.0%)" in lines
    # P((3,2,1)) at n = 5 weighs only the fillings of dominant content, and
    # fillings with one repeat mask share one weight across every composition
    assert "  shape (3, 2, 1):   2160 enumerated,    217 kept,      8 weights" in lines
    # P((3,2,1)) at n = 5 counts its 60 compositions' fillings in one walk, row 1
    # looping over their basements, and keeps those of dominant content
    assert "  P (3, 2, 1):   60 compositions in  1 walk,    217 leaves kept" in lines
    assert "  G (1, 3, 2):   10 compositions in  1 walk,    182 leaves kept" in lines
    # P((3,2,1)) at n = 5 sums 5 coefficients with 4 distinct numerators; of the
    # 8 hook pieces that cancel from its coefficients, 7 repeat in every key of their
    # x and leave before the sum, and the 4 reductions divide out 1
    assert "  P (3, 2, 1):    5 reduced,    4 distinct,    7 cancelled before the sum,    1 by division" in lines
    assert "  G (3, 2, 1):   15 reduced,   15 distinct,   10 cancelled before the sum,    5 by division" in lines
    # J((4,2)) at n = 4 expands only the keys of dominant x, by either route
    assert (
        "  shape (4, 2): j_plain   1230 counted,   143 tallied;"
        " j_compact    922 counted,   116 tallied"
    ) in lines
    # htilde_plain's words walk lists only the columns whose content fits a
    # dominant content of 8 entries over 1..4: 230 of the 256 of height 4
    assert "  shape (4, 4): height 4   230 vs   256" in lines
    # H~((2,2,2,2)) at n = 4 stores one (q, t) map per orbit of x, the 15
    # partitions of 8 into at most 4 parts, shared by the orbit's 165 vectors
    assert "  shape (2, 2, 2, 2):   5523 terms,   165 x,   15 maps" in lines


def test_term_counts_at_n_zero():
    # nothing to count over an empty alphabet, and no share of 0 fillings
    proc = run_term_counts("--max-size", "2", "--n", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  shape (1, 1):      0 walked,      0 weighed vs      0" in lines
    assert "  size 2:      0 vs      0" in lines
    assert "%" not in proc.stdout


@pytest.mark.parametrize("flag", ["--n", "--max-size"])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_term_counts_refuses_a_bad_count(flag, value):
    # one error line and exit 2, as the macpoly CLI does, never a traceback
    proc = run_term_counts(flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: {flag} ")


def test_bench_table_prints_one_row_per_record():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_table.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header == "| PR | htilde | integral | symmetric | battery |"
    assert rule == "|---|---|---|---|---|"
    prs = [int(row.split("|")[1]) for row in rows]
    assert prs == sorted(int(p.stem[len("BENCH_pr"):]) for p in ROOT.glob("BENCH_pr*.json"))
    # BENCH_pr24.json's change medians of wall_s / largest_case_s
    assert "| 24 | 0.166 / 0.0197 | 0.129 / 0.0359 | 0.070 / 0.0051 | 0.380 / 0.3801 |" in rows
