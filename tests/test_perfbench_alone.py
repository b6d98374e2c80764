"""The benchmark's own self-tests, run on their own as a separate pytest."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass_on_their_own():
    # run alone, no earlier test warms a cache or builds the first fraction for them
    before = sorted((ROOT / "perfbench").rglob("*"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted((ROOT / "perfbench").rglob("*")) == before
