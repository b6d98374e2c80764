"""Regenerate ``reference.json``: the digest of every case any seed can draw.

Usage, from the repository root::

    python3 perfbench/make_reference.py

The digests pin the outputs of the commit this is run on.  The modified and
integral families share one digest per shape between their two routes, and
it is computed here from the plain route.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import macpoly  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests: dict[str, str] = {}
    for workload in workloads.WORKLOADS:
        for case in workloads.all_window_cases(workload):
            if case.key in digests or case.route == "compact":
                continue
            output = workloads.resolve(macpoly, case)(*case.args)
            digests[case.key] = workloads.digest(output)
            print(case.key, digests[case.key], flush=True)
    workloads.REFERENCE.write_text(
        json.dumps({"digests": dict(sorted(digests.items()))}, indent=0) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
