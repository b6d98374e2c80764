"""Write ``baseline.json``: the machine, the layer-to-metric map, and for each
pinned shape of the two-route workloads the number of terms each route sums
and the time of each route.

Usage, from the repository root::

    python3 perfbench/baseline.py

Summed terms are counted in a traced pass (one ``maj`` call per summed
filling or tableau); times come from one untraced pass in the same process,
so the compact/plain ratio is taken within one run.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    import worker

    macpoly, workloads, _, reference = worker._setup("htilde", 0)
    import tracing

    routes = []
    for workload in ("htilde", "integral"):
        cases = [c for c in workloads.pinned_cases(workload) if c.route]
        per_case = worker.measure_traced(macpoly, workloads, cases, reference, 0, f"baseline-{workload}")["per_case"]
        for case in cases:
            if case.route != "compact":
                continue
            compact = per_case[case.id]
            plain = per_case[case.id.replace("_compact/", "_plain/", 1)]
            routes.append(
                {
                    "family": case.fn.split("_")[0],
                    "shape": list(case.args[0]),
                    "n": case.args[1],
                    "compact_terms": compact["summed_terms"],
                    "plain_terms": plain["summed_terms"],
                    "compact_s": round(compact["untraced_s"], 4),
                    "plain_s": round(plain["untraced_s"], 4),
                    "compact_over_plain": round(compact["untraced_s"] / plain["untraced_s"], 3),
                }
            )
    baseline = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu": cpu_model(),
        },
        "layers": {
            name: {"unit": unit, "spans": list(spans), "moves": moves}
            for name, (unit, spans, moves) in tracing.LAYER_METRICS.items()
        },
        "routes": routes,
    }
    OUT.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
