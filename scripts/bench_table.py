#!/usr/bin/env python3
"""Print the benchmark trajectory as a Markdown table: one row per checked-in
``BENCH_pr<N>.json``, in PR order, with the change side's medians of
``wall_s`` and ``largest_case_s`` for each workload of ``BENCHMARK.json``.

    python scripts/bench_table.py

Each cell reads ``wall_s / largest_case_s`` in seconds, scaled to the
benchmark's reference speed; a workload a record lacks reads ``-``.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def cell(sides: dict | None) -> str:
    if sides is None:
        return "-"
    metrics = sides["change"]["metrics"]
    return f"{metrics['wall_s']['median']:.3f} / {metrics['largest_case_s']['median']:.4f}"


def main() -> None:
    records = [json.loads(p.read_text()) for p in ROOT.glob("BENCH_pr*.json")]
    print("| PR | " + " | ".join(WORKLOADS) + " |")
    print("|---" * (len(WORKLOADS) + 1) + "|")
    for record in sorted(records, key=lambda r: r["pr"]):
        cells = [cell(record["workloads"].get(w)) for w in WORKLOADS]
        print(f"| {record['pr']} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
