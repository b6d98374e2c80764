#!/usr/bin/env python3
"""Record a change's end-to-end benchmark against its parent as ``BENCH_pr<N>.json``.

Each side is a commit's tree, exported with ``git archive`` into a temporary
directory.  For every seed and workload the two sides run
``perfbench/run.py --trace 0`` back to back, in an order that alternates from
seed to seed, so that drift of the machine's speed falls on both.  The record
holds, per workload and side, the median and interquartile range of each
end-to-end metric over the seeds and the total of failed outputs, with the
machine block of ``perfbench/baseline.json``.

    python scripts/bench_record.py --pr N --base PARENT --change COMMIT --runs 10
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``."""
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(into)
    return into


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced run of ``workload`` in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summary(results: list[dict]) -> dict:
    """Median and interquartile range of each metric, and the failures, over runs."""
    out = {"runs": len(results), "failed": sum(r["failed"] for r in results), "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "iqr": q3 - q1,
            "values": values,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", required=True, help="the change's commit")
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..runs")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for an interquartile range")
    workloads = [w["name"] for w in SPEC["workloads"]]
    commits = {side: git("rev-parse", rev).decode().strip()
               for side, rev in (("parent", args.base), ("change", args.change))}

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in commits.items()}
        results: dict = {w: {"parent": [], "change": []} for w in workloads}
        for seed in range(1, args.runs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    line = run_once(trees[side], workload, seed)
                    results[workload][side].append(line)
                    print(f"seed {seed} {workload} {side}: failed {line['failed']}, "
                          f"wall_s {line['metrics']['wall_s']['value']:.4g}", file=sys.stderr)

    record = {
        "pr": args.pr,
        **commits,
        "seeds": list(range(1, args.runs + 1)),
        "seconds": SPEC["run_seconds"],
        "machine": json.loads((ROOT / "perfbench" / "baseline.json").read_text())["machine"],
        "workloads": {
            w: {side: summary(runs) for side, runs in sides.items()} for w, sides in results.items()
        },
    }
    out = ROOT / f"BENCH_pr{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
