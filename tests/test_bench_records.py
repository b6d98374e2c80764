"""The checked-in benchmark records ``BENCH_*.json`` at the repository root."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_parses_and_names_known_metrics(path):
    record = json.loads(path.read_text())
    machine = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["machine"]
    assert record["machine"] == machine
    assert record["workloads"]
    assert set(record["workloads"]) <= {w["name"] for w in SPEC["workloads"]}
    for sides in record["workloads"].values():
        assert set(sides) == {"parent", "change"}
        for side in sides.values():
            assert side["failed"] == 0
            assert side["runs"] >= 5
            assert side["metrics"] and set(side["metrics"]) <= KNOWN
            for metric in side["metrics"].values():
                assert len(metric["values"]) == side["runs"]
                assert metric["iqr"] >= 0
