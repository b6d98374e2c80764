"""The benchmark's traced result line: tracing each workload's pinned cases
must leave no ``per_layer`` metric of ``BENCHMARK.json`` absent.

``perfbench/run.py`` drops an absent metric from its result line, so a traced
target that no longer exists, or a ratio whose base reads 0 (a workload that
builds no ``Filling`` has no ``shapes.accept_ratio``), would end a traced run
with a malformed line.  ``perfbench/tracing.py`` and ``perfbench/workloads.py``
are loaded by path; nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import macpoly

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def load(name):
    spec = importlib.util.spec_from_file_location(f"traced_metrics_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return load("tracing"), load("workloads")


@pytest.mark.parametrize("workload", ["htilde", "integral", "symmetric", "battery"])
def test_traced_pinned_cases_report_every_per_layer_metric(perfbench, workload):
    tracing, workloads = perfbench
    cases = workloads.pinned_cases(workload)
    recorder, outputs = tracing.Recorder(), {}
    with tracing.Tracer(recorder) as tracer:
        for case in cases:
            recorder.set_case(case.id)
            fn = workloads.resolve(macpoly, case)
            outputs[case.id] = recorder.call(f"route.{case.fn}", fn, case.args)
    extras = {
        "verify.instances": sum(
            r.instances for c in cases if c.fn == "run_suite" for r in outputs[c.id]
        ),
        "out.terms": sum(workloads.output_terms(outputs[c.id]) for c in cases),
        # measured by the benchmark from repeated passes, not by one trace
        "trace.overhead_s": 0.0,
    }
    routes = {f"route.{c.fn}" for c in cases}
    values, absent = tracing.layer_metrics(recorder, tracer.missing, routes, extras)
    assert tracer.missing == []
    assert [name for name in PER_LAYER if name in absent or name not in values] == []
