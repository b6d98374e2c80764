"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import macpoly  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIGHT_INTEGRAL = [
    c for c in workloads.case_list("integral", 3) if c.fn == "integral_e" or sum(c.args[0]) <= 5
]


def _bindings():
    """Every attribute of every macpoly module and of the classes in them."""
    out = {}
    for module in tracing._package_modules():
        for name, value in vars(module).items():
            out[module.__name__, name] = value
            if isinstance(value, type) and value.__module__.startswith("macpoly"):
                for attr, inner in vars(value).items():
                    out[value.__module__ + "." + value.__qualname__, attr] = inner
    return out


def _traced(cases):
    recorder = tracing.Recorder()
    with tracing.Tracer(recorder) as tracer:
        outputs = {}
        for case in cases:
            recorder.set_case(case.id)
            fn = workloads.resolve(macpoly, case)
            outputs[case.id] = recorder.call(f"route.{case.fn}", fn, case.args)
    return recorder, tracer, outputs


def test_traced_outputs_equal_untraced_and_wrappers_restored():
    cases = LIGHT_INTEGRAL + [
        c for c in workloads.case_list("battery", 1) if not c.pinned
    ] + workloads.htilde_cases((3, 2), 3, False)
    before = _bindings()
    plain = {c.id: workloads.digest(workloads.resolve(macpoly, c)(*c.args)) for c in cases}
    recorder = tracing.Recorder()
    with tracing.Tracer(recorder):
        assert macpoly.modified.inv is not before["macpoly.shapes", "inv"]
        assert macpoly.integral.maj is not before["macpoly.shapes", "maj"]
        traced = {c.id: workloads.digest(workloads.resolve(macpoly, c)(*c.args)) for c in cases}
    after = _bindings()
    assert traced == plain
    assert all(after[k] is before[k] for k in before)
    assert not recorder.stack


def test_hand_checked_counts():
    def counts(fn, *args):
        recorder = tracing.Recorder()
        with tracing.Tracer(recorder):
            fn(*args)
        return recorder.calls

    plain = counts(macpoly.j_plain, (2, 2, 1), 4)
    assert plain["shapes.filling"] == 1024
    assert plain["shapes.maj"] == 216
    assert counts(macpoly.j_compact, (2, 2, 1), 4)["shapes.maj"] == 48
    assert counts(macpoly.htilde_compact, (3, 3), 4)["modified.tableaux"] == 816


def test_counts_repeat_and_seed_changes_cases():
    first, _, _ = _traced(LIGHT_INTEGRAL)
    second, _, _ = _traced(LIGHT_INTEGRAL)
    assert first.calls == second.calls
    assert first.extra == second.extra
    assert first.case_calls == second.case_calls
    for workload in workloads.WORKLOADS:
        assert workloads.case_list(workload, 5) == workloads.case_list(workload, 5)
        assert workloads.case_list(workload, 5) != workloads.case_list(workload, 6)


def test_missing_target_is_reported_absent():
    targets = [t for t in tracing.TARGETS if t.span != "polyring.divmod"] + [
        tracing.Target("polyring.divmod", "macpoly.polyring", "no_such_function"),
        tracing.Target("shapes.gone", "macpoly.no_such_module", "f"),
    ]
    recorder = tracing.Recorder()
    with tracing.Tracer(recorder, targets) as tracer:
        macpoly.htilde_compact((2, 1), 2)
    assert tracer.missing == ["polyring.divmod", "shapes.gone"]
    extras = {"verify.instances": 0, "out.terms": 0, "trace.overhead_s": 0.0}
    values, absent = tracing.layer_metrics(recorder, tracer.missing, set(), extras)
    assert {"polyring.divmod_calls", "polyring.divmod_s", "polyring.divmod_exact"} <= set(absent)
    assert not set(absent) & set(values)
    assert values["modified.tableaux"] > 0


def test_reference_covers_every_window_case():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        for case in workloads.all_window_cases(workload):
            assert case.key in reference, case.id
        assert workloads.LARGEST[workload] in {c.id for c in workloads.pinned_cases(workload)}


def test_benchmark_json_names_known_metrics():
    for metric in run.SPEC["per_layer"]:
        assert metric["unit"] == tracing.LAYER_METRICS[metric["name"]][0]
    for workload in workloads.WORKLOADS:
        pinned = workloads.pinned_cases(workload)
        raw = {
            "passes": [{c.id: 1.0 for c in pinned}],
            "scaled": [{c.id: 2.0 for c in pinned}],
            "loop_s": [0.001],
            "routes": {c.id: c.route for c in pinned},
            "peak_rss_mib": 30.0, "drawn": {}, "instances": 1,
        }
        values, _ = run.end_to_end(workload, raw, [0.1])
        assert {m["name"] for m in run.SPEC["end_to_end"]} <= set(values)
        assert values["largest_case_s"] == 2.0
        assert values["setup_s"] == 0.1
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
