"""Byte stability: recompute the cheap benchmark window cases and compare each
output's digest with the one pinned in ``perfbench/reference.json``.

The case lists, the canonical JSON and the digest come from
``perfbench/workloads.py``, loaded by path; nothing under ``perfbench/`` is
written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import macpoly

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def mismatches(workloads, cases):
    reference = workloads.load_reference()
    assert cases and all(case.key in reference for case in cases)
    return [
        case.id
        for case in cases
        if workloads.digest(workloads.resolve(macpoly, case)(*case.args)) != reference[case.key]
    ]


def test_htilde_digests_up_to_size_6(workloads):
    cases = [c for c in workloads.all_window_cases("htilde") if sum(c.args[0]) <= 6]
    assert {c.args[1] for c in cases} == {3, 4} and {c.route for c in cases} == {"compact", "plain"}
    assert mismatches(workloads, cases) == []


def test_integral_e_digests_up_to_size_5(workloads):
    cases = [
        c for c in workloads.all_window_cases("integral")
        if c.fn == "integral_e" and sum(c.args[0]) <= 5
    ]
    assert mismatches(workloads, cases) == []


def test_integral_pinned_digests(workloads):
    # both J routes on the J anchors at n = 4, plus the E anchors
    cases = workloads.pinned_cases("integral")
    assert {c.fn for c in cases} == {"j_compact", "j_plain", "integral_e"}
    assert mismatches(workloads, cases) == []


def test_symmetric_pinned_digests(workloads):
    # P, G, qs_schur and schur_ssyt on the symmetric anchors at n = 5
    cases = workloads.pinned_cases("symmetric")
    assert {c.args[1] for c in cases} == {5}
    assert mismatches(workloads, cases) == []


def test_symmetric_window_digests(workloads):
    cases = [c for c in workloads.all_window_cases("symmetric") if not c.pinned]
    assert mismatches(workloads, cases) == []


def test_battery_digests(workloads):
    # run_suite on every suite at size and variable bounds in {2, 3}, plus
    # "all" at (4, 4): the check names, instance counts, verdicts and details
    cases = workloads.all_window_cases("battery")
    assert len(cases) == 17 and {c.fn for c in cases} == {"run_suite"}
    assert mismatches(workloads, cases) == []
