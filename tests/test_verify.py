"""The suite table of the identity battery: which check each
``run_suite(suite, max_size, max_n)`` runs, and with which arguments.

``_run`` is replaced by a recorder that reads the calling check's arguments
from its frame and runs no body, so even the default bounds cost nothing.
"""

import sys

import pytest

from macpoly import verify

S, N = "max_size", "max_n"

#: per suite, each check in order with its default bounds
SUITE_TABLE = {
    "fixtures": [("check_fixture_statistics", {}), ("check_fixture_tableau_listing", {})],
    "htilde": [
        ("check_htilde_equivalence", {S: 6, N: 4}),
        ("check_htilde_symmetry", {S: 5, N: 4}),
    ],
    "j": [
        ("check_pr_products", {S: 8}),
        ("check_j_equivalence", {S: 5, N: 4}),
        ("check_j_ones_closed_form", {N: 5}),
        ("check_j_def", {S: 4, N: 4}),
        ("check_integrality", {S: 5, N: 4}),
        ("check_p_symmetry", {S: 5, N: 4}),
    ],
    "qsym": [
        ("check_quasisymmetry", {S: 5, N: 5}),
        ("check_refinement", {S: 5, N: 5}),
        ("check_schur_chain", {S: 5, N: 5}),
    ],
}
SUITE_TABLE["all"] = [
    *(row for suite in ("fixtures", "htilde", "j", "qsym") for row in SUITE_TABLE[suite]),
    ("check_properties", {"cases": 1000, "seed": 20240613}),
    ("check_parallel_merge_order", {"seed": 7}),
]


def expected_calls(suite, max_size, max_n):
    given = {S: max_size, N: max_n}
    return [
        (name, {k: v if given.get(k) is None else given[k] for k, v in defaults.items()})
        for name, defaults in SUITE_TABLE[suite]
    ]


def recorded_calls(monkeypatch, suite, max_size, max_n):
    calls = []

    def record(name, body):
        frame = sys._getframe(1)
        while not frame.f_code.co_name.startswith("check_"):
            frame = frame.f_back
        code = frame.f_code
        args = code.co_varnames[: code.co_argcount]
        calls.append((code.co_name, {a: frame.f_locals[a] for a in args}))
        return verify.CheckResult(name, 0, True, 0.0)

    monkeypatch.setattr(verify, "_run", record)
    results = verify.run_suite(suite, max_size, max_n)
    assert len(results) == len(calls)
    return calls


@pytest.mark.parametrize("bounds", [(None, None), (2, 3), (3, None), (None, 2)])
@pytest.mark.parametrize("suite", sorted(SUITE_TABLE))
def test_suite_table(monkeypatch, suite, bounds):
    assert recorded_calls(monkeypatch, suite, *bounds) == expected_calls(suite, *bounds)


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")
