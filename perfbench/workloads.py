"""Workload definitions: pinned anchor cases, seeded draws, and output checks.

A case is one call into the library.  Pinned cases run in every pass of
every run and are the only cases the end-to-end timings cover, so runs with
different seeds time the same work.  Drawn cases come from each workload's
stated window; the seed picks them and shuffles the order of all cases.
Drawn cases run once per run, after the timed passes, are checked like
pinned ones, and are timed on their own (``drawn_s``).

Every output is reduced to a digest of its canonical JSON and compared with
``reference.json``; the identities between routes are checked as well.  All
checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("htilde", "integral", "symmetric", "battery")

HTILDE_ANCHORS = ((3, 2, 1), (3, 3), (4, 2), (2, 2, 2), (3, 2, 2), (4, 4), (2, 2, 2, 2))
J_ANCHORS = ((2, 2, 1), (3, 2, 1), (3, 3), (4, 2), (2, 2, 2), (3, 2, 1, 1))
E_ANCHORS = ((0, 0, 4, 2, 0), (0, 3, 0, 3, 0), (3, 0, 2, 0, 1), (0, 2, 2, 0, 2))
SYM_ANCHORS = ((3, 2, 1), (3, 2), (3, 1, 1), (2, 2, 1))
BATTERY_ANCHOR = ("all", 4, 4)
BATTERY_SUITES = ("fixtures", "htilde", "j", "qsym")

#: number of drawn cases (or drawn shape families) per run
DRAWS = {"htilde": 1, "integral": 4, "symmetric": 1, "battery": 2}

#: the pinned case whose time is reported as ``largest_case_s``
LARGEST = {
    "htilde": "htilde_compact/2,2,2,2/n4",
    "integral": "j_plain/3,2,1,1/n4",
    "symmetric": "p_poly/3,2,1/n5",
    "battery": "run_suite/all/s4/n4",
}


@dataclass(frozen=True)
class Case:
    """One library call: ``fn(*args)``, with the key of its reference digest."""

    id: str
    fn: str
    args: tuple
    key: str
    route: str | None
    pinned: bool


def _shape(parts) -> str:
    return ",".join(map(str, parts))


def partitions(size: int):
    """Partitions of ``size`` in decreasing lexicographic order."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return list(gen(size, size))


def weak_compositions(total: int, length: int):
    if length == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in weak_compositions(total - first, length - 1)
    ]


def rearrangements(parts) -> list[tuple[int, ...]]:
    return sorted(set(permutations(parts)))


# -- case constructors ----------------------------------------------------------


def htilde_cases(lam, n, pinned):
    key = f"htilde/{_shape(lam)}/n{n}"
    return [
        Case(f"htilde_{route}/{_shape(lam)}/n{n}", f"htilde_{route}", (lam, n), key, route, pinned)
        for route in ("compact", "plain")
    ]


def j_cases(mu, n, pinned):
    key = f"j/{_shape(mu)}/n{n}"
    return [
        Case(f"j_{route}/{_shape(mu)}/n{n}", f"j_{route}", (mu, n), key, route, pinned)
        for route in ("compact", "plain")
    ]


def e_case(alpha, pinned):
    key = f"integral_e/{_shape(alpha)}"
    return [Case(key, "integral_e", (alpha,), key, None, pinned)]


def symmetric_cases(lam, n, pinned):
    out = [Case(f"p_poly/{_shape(lam)}/n{n}", "p_poly", (lam, n), f"p/{_shape(lam)}/n{n}", None, pinned)]
    for gamma in rearrangements(lam):
        g = _shape(gamma)
        out.append(Case(f"g_poly/{g}/n{n}", "g_poly", (gamma, n), f"g/{g}/n{n}", None, pinned))
        out.append(Case(f"qs_schur/{g}/n{n}", "qs_schur", (gamma, n), f"qs/{g}/n{n}", None, pinned))
    out.append(
        Case(f"schur_ssyt/{_shape(lam)}/n{n}", "schur_ssyt", (lam, n), f"ssyt/{_shape(lam)}/n{n}", None, pinned)
    )
    return out


def battery_case(suite, max_size, max_n, pinned):
    key = f"run_suite/{suite}/s{max_size}/n{max_n}"
    return [Case(key, "run_suite", (suite, max_size, max_n), key, None, pinned)]


# -- windows the seed draws from ------------------------------------------------------


def htilde_window():
    """Partitions with 5 <= |lam| <= 7 at n in {3, 4}, anchors excluded."""
    return [
        (lam, n)
        for size in (5, 6, 7)
        for lam in partitions(size)
        for n in (3, 4)
        if not (n == 4 and lam in HTILDE_ANCHORS)
    ]


def integral_window():
    """Weak compositions of length 5 with 4 <= |alpha| <= 6, anchors excluded."""
    return [
        alpha
        for total in (4, 5, 6)
        for alpha in weak_compositions(total, 5)
        if alpha not in E_ANCHORS
    ]


def symmetric_window():
    """Partitions with 3 <= |lam| <= 5 and at most 4 parts, at n = 4."""
    return [lam for size in (3, 4, 5) for lam in partitions(size) if len(lam) <= 4]


def battery_window():
    """Single suites at size and variable bounds in {2, 3}."""
    return [(s, ms, mn) for s in BATTERY_SUITES for ms in (2, 3) for mn in (2, 3)]


def pinned_cases(workload: str) -> list[Case]:
    if workload == "htilde":
        return [c for lam in HTILDE_ANCHORS for c in htilde_cases(lam, 4, True)]
    if workload == "integral":
        return [c for mu in J_ANCHORS for c in j_cases(mu, 4, True)] + [
            c for alpha in E_ANCHORS for c in e_case(alpha, True)
        ]
    if workload == "symmetric":
        return [c for lam in SYM_ANCHORS for c in symmetric_cases(lam, 5, True)]
    if workload == "battery":
        return battery_case(*BATTERY_ANCHOR, True)
    raise ValueError(f"unknown workload {workload!r}")


def drawn_cases(workload: str, rng: random.Random) -> list[Case]:
    k = DRAWS[workload]
    if workload == "htilde":
        return [c for lam, n in rng.sample(htilde_window(), k) for c in htilde_cases(lam, n, False)]
    if workload == "integral":
        return [c for alpha in rng.sample(integral_window(), k) for c in e_case(alpha, False)]
    if workload == "symmetric":
        return [c for lam in rng.sample(symmetric_window(), k) for c in symmetric_cases(lam, 4, False)]
    if workload == "battery":
        return [c for args in rng.sample(battery_window(), k) for c in battery_case(*args, False)]
    raise ValueError(f"unknown workload {workload!r}")


def case_list(workload: str, seed: int) -> list[Case]:
    """Pinned anchors plus the seeded draw, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    cases = pinned_cases(workload) + drawn_cases(workload, rng)
    rng.shuffle(cases)
    return cases


def all_window_cases(workload: str) -> list[Case]:
    """Every case any seed can produce: the reference must cover these."""
    if workload == "htilde":
        extra = [c for lam, n in htilde_window() for c in htilde_cases(lam, n, False)]
    elif workload == "integral":
        extra = [c for alpha in integral_window() for c in e_case(alpha, False)]
    elif workload == "symmetric":
        extra = [c for lam in symmetric_window() for c in symmetric_cases(lam, 4, False)]
    else:
        extra = [c for args in battery_window() for c in battery_case(*args, False)]
    return pinned_cases(workload) + extra


# -- calling and checking ---------------------------------------------------------------


def resolve(macpoly, case: Case):
    """The library function a case calls: a public name or the verify battery."""
    if case.fn == "run_suite":
        from macpoly.verify import run_suite

        return run_suite
    if case.fn not in macpoly.__all__:
        raise ValueError(f"{case.fn} is not part of the public API")
    return getattr(macpoly, case.fn)


def canonical(output):
    """JSON-ready canonical form of any case output."""
    if isinstance(output, list):  # verify battery: CheckResult list
        return [[r.name, r.instances, r.passed, r.detail] for r in output]
    if hasattr(output, "mult_prefactor"):  # JResult
        return output.value.to_json_obj()
    return output.to_json_obj()


def digest(output) -> str:
    text = json.dumps(canonical(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def output_terms(output) -> int:
    """Terms of an output; a battery result or a failed call has none."""
    if output is None or isinstance(output, list):
        return 0
    if hasattr(output, "mult_prefactor"):
        return len(output.value.terms)
    if hasattr(output, "coeffs"):
        return len(output.coeffs)
    return len(output.terms)


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["digests"]


def check_outputs(cases: list[Case], outputs: dict[str, object], reference: dict[str, str]) -> list[str]:
    """Digest check of every output; returns the ids of the cases that fail.

    An output of None marks a call that raised.
    """
    bad = []
    for case in cases:
        output = outputs[case.id]
        if output is None or digest(output) != reference.get(case.key):
            bad.append(case.id)
        elif case.fn == "run_suite" and not all(r.passed for r in output):
            bad.append(case.id)
    return bad


def check_identities(macpoly, cases: list[Case], outputs: dict[str, object]) -> tuple[int, list[str]]:
    """Cross-route identities among one pass's outputs.

    * compact == plain for the modified and integral families;
    * H~_mu(x; 1, 1) == (x_1 + ... + x_n)^|mu| on both modified routes;
    * sum of G over the rearrangement classes of lam == P_lam;
    * sum of qs_schur over the same classes == schur_ssyt.

    Returns the number of identity instances checked and the failures.
    """
    MPoly = macpoly.MPoly
    EResult = macpoly.EResult
    checked, bad = 0, []

    def expect(label, test):
        # an output missing because its call raised fails every identity it is in
        nonlocal checked
        checked += 1
        try:
            ok = test()
        except (AttributeError, KeyError, TypeError):
            ok = False
        if not ok:
            bad.append(label)

    for case in cases:
        if case.route != "compact":
            continue
        plain_id = case.id.replace("_compact/", "_plain/", 1)
        compact, plain = outputs[case.id], outputs[plain_id]
        if case.fn == "j_compact":
            expect(f"compact!=plain {case.key}", lambda: compact.value == plain)
            continue
        expect(f"compact!=plain {case.key}", lambda: compact == plain)
        lam, n = case.args
        linear = MPoly.zero(n)
        for i in range(n):
            linear = linear + MPoly.monomial(n, x=tuple(int(j == i) for j in range(n)))
        power = linear ** sum(lam)
        for route_id in (case.id, plain_id):
            expect(f"H(x;1,1) {route_id}", lambda: outputs[route_id].specialize(q=1, t=1) == power)

    for case in cases:
        if case.fn != "schur_ssyt":
            continue
        lam, n = case.args
        classes = [_shape(gamma) for gamma in rearrangements(lam)]

        def g_sum():
            total = EResult(n)
            for g in classes:
                total = total + outputs[f"g_poly/{g}/n{n}"]
            return total == outputs[f"p_poly/{_shape(lam)}/n{n}"]

        def qs_sum():
            total = MPoly.zero(n)
            for g in classes:
                total = total + outputs[f"qs_schur/{g}/n{n}"]
            return total == outputs[case.id]

        expect(f"sum G != P {case.key}", g_sum)
        expect(f"sum qs_schur != schur_ssyt {case.key}", qs_sum)
    return checked, bad
