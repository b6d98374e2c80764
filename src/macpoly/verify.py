"""Cross-formula identity battery.

Every redundant pair of formulas in the package is executable as an identity
check; this module runs them over size/variable windows and reports one line
per identity.  The CLI `verify` subcommand and the acceptance test suite both
drive these functions.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from inspect import signature
from itertools import chain, product as iproduct
from math import factorial
from typing import Callable, Iterable, Iterator

from .integral import (
    JResult,
    compositions_rearranging,
    integral_e,
    j_compact,
    j_plain,
    p_poly,
    hook_product,
    hook_product_inc,
)
from .modified import SortedTableau, htilde_compact, htilde_plain, iter_sorted_tableaux
from .nonsymmetric import EResult, _e_sum, e_permuted_basement, f_poly, iter_basement_fillings
from .polyring import (
    QUASISYMMETRIC, SYMMETRIC, MPoly, Monomial, QtFactor, QtRational, distinct_permutations,
    one_minus_qt, t_multinomial,
)
from .quasisym import (
    g_poly,
    qs_schur,
    qsym_decompose,
    schur_ssyt,
)
from .shapes import (
    INF_BASEMENT,
    Filling,
    arm_partition,
    composition_stats,
    coinv_comp,
    content_plan,
    diagram,
    filling_from_fixture,
    inv,
    is_ordered,
    is_packed,
    iter_nonattacking,
    leg,
    maj,
)


@dataclass
class CheckResult:
    name: str
    instances: int
    passed: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{self.name}: instances={self.instances} time={self.seconds:.2f}s {status}{extra}"


def _run(name: str, body: Callable[[], tuple[int, str]]) -> CheckResult:
    """Run one check; a failed assertion or any other exception from the
    code under check is a FAIL, and the battery goes on."""
    start = time.perf_counter()
    try:
        instances, detail = body()
        passed = True
    except AssertionError as exc:
        instances, detail, passed = 0, str(exc), False
    except Exception as exc:
        instances, detail, passed = 0, f"{type(exc).__name__}: {exc}", False
    return CheckResult(name, instances, passed, time.perf_counter() - start, detail)


def _each(name: str, detail: str, cases: Iterable[tuple], test: Callable) -> CheckResult:
    """One check under :func:`_run`: ``test(*case)`` asserts on each argument tuple
    in ``cases`` and returns how many instances it covered, None counting as 1."""
    covered = (test(*case) for case in cases)
    return _run(name, lambda: (sum(1 if k is None else k for k in covered), detail))


def _by_n(shapes: Iterable[tuple[int, ...]], max_n: int, least: Callable = lambda shape: 1):
    """(shape, n) for each shape and each n from ``least(shape)`` to max_n."""
    return ((shape, n) for shape in shapes for n in range(least(shape), max_n + 1))


def _swaps_fix(p: MPoly, n: int, where: str) -> int:
    """Assert that each adjacent transposition of x_1..x_n fixes p; returns their number."""
    for i in range(1, n):
        assert p.swap_x(i, i + 1) == p, f"{where}, swap {i}"
    return n - 1


def partitions_up_to(max_size: int) -> Iterator[tuple[int, ...]]:
    """Every partition of size 1..max_size, by size, each size in reverse lexicographic order."""
    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if not remaining:
            yield prefix
        for part in range(min(remaining, cap), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    for size in range(1, max_size + 1):
        yield from gen(size, size, ())


def strong_compositions_up_to(max_size: int) -> Iterator[tuple[int, ...]]:
    """Each composition once per size from its own up to max_size: pinned counts include repeats."""
    def gen(remaining: int, prefix: tuple[int, ...]):
        if prefix:
            yield prefix
        for part in range(1, remaining + 1):
            yield from gen(remaining - part, prefix + (part,))

    for size in range(1, max_size + 1):
        yield from gen(size, ())


def weak_compositions_up_to(max_size: int, length: int) -> Iterator[tuple[int, ...]]:
    def gen(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in gen(remaining - first, slots - 1):
                yield (first,) + rest

    for total in range(0, max_size + 1):
        yield from gen(total, length)


def load_fixture(name: str) -> dict:
    return json.loads(resources.files("macpoly.fixtures").joinpath(name).read_text())


# -- fixture checks ---------------------------------------------------------------


def check_fixture_statistics() -> CheckResult:
    def body():
        tableau, expected = filling_from_fixture(load_fixture("sorted_tableau.json"))
        assert inv(tableau) == expected["inv"], f"inv {inv(tableau)} != {expected['inv']}"
        assert maj(tableau) == expected["maj"], f"maj {maj(tableau)} != {expected['maj']}"
        expected_mult = (
            t_multinomial(3, [2, 1]) * t_multinomial(2, [1, 1]) * t_multinomial(4, [2, 2])
        )
        mult = SortedTableau.certify(tableau).multiplicity_t()
        assert mult == expected_mult, "multiplicity mismatch on the sorted tableau"
        filling, expected = filling_from_fixture(load_fixture("ordered_filling.json"))
        assert maj(filling) == expected["maj"], f"maj {maj(filling)} != {expected['maj']}"
        assert coinv_comp(filling) == expected["coinv"], (
            f"coinv {coinv_comp(filling)} != {expected['coinv']}"
        )
        return 2, ""

    return _run("statistics fixtures (sorted tableau, ordered filling)", body)


def check_fixture_tableau_listing() -> CheckResult:
    def body():
        listing = load_fixture("tableau_listing.json")
        shape = diagram(listing["shape"])
        n = listing["n"]
        expected = {}
        for item in listing["tableaux"]:
            key = tuple(sorted((tuple(cell[:2]), cell[2]) for cell in item["entries"]))
            expected[key] = (item["inv"], item["maj"], tuple(item["multiplicity"]))
        every = iter_sorted_tableaux(shape, n, content_plan(None, n, len(shape.cells)))
        tableaux = [Filling(shape, e, INF_BASEMENT) for e, _, _ in every]
        packed = [f for f in tableaux if is_packed(f)]
        assert len(packed) == len(expected) == 32, f"packed count {len(packed)}"
        total = MPoly.zero(n)
        for f in tableaux:
            pt = SortedTableau.certify(f).multiplicity_t()
            if is_packed(f):
                key = tuple(sorted(((c.col, c.row), v) for c, v in f.entries.items()))
                e_inv, e_maj, e_perm = expected[key]
                assert (inv(f), maj(f)) == (e_inv, e_maj), f"statistics differ at {key}"
                got = tuple(
                    pt.qt_terms().get((0, k), 0)
                    for k in range(len(e_perm))
                )
                assert got == e_perm, f"multiplicity_t differs at {key}"
            total = total + pt.extended(n).mul_monomial(x=f.x_exponents(n), q=maj(f), t=inv(f))
        assert total == htilde_compact((3, 1), n)
        assert total == htilde_plain((3, 1), n)
        assert total == htilde_plain((2, 1, 1), n).swap_qt()
        return 32, "weights and weighted sum"

    return _run("tableau listing fixture", body)


# -- modified-Macdonald checks -------------------------------------------------------


def check_htilde_equivalence(max_size: int = 6, max_n: int = 4) -> CheckResult:
    def test(lam, n):
        assert htilde_compact(lam, n) == htilde_plain(lam, n), f"lam={lam}, n={n}"

    return _each("compact vs plain modified-Macdonald", f"|shape| <= {max_size}, n <= {max_n}",
                 _by_n(partitions_up_to(max_size), max_n), test)


def htilde_all_words(lam: tuple[int, ...], n: int) -> MPoly:
    """Sum of x^sigma q^inv t^maj over all n^|lam| fillings: the full-content
    sum that :func:`htilde_plain` reduces to weakly decreasing content."""
    shape, values = diagram(lam), range(1, n + 1)
    words = iproduct(values, repeat=len(shape.cells))
    monomials = (Monomial(tuple(map(e.count, values)), shape.inv(e), shape.maj(e)) for e in words)
    return MPoly(n, Counter(monomials))


def check_htilde_symmetry(max_size: int = 5, max_n: int = 4) -> CheckResult:
    def test(lam, n):
        p = htilde_all_words(lam, n)
        assert p == htilde_plain(lam, n), f"lam={lam}, n={n}: all words != htilde_plain"
        return _swaps_fix(p, n, f"lam={lam}, n={n}")

    return _each("modified-Macdonald symmetry", "adjacent transposition invariance",
                 _by_n(partitions_up_to(max_size), max_n), test)


# -- integral-form checks --------------------------------------------------------------


def hook_product_by_columns(mu: tuple[int, ...]) -> MPoly:
    """The other form of :func:`hook_product`: over the column diagram of mu,
    with 1 - q^leg t^(arm+1)."""
    out = MPoly.one(0)
    for cell in diagram(mu).cells:
        out = out * one_minus_qt(leg(mu, cell), arm_partition(mu, cell) + 1)
    return out


def check_pr_products(max_size: int = 8) -> CheckResult:
    def test(mu):
        value = hook_product(mu)
        assert value == hook_product_by_columns(mu), f"mu={mu}: the two forms differ"
        assert value == hook_product_inc(composition_stats(mu).inc), f"mu={mu}"

    return _each("normalization products agree", f"|shape| <= {max_size}",
                 zip(partitions_up_to(max_size)), test)


def check_j_equivalence(max_size: int = 5, max_n: int = 4) -> CheckResult:
    def test(mu, n):
        assert j_compact(mu, n).value == j_plain(mu, n), f"mu={mu}, n={n}"

    return _each("compact vs plain integral form", f"|shape| <= {max_size}, n <= {max_n}",
                 _by_n(partitions_up_to(max_size), max_n), test)


def check_j_ones_closed_form(max_n: int = 5) -> CheckResult:
    def test(n):
        mu = (1,) * n
        ordered = list(iter_nonattacking(mu, n, ordered=True))
        assert len(ordered) == 1, f"n={n}: {len(ordered)} ordered fillings"
        expected = MPoly.monomial(n, x=(1,) * n)
        for i in range(1, n + 1):
            expected = expected * (MPoly.one(n) - MPoly.monomial(n, t=i))
        assert j_compact(mu, n).value == expected, f"n={n}"

    return _each("all-ones integral form", "single-term closed form",
                 zip(range(1, max_n + 1)), test)


def check_j_def(max_size: int = 4, max_n: int = 4) -> CheckResult:
    def test(lam, n):
        lhs = p_poly(lam, n).cleared_by(hook_product(lam))
        assert lhs == j_compact(lam, n).value, f"lam={lam}, n={n}"

    return _each("integral form = P times normalization", "monic value times normalization",
                 _by_n(partitions_up_to(max_size), max_n, len), test)


def check_integrality(max_size: int = 5, max_n: int = 4) -> CheckResult:
    def j_quotient(mu, n):
        quotient = JResult(j_plain(mu, n), composition_stats(mu).mult).quotient()
        assert all(isinstance(c, int) for c in quotient.coefficients())

    def e_routes(alpha):
        assert all(is_ordered(f) for f in iter_basement_fillings(alpha)), (
            f"alpha={alpha}: a basement filling is not ordered"
        )
        value = integral_e(alpha)
        cleared = e_permuted_basement(alpha).cleared_by(hook_product_inc(alpha))
        assert value == cleared, f"alpha={alpha}: the integral-form routes disagree"
        JResult(value, composition_stats(alpha).mult).quotient()

    alphas = (a for n in range(max_n) for a in weak_compositions_up_to(max_size, n + 1) if any(a))
    cases = chain(
        ((j_quotient, mu, n) for mu, n in _by_n(partitions_up_to(max_size), max_n)),
        ((e_routes, alpha) for alpha in alphas),
    )
    return _each("integral-form divisibility", "Pochhammer divisibility, both forms",
                 cases, lambda test, *args: test(*args))


def check_p_symmetry(max_size: int = 5, max_n: int = 4) -> CheckResult:
    def test(lam, n):
        return _swaps_fix(_e_sum(lam, n, spread=SYMMETRIC), n, f"lam={lam}, n={n}")

    return _each("monic symmetric value symmetry", "adjacent transposition invariance",
                 _by_n(partitions_up_to(max_size), max_n, len), test)


# -- quasisymmetric checks -----------------------------------------------------------


def check_quasisymmetry(max_size: int = 5, max_n: int = 5) -> CheckResult:
    def test(gamma, n):
        result = qsym_decompose(_e_sum(gamma, n, spread=QUASISYMMETRIC))
        assert result.is_quasisymmetric, f"gamma={gamma}, n={n}: {result.witness}"

    return _each("quasisymmetry of G", f"|shape| <= {max_size}, n <= {max_n}",
                 _by_n(strong_compositions_up_to(max_size), max_n, len), test)


def check_refinement(max_size: int = 5, max_n: int = 5) -> CheckResult:
    def test(lam, n):
        total = EResult(n)
        for gamma in distinct_permutations(lam):
            total = total + g_poly(gamma, n)
        assert total == p_poly(lam, n), f"lam={lam}, n={n}"

    return _each("quasisymmetric refinement", "G sums to P over rearrangement classes",
                 _by_n(partitions_up_to(max_size), max_n, len), test)


def check_schur_chain(max_size: int = 5, max_n: int = 5) -> CheckResult:
    def test(lam, n):
        total = MPoly.zero(n)
        for gamma in distinct_permutations(lam):
            piece = qs_schur(gamma, n)
            assert all(
                isinstance(c, int) and c >= 0 for c in piece.coefficients()
            ), f"negative piece at gamma={gamma}, n={n}"
            total = total + piece
        assert total == schur_ssyt(lam, n), f"lam={lam}, n={n}"

    return _each("Schur specialization chain", "specializations sum to the tableau oracle",
                 _by_n(partitions_up_to(max_size), max_n, len), test)


# -- randomized property block ----------------------------------------------------------


def check_properties(cases: int = 1000, seed: int = 20240613) -> CheckResult:
    def body():
        rng = random.Random(seed)

        def rand_poly(n):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                mono = Monomial(
                    tuple(rng.randint(0, 2) for _ in range(n)),
                    rng.randint(0, 2),
                    rng.randint(0, 2),
                )
                terms[mono] = rng.randint(-5, 5)
            return MPoly(n, terms)

        count = 0
        while count < cases:
            # ring axioms
            p, r, s = (rand_poly(2) for _ in range(3))
            assert (p + r) + s == p + (r + s)
            assert p * r == r * p
            assert p * (r + s) == p * r + p * s
            count += 3
            # reduction idempotence and value preservation
            num = MPoly(
                0,
                {
                    Monomial((), rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                    for _ in range(rng.randint(0, 3))
                },
            )
            den = tuple(
                QtFactor(rng.randint(0, 2), rng.randint(1, 2))
                for _ in range(rng.randint(0, 2))
            )
            u = QtRational(num, den)
            again = QtRational(u.num, u.den)
            assert (again.num, again.den) == (u.num, u.den)
            left = u.num
            for f in den:
                left = left * f.poly()
            right = num
            for f in u.den:
                right = right * f.poly()
            assert left == right
            count += 2
            # Gaussian multinomial polynomiality and t = 1 value
            total = rng.randint(1, 6)
            parts = []
            remaining = total
            while remaining:
                part = rng.randint(1, remaining)
                parts.append(part)
                remaining -= part
            value = t_multinomial(total, parts).specialize(t=1).constant_term()
            expected = factorial(total)
            for part in parts:
                expected //= factorial(part)
            assert value == expected
            count += 1
            # accumulation order independence
            polys = [rand_poly(2) for _ in range(4)]
            shuffled = polys[:]
            rng.shuffle(shuffled)
            acc1 = MPoly.zero(2)
            acc2 = MPoly.zero(2)
            for a in polys:
                acc1 = acc1 + a
            for a in shuffled:
                acc2 = acc2 + a
            assert acc1 == acc2
            count += 1
        return count, f"seed={seed}"

    return _run("randomized property block", body)


def check_parallel_merge_order(seed: int = 7) -> CheckResult:
    def body():
        rng = random.Random(seed)
        alphas = compositions_rearranging((2, 1), 3)
        reference = None
        for _ in range(4):
            shuffled = list(alphas)
            rng.shuffle(shuffled)
            total = EResult(3)
            for alpha in shuffled:
                total = total + f_poly(alpha)
            if reference is None:
                reference = total
            assert total == reference
        return 4, "shuffled accumulation of nonsymmetric summands"

    return _run("merge-order independence", body)


# -- suites -------------------------------------------------------------------------


#: each suite's checks in order; each states its default bounds in its signature
SUITES = {
    "fixtures": [check_fixture_statistics, check_fixture_tableau_listing],
    "htilde": [check_htilde_equivalence, check_htilde_symmetry],
    "j": [
        check_pr_products, check_j_equivalence, check_j_ones_closed_form, check_j_def,
        check_integrality, check_p_symmetry,
    ],
    "qsym": [check_quasisymmetry, check_refinement, check_schur_chain],
}
SUITES["all"] = [*chain(*SUITES.values()), check_properties, check_parallel_merge_order]


def run_suite(
    suite: str, max_size: int | None = None, max_n: int | None = None
) -> list[CheckResult]:
    """Run a suite's checks, passing each given bound to the checks whose
    signature names it; the others keep their defaults."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    given = {k: v for k, v in (("max_size", max_size), ("max_n", max_n)) if v is not None}
    return [
        check(**{k: v for k, v in given.items() if k in signature(check).parameters})
        for check in SUITES[suite]
    ]
