#!/usr/bin/env python3
"""Measure how much smaller the compact enumerations are than the plain ones.

For the modified family: the sorted tableaux ``htilde_compact`` walks (on
the conjugate diagram, or the shape's own where that has fewer, over the values
1..min(n, |shape|)) and those it weighs (of dominant content, one ``Filling``
built for each) versus all n^|shape| fillings.  For the integral form: ordered
nonattacking fillings of the increasing diagram versus all nonattacking
fillings of the decreasing one.
Then, per size, the words of weakly decreasing content that ``htilde_plain``
sums versus all n^size words (the count depends on the size alone).  A share
is printed only where the all-fillings count is nonzero (not at n = 0).  Then,
for P on the shapes the symmetric benchmark pins, at n = 5: the basement
fillings enumerated over every composition, those of dominant content that
``p_poly`` keeps, and the weights it builds for them, one per repeat mask,
which the compositions of one call share.  Then, for those P and for G on the
rearrangements of (3, 2, 1), also at n = 5: the compositions summed, the walks
run per call (one, row 1 looping over every composition's basement) and the
leaves they keep; then the coefficients summed (one per
representative x), the distinct numerators among them (each reduced once), the
pieces of hooks cancelled before the sum (summed over the coefficients: the hooks
of the cells that every key of x repeats) and those cancelled by division in the
reductions run.  Then, for J on the shapes the integral
benchmark pins, at n = 4: per route, the distinct (x, maj, coinv, repeat
mask) keys its fillings are counted by, and the keys of dominant x that it
expands, since J is symmetric.  Last, for H~ on the shapes the htilde benchmark
pins, at n = 4: per column height, the columns that the words walk of
``htilde_plain`` lists (those whose own content fits a dominant content of the
shape's size) versus all v^h, v = min(n, |shape|); then the terms of the output,
its exponent vectors x, and the (q, t) coefficient maps it stores, one per orbit,
which the members of the orbit share.

    python scripts/term_counts.py --max-size 5 --n 3
"""

import argparse
from functools import partial
from itertools import permutations
from math import gcd

from macpoly import cyclotomic, kernels, modified, nonsymmetric
from macpoly.cli import parse_count
from macpoly.integral import compositions_rearranging, j_keys
from macpoly.modified import _word_counts, htilde_compact, htilde_plain
from macpoly.nonsymmetric import _basement_counts, _e_sum, _numerators, iter_basement_fillings
from macpoly.polyring import QUASISYMMETRIC, SYMMETRIC
from macpoly.shapes import Filling, composition_stats, content_plan, diagram, iter_nonattacking
from macpoly.verify import partitions_up_to

#: the shapes whose P the symmetric benchmark pins, and its variable count
SYMMETRIC_ANCHORS = ((3, 2, 1), (3, 2), (3, 1, 1), (2, 2, 1))
SYMMETRIC_N = 5
#: the shapes whose J the integral benchmark pins, and its variable count
INTEGRAL_ANCHORS = ((2, 2, 1), (3, 2, 1), (3, 3), (4, 2), (2, 2, 2), (3, 2, 1, 1))
INTEGRAL_N = 4
#: the shapes whose H~ the htilde benchmark pins, and its variable count
HTILDE_ANCHORS = ((3, 2, 1), (3, 3), (4, 2), (2, 2, 2), (3, 2, 2), (4, 4), (2, 2, 2, 2))
HTILDE_N = 4


def share(part: int, whole: int) -> str:
    return f"  ({part / whole:.1%})" if whole else ""


def pieces(hooks) -> int:
    """The pieces of the binomials 1 - q^a t^b over ``hooks`` (a, b): one per divisor of gcd(a, b)."""
    return sum(len(cyclotomic._divisors(gcd(a, b))) for a, b in hooks)


def exact_divisions(run) -> int:
    """The chain divisions of :mod:`macpoly.cyclotomic` that come out exact while ``run()`` runs."""
    divide_chains, exact = cyclotomic.divide_chains, 0

    def counted(*args):
        nonlocal exact
        quo = divide_chains(*args)
        exact += quo is not None
        return quo

    cyclotomic.divide_chains = counted
    try:
        run()
    finally:
        cyclotomic.divide_chains = divide_chains
    return exact


def walk_calls(run) -> int:
    """The compiled walks that ``run()`` runs, fetched through ``nonsymmetric._walk``."""
    fetch, calls = nonsymmetric._walk, 0

    def counted(*args):
        walk = fetch(*args)

        def call(*walk_args):
            nonlocal calls
            calls += 1
            return walk(*walk_args)
        return call

    nonsymmetric._walk = counted
    try:
        run()
    finally:
        nonsymmetric._walk = fetch
    return calls


def compact_work(lam, n: int) -> tuple[int, int]:
    """The sorted tableaux ``htilde_compact(lam, n)`` walks, and the ``Filling``s it
    builds for those it weighs."""
    enumerate_sorted, check, walked, weighed = modified.iter_sorted_tableaux, Filling.__post_init__, 0, 0

    def counted_tableaux(*args):
        nonlocal walked
        for e in enumerate_sorted(*args):
            walked += 1
            yield e

    def counted_check(self):
        nonlocal weighed
        weighed += 1
        check(self)

    modified.iter_sorted_tableaux, Filling.__post_init__ = counted_tableaux, counted_check
    try:
        htilde_compact(lam, n)
    finally:
        modified.iter_sorted_tableaux, Filling.__post_init__ = enumerate_sorted, check
    return walked, weighed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=partial(parse_count, name="--max-size"), default=5)
    parser.add_argument("--n", type=parse_count, default=3)
    args = parser.parse_args()
    n = args.n

    print(f"modified family, n = {n}: sorted tableaux htilde_compact walks and weighs"
          " vs all fillings")
    for lam in partitions_up_to(args.max_size):
        walked, weighed = compact_work(lam, n)
        plain_count = n ** sum(lam)
        print(f"  shape {lam}: {walked:6d} walked, {weighed:6d} weighed vs {plain_count:6d}"
              f"{share(walked, plain_count)}")

    print(f"\nintegral form, n = {n}: ordered vs all nonattacking fillings")
    for mu in partitions_up_to(args.max_size):
        inc = composition_stats(mu).inc
        ordered_count = sum(1 for _ in iter_nonattacking(inc, n, ordered=True))
        plain_count = sum(1 for _ in iter_nonattacking(mu, n))
        print(f"  shape {mu}: {ordered_count:6d} vs {plain_count:6d}")

    print(f"\nmodified family, n = {n}: words of dominant content vs all words")
    for size in range(1, args.max_size + 1):
        # the words of one column of `size` cells: the count is the same on every diagram
        dominant_count = sum(_word_counts(diagram((size,)), n).values())
        plain_count = n ** size
        print(f"  size {size}: {dominant_count:6d} vs {plain_count:6d}"
              f"{share(dominant_count, plain_count)}")

    print(f"\nP, n = {SYMMETRIC_N}: basement fillings enumerated, kept (dominant content),"
          " weights built")
    for lam in SYMMETRIC_ANCHORS:
        alphas = compositions_rearranging(lam, SYMMETRIC_N)
        enumerated = sum(1 for alpha in alphas for _ in iter_basement_fillings(alpha))
        counts, fillings = _basement_counts(lam, SYMMETRIC_N, SYMMETRIC, SYMMETRIC)
        kept = sum(counts.values())
        # one weight per repeat mask over the whole call, shifted by each key's (maj, coinv)
        built = len(fillings)
        print(f"  shape {lam}: {enumerated:6d} enumerated, {kept:6d} kept, {built:6d} weights")

    cases = [(f"P {lam}", lam, SYMMETRIC) for lam in SYMMETRIC_ANCHORS]
    cases += [(f"G {gamma}", gamma, QUASISYMMETRIC) for gamma in permutations((3, 2, 1))]
    print(f"\nP and G, n = {SYMMETRIC_N}: compositions summed, walks run per call, leaves kept")
    for name, parts, orbit in cases:
        compositions = len(orbit.of(parts, SYMMETRIC_N))
        walks = walk_calls(lambda: _e_sum(parts, SYMMETRIC_N, orbit, orbit))
        kept = sum(_basement_counts(parts, SYMMETRIC_N, orbit, orbit)[0].values())
        print(f"  {name}: {compositions:4d} compositions in {walks:2d} walk, {kept:6d} leaves kept")

    print(f"\nP and G, n = {SYMMETRIC_N}: coefficients reduced, distinct numerators, hook pieces"
          " cancelled before the sum, and by division")
    for name, parts, orbit in cases:
        numerators = _numerators(parts, SYMMETRIC_N, orbit, orbit)
        shape = diagram(sorted(parts))
        full = pieces(shape.hooks[i] for i, _, _ in shape.steps)
        before = sum(full - pieces(den) for _, den in numerators.values())
        distinct = len({(frozenset(acc.items()), den) for acc, den in numerators.values()})
        _e_sum(parts, SYMMETRIC_N, orbit, orbit)  # builds the cached pieces, which divide too
        by_division = exact_divisions(lambda: _e_sum(parts, SYMMETRIC_N, orbit, orbit))
        print(f"  {name}: {len(numerators):4d} reduced, {distinct:4d} distinct,"
              f" {before:4d} cancelled before the sum, {by_division:4d} by division")

    print(f"\nJ, n = {INTEGRAL_N}: weight keys counted, and those of dominant x tallied")
    for mu in INTEGRAL_ANCHORS:
        line = []
        for name, heights, ordered in (("j_plain", mu, False),
                                       ("j_compact", composition_stats(mu).inc, True)):
            flats = iter_nonattacking(heights, INTEGRAL_N, ordered=ordered)
            keys = j_keys(heights, INTEGRAL_N, (Filling(diagram(heights), e) for e in flats))
            dominant = sum(1 for key in keys if SYMMETRIC.is_rep(key[0]))
            line.append(f"{name} {len(keys):6d} counted, {dominant:5d} tallied")
        print(f"  shape {mu}: " + "; ".join(line))

    print(f"\nH~, n = {HTILDE_N}: columns the words walk of htilde_plain lists per height vs v^h")
    for lam in HTILDE_ANCHORS:
        m = sum(lam)
        v, plan = min(HTILDE_N, m), content_plan(SYMMETRIC, HTILDE_N, m)
        listed = (f"height {h} {kernels._columns(h, v, plan)[3]:5d} vs {v ** h:5d}" for h in sorted(set(lam)))
        print(f"  shape {lam}: " + "; ".join(listed))

    print(f"\nH~, n = {HTILDE_N}: output terms, exponent vectors x, and (q, t) maps stored")
    for lam in HTILDE_ANCHORS:
        by_x = htilde_plain(lam, HTILDE_N).by_x
        maps = len({id(acc) for acc in by_x.values()})
        print(f"  shape {lam}: {sum(map(len, by_x.values())):6d} terms, {len(by_x):5d} x, {maps:4d} maps")


if __name__ == "__main__":
    main()
