#!/usr/bin/env python3
"""Measure how much smaller the compact enumerations are than the plain ones.

For the modified family: sorted tableaux of the diagram ``htilde_compact``
walks (the conjugate one, or the shape's own where that has fewer) versus all
n^|shape| fillings.  For the integral form: ordered nonattacking fillings of
the increasing diagram versus all nonattacking fillings of the decreasing one.
Last, per size, the words of weakly decreasing content that ``htilde_plain``
sums versus all n^size words (the count depends on the size alone).  A share
is printed only where the all-fillings count is nonzero (not at n = 0).  Then,
for P on the shapes the symmetric benchmark pins, at n = 5: the basement
fillings enumerated over every composition, those of dominant content that
``p_poly`` keeps, and the distinct weights it builds for them, which the
compositions of one call share.  Last, for J on the shapes the integral
benchmark pins, at n = 4: per route, the distinct (x, maj, coinv, repeat
mask) keys its fillings are counted by, and the keys of dominant x that it
expands, since J is symmetric.

    python scripts/term_counts.py --max-size 5 --n 3
"""

import argparse

from macpoly.integral import compositions_rearranging, j_keys
from macpoly.modified import compact_side, iter_dominant_words, iter_sorted_tableaux
from macpoly.nonsymmetric import _basement_walk, iter_basement_fillings
from macpoly.polyring import SYMMETRIC
from macpoly.shapes import Filling, composition_stats, diagram, iter_nonattacking
from macpoly.verify import partitions_up_to

#: the shapes whose P the symmetric benchmark pins, and its variable count
SYMMETRIC_ANCHORS = ((3, 2, 1), (3, 2), (3, 1, 1), (2, 2, 1))
SYMMETRIC_N = 5
#: the shapes whose J the integral benchmark pins, and its variable count
INTEGRAL_ANCHORS = ((2, 2, 1), (3, 2, 1), (3, 3), (4, 2), (2, 2, 2), (3, 2, 1, 1))
INTEGRAL_N = 4


def share(part: int, whole: int) -> str:
    return f"  ({part / whole:.1%})" if whole else ""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=5)
    parser.add_argument("--n", type=int, default=3)
    args = parser.parse_args()
    n = args.n

    print(f"modified family, n = {n}: sorted tableaux on the side htilde_compact walks"
          " vs all fillings")
    for lam in partitions_up_to(args.max_size):
        sorted_count = sum(1 for _ in iter_sorted_tableaux(compact_side(lam, n)[0], n))
        plain_count = n ** sum(lam)
        print(f"  shape {lam}: {sorted_count:6d} vs {plain_count:6d}"
              f"{share(sorted_count, plain_count)}")

    print(f"\nintegral form, n = {n}: ordered vs all nonattacking fillings")
    for mu in partitions_up_to(args.max_size):
        inc = composition_stats(mu).inc
        ordered_count = sum(1 for _ in iter_nonattacking(inc, n, ordered=True))
        plain_count = sum(1 for _ in iter_nonattacking(mu, n))
        print(f"  shape {mu}: {ordered_count:6d} vs {plain_count:6d}")

    print(f"\nmodified family, n = {n}: words of dominant content vs all words")
    for size in range(1, args.max_size + 1):
        dominant_count = sum(1 for _ in iter_dominant_words(size, n))
        plain_count = n ** size
        print(f"  size {size}: {dominant_count:6d} vs {plain_count:6d}"
              f"{share(dominant_count, plain_count)}")

    print(f"\nP, n = {SYMMETRIC_N}: basement fillings enumerated, kept (dominant content),"
          " weights built")
    for lam in SYMMETRIC_ANCHORS:
        alphas = compositions_rearranging(lam, SYMMETRIC_N)
        enumerated = sum(1 for alpha in alphas for _ in iter_basement_fillings(alpha))
        keys = [key for key, _ in _basement_walk(alphas, SYMMETRIC_N, SYMMETRIC)]
        kept = len(keys)
        # one weight per distinct (maj, coinv, repeat mask) over the whole call
        built = len({key[1:] for key in keys})
        print(f"  shape {lam}: {enumerated:6d} enumerated, {kept:6d} kept, {built:6d} weights")

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


if __name__ == "__main__":
    main()
