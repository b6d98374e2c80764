#!/usr/bin/env python3
"""Measure how much smaller the compact enumerations are than the plain ones.

For the modified family: sorted tableaux of the conjugate diagram versus all
n^|shape| fillings.  For the integral form: ordered nonattacking fillings of
the increasing diagram versus all nonattacking fillings of the decreasing one.
Last, per size, the words of weakly decreasing content that ``htilde_plain``
sums versus all n^size words (the count depends on the size alone).

    python scripts/term_counts.py --max-size 5 --n 3
"""

import argparse

from macpoly.modified import iter_dominant_words, iter_sorted_tableaux
from macpoly.shapes import composition_stats, conjugate, diagram, iter_nonattacking
from macpoly.verify import partitions_up_to


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=5)
    parser.add_argument("--n", type=int, default=3)
    args = parser.parse_args()
    n = args.n

    print(f"modified family, n = {n}: sorted tableaux vs all fillings")
    for lam in partitions_up_to(args.max_size):
        sorted_count = sum(1 for _ in iter_sorted_tableaux(diagram(conjugate(lam)), n))
        plain_count = n ** sum(lam)
        print(f"  shape {lam}: {sorted_count:6d} vs {plain_count:6d}"
              f"  ({sorted_count / plain_count:.1%})")

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
              f"  ({dominant_count / plain_count:.1%})")


if __name__ == "__main__":
    main()
