"""Modified Macdonald polynomials: the all-fillings formula and its compact
sorted-tableaux form.

The compact route groups fillings by rearrangements of equal-height columns.
Each group has a unique representative whose columns are sorted under the
column order: columns compare at their first differing entry, cyclically
relative to the shared entry just below (the infinity basement below row 1
makes that first comparison the plain numeric one).  The t-multinomial
``SortedTableau.multiplicity_t`` restores each group's inversion-statistic
mass, which is what makes the two routes agree.

The compact sum over lam's conjugate diagram is H~_lam; over lam's own it is
H~_lam'(x; q, t) = H~_lam(x; t, q) by q<->t duality (Macdonald, ch. VI), so
swapping q and t there is exact and ``htilde_compact`` walks the smaller side.

``iter_sorted_tableaux`` yields flat entry tuples in cell order, as
``shapes.iter_nonattacking`` does; ``htilde_compact`` tests the content of
each and builds a ``Filling`` only for a tableau of representative content,
the ones it weighs.  Both walk the values 1..min(n, |lam|): a dominant content
of m entries uses no value above m.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product as iproduct, repeat, starmap
from math import comb, prod
from operator import add
from typing import Iterator, Sequence

from .polyring import SYMMETRIC, MPoly, t_multinomial, tally, unit_weight
from .shapes import (
    INF_BASEMENT,
    Diagram,
    Filling,
    ShapeError,
    _walk,
    as_count,
    as_partition,
    conjugate,
    content_plan,
    diagram,
    inv,
    maj,
)


def column_sort_key(column: Sequence[int]) -> tuple:
    """Sort key realizing the column order on equal-height columns.

    First entries compare numerically (the cell below row 1 is the infinity
    basement); each later entry compares cyclically relative to the entry
    below it, which is exactly the no-counterclockwise-triple tie rule.
    """
    # each later value is ordered cyclically starting just above the one below
    return tuple(column[:1]) + tuple(
        (0, value) if value > below else (1, value) for below, value in zip(column, column[1:])
    )


def column_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Weak column order; requires equal heights."""
    if len(a) != len(b):
        raise ShapeError("columns of different heights are incomparable")
    return column_sort_key(a) <= column_sort_key(b)


def _block_runs(shape: Diagram, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Lengths of the runs of identical columns in each height block."""
    signature = []
    for _, slices in shape.blocks:
        runs: list[int] = []
        prev = None
        for cols in slices:
            column = flat[cols]
            if runs and column == prev:
                runs[-1] += 1
            else:
                runs.append(1)
                prev = column
        signature.append(tuple(runs))
    return tuple(signature)


@lru_cache(maxsize=1024)
def _multiplicity_terms(signature: tuple[tuple[int, ...], ...]) -> MPoly:
    """The product over height blocks of the Gaussian multinomials of the run
    lengths, a polynomial in t alone; the key is the run signature alone,
    since the multinomials ignore column heights."""
    return prod((t_multinomial(sum(runs), runs) for runs in signature), start=MPoly.one(0))


@lru_cache(maxsize=1024)
def _swapped_multiplicity_terms(signature: tuple) -> MPoly:
    """:func:`_multiplicity_terms` with q and t exchanged."""
    return _multiplicity_terms(signature).swap_qt()


def is_sorted_tableau(f: Filling) -> bool:
    """Columns of each height weakly increase left to right in column order."""
    if not f.shape.is_partition:
        raise ShapeError("sorted tableaux live on partition shapes")
    return all(
        column_leq(f.flat[a], f.flat[b])
        for _, slices in f.shape.blocks
        for a, b in zip(slices, slices[1:])
    )


def iter_sorted_tableaux(shape: Diagram, n: int) -> Iterator[tuple[int, ...]]:
    """Flat entry tuples (cell order) of the sorted tableaux of `shape` with
    entries in 1..n; wrap one as ``Filling(shape, e, INF_BASEMENT)`` to read it
    by cell.  A generator function, so a tracer counts its yields.

    Generated directly: per height block, weakly increasing column sequences
    are combinations-with-replacement over the key-sorted column alphabet,
    each flattened once, so a tableau is one block's tuple, or one
    concatenation of block tuples.
    """
    if not shape.is_partition:
        raise ShapeError("sorted tableaux live on partition shapes")
    per_block = []
    for h, slices in shape.blocks:
        columns = sorted(iproduct(range(1, n + 1), repeat=h), key=column_sort_key)
        per_block.append([sum(cols, ()) for cols in combinations_with_replacement(columns, len(slices))])
    if len(per_block) == 1:
        yield from per_block[0]
    elif len(per_block) == 2:
        yield from starmap(add, iproduct(*per_block))
    else:
        yield from map(sum, iproduct(*per_block), repeat(()))


@dataclass(frozen=True)
class SortedTableau:
    """A filling certified sorted, with its run signature (:func:`_block_runs`)."""

    filling: Filling
    block_multiplicities: tuple[tuple[int, ...], ...]

    @classmethod
    def certify(cls, f: Filling) -> "SortedTableau":
        if not is_sorted_tableau(f):
            raise ShapeError("filling is not a sorted tableau")
        return cls(f, _block_runs(f.shape, f.flat))

    def multiplicity_t(self) -> MPoly:
        """Product over height blocks of the Gaussian multinomials of runs."""
        return _multiplicity_terms(self.block_multiplicities)


def _word_counts(shape: Diagram, n: int) -> dict:
    """The words over 1..n of weakly decreasing content x, read in ``shape``, counted by
    (x, inv, maj, None): one compiled walk per sorted word's x, over the values x uses."""
    walk, content, counts = _walk(shape, "words"), content_plan(SYMMETRIC, n, len(shape.cells)).content, {}
    for sorted_word in combinations_with_replacement(range(1, n + 1), len(shape.cells)):
        x = content(sorted_word)
        if x is not None:
            by_stats: dict = {}
            walk(n - x.count(0), [0, *x], by_stats)
            counts.update(((x, q, t, None), c) for (q, t), c in by_stats.items())
    return counts


def htilde_plain(lam: Sequence[int], n: int) -> MPoly:
    """Sum of x^sigma q^inv t^maj over all fillings with entries in 1..n: over
    those of dominant content, each term then written under every
    rearrangement of x, since the value is symmetric."""
    n = as_count(n)
    return tally(n, _word_counts(diagram(as_partition(lam)), n), unit_weight, SYMMETRIC)


def compact_side(lam: Sequence[int], n: int) -> tuple[Diagram, bool]:
    """The diagram :func:`htilde_compact` sums over, and whether it then swaps q and t:
    lam's own where that has strictly fewer sorted tableaux, else the conjugate one.
    A diagram has, per block of k columns of height h, C(v^h + k - 1, k) of them
    over the values 1..v, v = min(n, |lam|)."""
    lam, n = as_partition(lam), as_count(n)
    v = min(n, sum(lam))
    sides = (diagram(conjugate(lam)), False), (diagram(lam), True)
    return min(sides, key=lambda side: prod(
        comb(v ** h + len(cols) - 1, len(cols)) for h, cols in side[0].blocks
    ))


def htilde_compact(lam: Sequence[int], n: int) -> MPoly:
    """Same polynomial as :func:`htilde_plain`, summed with weight
    x^sigma q^maj t^inv multiplicity_t over the sorted tableaux of the diagram
    :func:`compact_side` picks: the conjugate one, or lam's own and then a q<->t
    swap, exact by duality (see the module docstring).

    The tableaux are walked over the values 1..min(n, |lam|).  Each one of
    dominant content is built as a ``Filling`` and counted by (x, maj, inv, run
    signature), each key is weighed once by :func:`tally` against the
    multiplicity cached per run signature, and each term is written under
    every rearrangement of x.  On the swapped side q and t are exchanged in
    both key and weight.
    """
    shape, swapped = compact_side(lam, n)
    content = content_plan(SYMMETRIC, n, len(shape.cells)).content
    q, t = (inv, maj) if swapped else (maj, inv)
    counts: Counter = Counter()
    for e in iter_sorted_tableaux(shape, min(n, len(shape.cells))):
        x = content(e)
        if x is not None:
            f = Filling(shape, e, INF_BASEMENT)
            counts[x, q(f), t(f), _block_runs(shape, e)] += 1
    weigh = _swapped_multiplicity_terms if swapped else _multiplicity_terms
    return tally(n, counts, weigh, SYMMETRIC)
