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
``htilde_compact`` walks the smaller side and, on lam's own, swaps q and t in
the summed coefficient maps, once per representative x.

Both routes read a column walk (:func:`macpoly.kernels.column_walk`) over the
values 1..min(n, |lam|), as a dominant content of m entries uses no value above m:
``htilde_compact`` the sorted walk, building a ``Filling`` only for the tableaux
of dominant content, and ``htilde_plain`` the words walk, which reads inv and
maj, sums over column pairs and columns, off tables per pair and per column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import TYPE_CHECKING, Iterator, Sequence

from .polyring import SYMMETRIC, MPoly, expand_orbits, t_multinomial, tally_by_x
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

if TYPE_CHECKING:
    from .kernels import ContentPlan


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


def is_sorted_tableau(f: Filling) -> bool:
    """Columns of each height weakly increase left to right in column order."""
    if not f.shape.is_partition:
        raise ShapeError("sorted tableaux live on partition shapes")
    return all(
        column_leq(f.flat[a], f.flat[b])
        for _, slices in f.shape.blocks
        for a, b in zip(slices, slices[1:])
    )


def iter_sorted_tableaux(shape: Diagram, n: int, plan: ContentPlan) -> Iterator[tuple]:
    """One item per sorted tableau of `shape` with entries in 1..n, the first
    column's alphabet index varying slowest: (e, x, runs) when the content x of
    the tableau is one that ``plan`` (a plan over 1..n or more) keeps, else
    (None, None, None).  e is the flat entry tuple in cell order, which
    ``Filling(shape, e, INF_BASEMENT)`` reads by cell, and runs the run
    signature of :func:`_block_runs`; pass ``content_plan(None, n, m)`` to keep
    every tableau.  A generator function, so a tracer counts its yields.

    Read off the diagram's compiled sorted walk (:func:`macpoly.kernels.column_walk`):
    per height block, column alphabet indices that never fall, each column's
    content code added as the walk goes.
    """
    if not shape.is_partition:
        raise ShapeError("sorted tableaux live on partition shapes")
    yield from _walk(shape, "sorted")(n, plan)


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
    (x, inv, maj): one compiled words walk over the values 1..min(n, m), m the cell
    count, one loop per column over the columns whose own content fits such an x,
    that leaves a prefix as soon as it completes to no such x of m entries."""
    m, counts = len(shape.cells), {}
    _walk(shape, "words")(min(n, m), content_plan(SYMMETRIC, n, m), counts)
    return counts


def htilde_plain(lam: Sequence[int], n: int) -> MPoly:
    """Sum of x^sigma q^inv t^maj over all fillings with entries in 1..n: over
    those of dominant content, each x's map (q, t) -> count then shared by
    every rearrangement of x, since the value is symmetric; the words walk reads
    their inv and maj off tables per column pair and per column."""
    n, by_x = as_count(n), {}
    for (x, q, t), c in _word_counts(diagram(as_partition(lam)), n).items():
        by_x.setdefault(x, {})[q, t] = c
    return MPoly._trusted(n, expand_orbits(by_x, SYMMETRIC.members))


def compact_side(lam: Sequence[int], n: int) -> tuple[Diagram, bool]:
    """The diagram :func:`htilde_compact` sums over, and whether it then swaps q and t in
    the summed maps: lam's own where that has strictly fewer sorted tableaux, else the
    conjugate one.
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

    The tableaux are walked over the values 1..min(n, |lam|), and the walk
    hands over the content and run signature of each.  Each one of dominant
    content is built as a ``Filling`` and counted by (x, maj, inv, run
    signature), and each key is weighed once by :func:`tally_by_x` against the
    multiplicity cached per run signature, on either side.  On lam's own side q
    and t are then exchanged in each representative x's summed map, and every
    rearrangement of x shares that map.
    """
    shape, swapped = compact_side(lam, n)
    m, counts = len(shape.cells), Counter()
    for e, x, runs in iter_sorted_tableaux(shape, min(n, m), content_plan(SYMMETRIC, n, m)):
        if x is not None:
            f = Filling(shape, e, INF_BASEMENT)
            counts[x, maj(f), inv(f), runs] += 1
    by_x = tally_by_x(counts, _multiplicity_terms, SYMMETRIC)
    if swapped:
        by_x = {x: {(t, q): c for (q, t), c in acc.items()} for x, acc in by_x.items()}
    return MPoly._trusted(n, expand_orbits(by_x, SYMMETRIC.members))
