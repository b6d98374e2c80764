"""Modified Macdonald polynomials: the all-fillings formula and its compact
sorted-tableaux form.

The compact route groups fillings by rearrangements of equal-height columns.
Each group has a unique representative whose columns are sorted under the
column order: columns compare at their first differing entry, cyclically
relative to the shared entry just below (the infinity basement below row 1
makes that first comparison the plain numeric one).  The t-multinomial
``SortedTableau.multiplicity_t`` restores each group's inversion-statistic
mass, which is what makes the two routes agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product as iproduct
from typing import Iterator, Sequence

from .polyring import Monomial, MPoly, t_multinomial, tally
from .shapes import (
    INF_BASEMENT,
    Diagram,
    Filling,
    ShapeError,
    as_partition,
    conjugate,
    diagram,
    inv,
    maj,
)


def _wrap_key(below: int, value: int) -> tuple[int, int]:
    # order values cyclically starting just above `below`
    return (0, value) if value > below else (1, value)


def column_sort_key(column: Sequence[int]) -> tuple:
    """Sort key realizing the column order on equal-height columns.

    First entries compare numerically (the cell below row 1 is the infinity
    basement); each later entry compares cyclically relative to the entry
    below it, which is exactly the no-counterclockwise-triple tie rule.
    """
    if not column:
        return ()
    key: list = [column[0]]
    for below, value in zip(column, column[1:]):
        key.append(_wrap_key(below, value))
    return tuple(key)


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
def _multiplicity_terms(signature: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int, int], ...]:
    """(q exponent, t exponent, coefficient) terms of the product over height
    blocks of the Gaussian multinomials of the run lengths; the q exponent
    is always 0.

    The value is q,t-only, so one entry serves every ambient n; the key is
    the run signature alone, since the multinomials ignore column heights.
    """
    out = MPoly.one(0)
    for runs in signature:
        out = out * t_multinomial(sum(runs), runs)
    return tuple(sorted((0, mono.t, c) for mono, c in out.terms.items()))


def is_sorted_tableau(f: Filling) -> bool:
    """Columns of each height weakly increase left to right in column order."""
    if not f.shape.is_partition:
        raise ShapeError("sorted tableaux live on partition shapes")
    return all(
        column_leq(f.flat[a], f.flat[b])
        for _, slices in f.shape.blocks
        for a, b in zip(slices, slices[1:])
    )


def iter_sorted_tableaux(shape: Diagram, n: int) -> Iterator[Filling]:
    """All sorted tableaux of `shape` with entries in 1..n.

    Generated directly: per height block, weakly increasing column sequences
    are combinations-with-replacement over the key-sorted column alphabet.
    """
    if not shape.is_partition:
        raise ShapeError("sorted tableaux live on partition shapes")
    per_block = []
    for h, slices in shape.blocks:
        columns = sorted(iproduct(range(1, n + 1), repeat=h), key=column_sort_key)
        per_block.append(list(combinations_with_replacement(columns, len(slices))))
    for choice in iproduct(*per_block):
        flat = tuple(v for block_cols in choice for column in block_cols for v in column)
        yield Filling(shape, flat, INF_BASEMENT)


@dataclass(frozen=True)
class SortedTableau:
    """A filling certified sorted, with its per-block identical-column runs."""

    filling: Filling
    block_multiplicities: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def certify(cls, f: Filling) -> "SortedTableau":
        if not is_sorted_tableau(f):
            raise ShapeError("filling is not a sorted tableau")
        heights = [h for h, _ in f.shape.blocks]
        return cls(f, tuple(zip(heights, _block_runs(f.shape, f.flat))))

    def multiplicity_t(self, n_ambient: int = 0) -> MPoly:
        """Product over height blocks of the Gaussian multinomials of runs."""
        signature = tuple(runs for _, runs in self.block_multiplicities)
        zero = (0,) * n_ambient
        return MPoly(
            n_ambient,
            {Monomial(zero, q, t): c for q, t, c in _multiplicity_terms(signature)},
        )


def htilde_plain(lam: Sequence[int], n: int) -> MPoly:
    """Sum of x^sigma q^inv t^maj over all fillings with entries in 1..n."""
    shape = diagram(as_partition(lam))
    values = range(1, n + 1)
    monomials = (
        Monomial(tuple(map(e.count, values)), shape.inv(e), shape.maj(e))
        for e in iproduct(values, repeat=len(shape.cells))
    )
    return MPoly(n, Counter(monomials))


def htilde_compact(lam: Sequence[int], n: int) -> MPoly:
    """Same polynomial as :func:`htilde_plain`, summed over the sorted tableaux
    of the conjugate diagram with weight x^sigma t^inv q^maj multiplicity_t.

    The tableaux come sorted from :func:`iter_sorted_tableaux`.  They are
    counted by (x, maj, inv, run signature), and each distinct key is
    expanded once against the multiplicity cached per run signature.
    """
    shape = diagram(conjugate(as_partition(lam)))
    counts: Counter = Counter()
    for f in iter_sorted_tableaux(shape, n):
        counts[f.x_exponents(n), maj(f), inv(f), _block_runs(shape, f.flat)] += 1
    return tally(n, counts, _multiplicity_terms)
