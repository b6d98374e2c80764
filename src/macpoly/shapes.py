"""Diagrams, fillings, and the tableau statistics behind every formula.

Conventions used throughout the package (French notation):

* a diagram is a sequence of bottom-justified columns; ``heights[i]`` is the
  number of cells in column i+1, and zero-height columns are allowed;
* cells are 1-based ``(col, row)`` pairs; row 0 is the optional basement,
  filled either with the infinity sentinel or with a permutation;
* triples come in two types, each read as entries (a, b, c): type A, for a
  left column at least as tall, from cells (v,r), (u,r), (u,r-1) with u < v;
  type B, for a strictly taller right column, from cells (v,r-1), (u,r),
  (u,r-1) with v < u, so the L-shape sits in the right column.  A triple is
  counterclockwise when a < b <= c, or c < a < b, or b <= c < a, and
  clockwise when a > b > c, or c > a > b, or b > c > a.

Which column pairs contribute which triple type, and how the basement row
participates, is calibrated against the shipped statistics fixtures and the
cross-formula identities exercised by the acceptance suite.

Compiled statistics.  A diagram's per-filling statistics (``inv``, ``maj``,
``coinv``, the repeat mask ``repeats`` and the attack test ``nonattacking``)
are straight-line functions generated from its index tables, the way
``dataclasses`` generates ``__init__``: each unpacks the flat entry tuple
into locals and returns one flat ``sum((...))`` of inlined comparisons, or
one tuple or one conjunction of them.  Only ``htilde_compact``, the J routes
and ``filling_weight`` still call these flat kernels.  The rest read a walk,
one ``for`` loop per cell: ``walk`` yields the tuples that skip the values of
the cells each cell ``attacks``; the walks of ``htilde_plain`` and of the
basement routes sum the statistics level by level, each loop adding the
comparisons whose latest cell is its own, and count keys at the leaf.  All
are compiled on first use, never at import, and cached per diagram (content
tests per (orbit, n)).  Routes read each per-filling rule from the kernels
and tables alone: content, ``repeats`` over ``steps`` above row 1, and row 1
against a basement by ``bottom``.  The contract:

* on every filling of the diagram, a kernel's value equals that of the loop
  over the tables it replaces, and a counting walk's counts equal those of
  the flat kernels over every assignment (``tests/test_shapes.py`` compares
  on every diagram of at most 5 columns of height at most 3, the counts at
  each n <= 3 with at most 1,024 assignments); the walk yields the tuples of
  filtering every assignment, in the same order (every diagram of at most 3
  columns of height at most 2, and five larger);
* the generated source holds only integers from the tables, each written
  with ``%d``, and fixed text.

The generator, :mod:`macpoly.kernels`, is imported with the first kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby, product as iproduct, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from .polyring import Orbit

#: marker selecting the infinity basement on a Filling
INF_BASEMENT = "inf"


class ShapeError(ValueError):
    """A diagram does not satisfy the precondition of an operation."""


class Cell(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True, eq=False)
class Diagram:
    """Column-height tuple with its index tables, built once by :func:`diagram`.

    Column i (1-based) holds ``heights[i-1]`` cells.  A filling's entries are
    read as a flat tuple in ``cells`` order (column by column, bottom to
    top); every table holds positions in that tuple.  Diagrams compare and
    hash by their heights.
    """

    heights: tuple[int, ...]
    cells: tuple[Cell, ...]
    is_partition: bool
    #: (cell, cell below, leg + 1) for every cell above row 1
    steps: tuple[tuple[int, int, int], ...]
    #: (cell, 0-based column, leg + 1) for every row-1 cell, against the basement
    bottom: tuple[tuple[int, int, int], ...]
    #: per cell, the cell below it, or None in row 1
    below: tuple[int | None, ...]
    #: per cell, (leg + 1, arm + 1) with the composition arm
    hooks: tuple[tuple[int, int], ...]
    #: maximal runs of equal-height columns as (height, column slices)
    blocks: tuple[tuple[int, tuple[slice, ...]], ...]
    #: per cell, the earlier cells it attacks: same row, or the row below in
    #: a column to its left
    attacks: tuple[tuple[int, ...], ...]
    #: the (cell, earlier cell) pairs of ``attacks`` as one flat tuple
    attack_pairs: tuple[tuple[int, int], ...]
    #: triples above row 1 that ``coinv`` tests: type A (v, r), (u, r),
    #: (u, r-1) and type B (u, r-1), (v, r), (v, r-1), for columns u < v
    coinv_triples: tuple[tuple[int, int, int], ...]
    #: row-1 type-A pairs (u, v) with u's 0-based column
    coinv_pairs: tuple[tuple[int, int, int], ...]
    #: row-1 type-B cells v with the 0-based columns of u and v
    coinv_bottom: tuple[tuple[int, int, int], ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.heights == other.heights

    def __hash__(self) -> int:
        return hash(self.heights)

    def __repr__(self) -> str:
        return f"Diagram(heights={self.heights!r})"

    @cached_property
    def inv(self) -> Callable[[Sequence[int]], int]:
        """``inv(e)``: counterclockwise triples, degenerate row-1 pairs included;
        defined on partition shapes, where every column pair is type A, so the
        pairs and triples are those of ``coinv``."""
        return _kernels().stat(self, "inv")

    @cached_property
    def maj(self) -> Callable[..., int]:
        """``maj(e, basement=None)``: sum of leg + 1 over the cells whose entry
        exceeds the one below it; row-1 cells compare only with a permutation
        basement."""
        return _kernels().stat(self, "maj")

    @cached_property
    def coinv(self) -> Callable[..., int]:
        """``coinv(e, basement=None)``: clockwise triples of types A and B; see
        :func:`coinv_comp`."""
        return _kernels().stat(self, "coinv")

    @cached_property
    def repeats(self) -> Callable[[Sequence[int]], tuple[bool, ...]]:
        """``repeats(e)``: the repeat mask, per cell of ``steps`` whether its
        entry equals the one below it."""
        return _kernels().repeats(self)

    @cached_property
    def nonattacking(self) -> Callable[..., bool]:
        """``nonattacking(e, basement=None)``: no entry equals one of a cell it
        attacks, nor, in row 1, one of a permutation basement's entries to its
        left; see :func:`is_nonattacking`."""
        return _kernels().nonattacking(self)

    @cached_property
    def walk(self) -> Callable[..., Iterator[tuple[int, ...]]]:
        """``walk(n, b=None, ordered=False)``: the tuples of :func:`iter_nonattacking`."""
        return _kernels().walk(self)


def _kernels():
    """The kernel generator, :mod:`macpoly.kernels`, imported with the first
    kernel built: a process that imports macpoly without bytecode caching
    then does not compile it."""
    from . import kernels

    return kernels


def diagram(heights: Sequence[int]) -> Diagram:
    """The diagram of a column-height sequence; cached, so built once per shape."""
    return _build_diagram(tuple(heights))


@lru_cache(maxsize=256)
def _build_diagram(heights: tuple[int, ...]) -> Diagram:
    if any(h < 0 for h in heights):
        raise ShapeError(f"negative column height in {heights}")
    cells = tuple(Cell(c, r) for c, h in enumerate(heights, 1) for r in range(1, h + 1))
    index = {cell: i for i, cell in enumerate(cells)}
    below = tuple(index.get((c, r - 1)) for c, r in cells)
    hooks = tuple((leg(heights, cell) + 1, arm_composition(heights, cell) + 1) for cell in cells)
    steps, bottom = [], []
    for i, (cell, j, (weight, _)) in enumerate(zip(cells, below, hooks)):
        if j is None:
            bottom.append((i, cell.col - 1, weight))
        else:
            steps.append((i, j, weight))
    blocks, start = [], 0
    for h, group in groupby(heights):
        count = len(list(group))
        blocks.append((h, tuple(slice(start + k * h, start + (k + 1) * h) for k in range(count))))
        start += count * h
    attacks = tuple(
        tuple(index[u, s] for u in range(1, c) for s in (r, r - 1) if (u, s) in index)
        for c, r in cells
    )
    coinv_triples, coinv_pairs, coinv_bottom = [], [], []
    for u in range(1, len(heights) + 1):
        for v in range(u + 1, len(heights) + 1):
            hu, hv = heights[u - 1], heights[v - 1]
            if hu >= hv:
                for r in range(2, hv + 1):
                    coinv_triples.append((index[v, r], index[u, r], index[u, r - 1]))
                if hv >= 1:
                    coinv_pairs.append((index[u, 1], index[v, 1], u - 1))
            else:
                for r in range(2, min(hu + 1, hv) + 1):
                    coinv_triples.append((index[u, r - 1], index[v, r], index[v, r - 1]))
                if hv >= 1:
                    coinv_bottom.append((index[v, 1], u - 1, v - 1))
    return Diagram(
        heights, cells, all(a >= b for a, b in zip(heights, heights[1:])),
        tuple(steps), tuple(bottom), below, hooks, tuple(blocks), attacks,
        tuple((i, j) for i, partners in enumerate(attacks) for j in partners),
        tuple(coinv_triples), tuple(coinv_pairs), tuple(coinv_bottom),
    )


@dataclass(frozen=True, slots=True)
class Filling:
    """Entry assignment for a diagram, with an optional basement row.

    ``flat`` holds the entries in the order of ``shape.cells`` (column by
    column, bottom to top); a cell map enters through :meth:`from_entries`.
    ``basement`` is None (no row 0), the string "inf" (row 0 all infinity),
    or a permutation tuple giving the row-0 entry per column.

    Values are frozen and slotted.  The constructor writes the three slots
    through their descriptors, which the frozen ``__setattr__`` does not
    guard, and then runs the checks of ``__post_init__`` once; the generated
    frozen ``__init__`` costs more, as it calls ``object.__setattr__`` per field.
    """

    shape: Diagram
    flat: tuple[int, ...]
    basement: tuple[int, ...] | str | None = None

    def __init__(self, shape: Diagram, flat: tuple[int, ...], basement: tuple[int, ...] | str | None = None):
        _set_shape(self, shape)
        _set_flat(self, flat)
        _set_basement(self, basement)
        self.__post_init__()

    def __post_init__(self):
        shape, flat, basement = self.shape, self.flat, self.basement
        if not isinstance(flat, tuple) or len(flat) != len(shape.cells):
            raise ShapeError(f"flat entries must be a tuple of {len(shape.cells)} values")
        if isinstance(basement, tuple) and len(basement) != len(shape.heights):
            raise ShapeError("permutation basement length != number of columns")

    @classmethod
    def from_entries(cls, shape: Diagram, entries: Mapping, basement=None) -> "Filling":
        """The filling of a cell -> entry map that covers the diagram exactly."""
        cells = shape.cells
        if len(entries) != len(cells) or not all(cell in entries for cell in cells):
            raise ShapeError("entries do not cover the diagram exactly")
        return cls(shape, tuple(map(entries.__getitem__, cells)), basement)

    @property
    def entries(self) -> dict[Cell, int]:
        """The entries keyed by cell, built afresh on each read."""
        return dict(zip(self.shape.cells, self.flat))

    def __getitem__(self, cell) -> int:
        return self.entries[Cell(*cell)]

    def x_exponents(self, n: int) -> tuple[int, ...]:
        """Exponent vector of the monomial weight in x_1..x_n."""
        exps = tuple(map(self.flat.count, range(1, n + 1)))
        if sum(exps) != len(self.flat):
            raise ValueError(f"entry outside alphabet 1..{n}")
        return exps


_set_shape, _set_flat, _set_basement = (
    Filling.__dict__[name].__set__ for name in ("shape", "flat", "basement")
)


# -- composition bookkeeping ---------------------------------------------------


class CompositionStats(NamedTuple):
    """Derived data of a weak composition, computed once and shared."""

    inc: tuple[int, ...]
    beta: tuple[int, ...]
    mult: Mapping[int, int]


def composition_stats(alpha: Sequence[int]) -> CompositionStats:
    """Sorting data and the maximal-length sorting permutation of alpha.

    ``beta`` is 1-based: position i of the increasing rearrangement draws
    the part alpha[beta[i]-1], and among permutations doing so it has maximal
    length (equal parts are taken in reverse position order).  ``mult``
    maps each positive part to its multiplicity.
    """
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        raise ShapeError(f"negative part in {alpha}")
    inc = tuple(sorted(alpha))
    beta = tuple(
        sorted(range(1, len(alpha) + 1), key=lambda i: (alpha[i - 1], -i))
    )
    mult: dict[int, int] = {}
    for a in alpha:
        if a > 0:
            mult[a] = mult.get(a, 0) + 1
    return CompositionStats(inc, beta, mult)


def as_partition(mu: Sequence[int]) -> tuple[int, ...]:
    """mu as a tuple, checked weakly decreasing with positive parts."""
    mu = tuple(mu)
    if any(a < b for a, b in zip(mu, mu[1:])) or any(p <= 0 for p in mu):
        raise ShapeError(f"{mu} is not a partition with positive parts")
    return mu


def as_count(n: int) -> int:
    """n, checked to be a variable count: nonnegative."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return n


def conjugate(partition: Sequence[int]) -> tuple[int, ...]:
    """Transpose of a partition diagram."""
    parts = tuple(partition)
    if any(a < b for a, b in zip(parts, parts[1:])) or any(p < 0 for p in parts):
        raise ShapeError(f"{parts} is not a partition")
    parts = tuple(p for p in parts if p > 0)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= r) for r in range(1, parts[0] + 1))


# -- cell statistics -----------------------------------------------------------


def _inside(heights: Sequence[int], cell) -> Cell:
    """``cell`` as a Cell, checked to lie in the diagram of ``heights``."""
    cell = Cell(*cell)
    if not (1 <= cell.col <= len(heights) and 1 <= cell.row <= heights[cell.col - 1]):
        raise ShapeError(f"cell {cell} outside {tuple(heights)}")
    return cell


def leg(heights: Sequence[int], cell) -> int:
    """Number of cells above `cell` in its column."""
    col, row = _inside(heights, cell)
    return heights[col - 1] - row


def arm_partition(heights: Sequence[int], cell) -> int:
    """Number of cells to the right in the same row (partition shapes)."""
    if any(a < b for a, b in zip(heights, heights[1:])):
        raise ShapeError("arm_partition needs weakly decreasing heights")
    col, row = _inside(heights, cell)
    return sum(1 for h in heights[col:] if h >= row)


def arm_composition(heights: Sequence[int], cell) -> int:
    """Composition-shape arm: weakly-shorter columns to the right in this row,
    plus strictly-shorter columns to the left owning a cell one row below."""
    col, row = _inside(heights, cell)
    h = heights[col - 1]
    right = sum(1 for v in heights[col:] if row <= v <= h)
    left = sum(1 for v in heights[:col - 1] if row - 1 <= v < h) if row > 1 else 0
    return right + left


# -- filling statistics ----------------------------------------------------------


def inv(f: Filling) -> int:
    """Counterclockwise triples, degenerate row-1 pairs included."""
    if f.basement != INF_BASEMENT:
        raise ShapeError("statistic requires the infinity basement")
    if not f.shape.is_partition:
        raise ShapeError("inv is defined on partition shapes")
    return f.shape.inv(f.flat)


def maj(f: Filling) -> int:
    """Sum of leg + 1 over the cells whose entry exceeds the one below; see
    :meth:`Diagram.maj`."""
    return f.shape.maj(f.flat, f.basement)


def coinv_comp(f: Filling) -> int:
    """Clockwise triples of types A and B on a composition shape.

    Column pairs split by height: the left column at least as tall gives type
    A (L-shape on the left), a strictly taller right column gives type B
    (L-shape on the right).  On nonattacking fillings the clockwise count
    coincides with "all triples minus the counterclockwise ones", since the
    entry patterns that could tell the two apart are exactly the attacking
    ones.  Row-1 type-A pairs count degenerately: a strictly increasing pair
    when there is no permutation basement, the row-0-completed triple
    otherwise.
    """
    return f.shape.coinv(f.flat, f.basement)


def is_nonattacking(f: Filling) -> bool:
    """No equal entries in a row, nor in adjacent rows with the rightmost cell
    strictly above the other.

    A permutation basement participates as row 0, which pins every row-1
    entry to the basement value below it on weakly increasing shapes.
    """
    return f.shape.nonattacking(f.flat, f.basement)


@lru_cache(maxsize=256)
def content_kernel(orbit: Orbit | None, n: int) -> Callable[[Sequence[int]], tuple[int, ...] | None]:
    """The content over 1..n of a flat entry tuple e, x_v = e.count(v), when x
    is a representative of ``orbit`` (any x without one), else None.

    The compiled test counts v = 1, 2, ... in turn and returns None at the
    first v whose count breaks the representative condition against the count
    of v - 1, as ``orbit.breaks`` states it; cached per (orbit, n)."""
    return _kernels().content(orbit and orbit.breaks, n)


@lru_cache(maxsize=256)
def _walk(shape: Diagram, kind: str) -> Callable:
    """The compiled :func:`macpoly.kernels.walk` of ``kind``, cached per (diagram, kind)."""
    return _kernels().walk(shape, kind)


def is_ordered(f: Filling) -> bool:
    """Bottom-row entries under equal-height column blocks strictly decrease."""
    h = f.shape.heights
    if any(a > b for a, b in zip(h, h[1:])):
        raise ShapeError("ordered fillings live on weakly increasing shapes")
    e = f.flat
    return all(
        e[a.start] > e[b.start]
        for h, slices in f.shape.blocks
        if h
        for a, b in zip(slices, slices[1:])
    )


def is_packed(f: Filling) -> bool:
    """Entries above the basement form an initial segment 1..k."""
    values = set(f.flat)
    return values == set(range(1, len(values) + 1))


#: a tuple reversed, as one C call
_reversed = itemgetter(slice(None, None, -1))


def enumerate_fillings(
    shape: Diagram,
    n: int,
    predicate: Callable[[Filling], bool] | None = None,
    basement: tuple[int, ...] | str | None = None,
) -> Iterator[Filling]:
    """An iterator over every filling with entries in 1..n passing `predicate`,
    which is called once per candidate; n is checked at the call.

    Deterministic order: colexicographic on the entry vector indexed by cells
    sorted by (col, row), i.e. the first cell varies fastest.  An empty
    alphabet fills only the empty diagram.
    """
    combos = iproduct(range(1, as_count(n) + 1), repeat=len(shape.cells))
    fillings = map(Filling, repeat(shape), map(_reversed, combos), repeat(basement))
    return fillings if predicate is None else filter(predicate, fillings)


def iter_nonattacking(
    heights: Sequence[int],
    n: int,
    basement: tuple[int, ...] | None = None,
    ordered: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Flat entry tuples (cell order) of the nonattacking fillings of the
    diagram with column heights ``heights``, entries in 1..n, in lexicographic
    order, from the diagram's compiled :attr:`~Diagram.walk`.

    A ``basement`` tuple pins each row-1 entry to the one under its column
    (none if outside 1..n), as a permutation basement does on a weakly
    increasing shape of at least n columns.  With ``ordered``, each row-1 entry
    of an equal-height block is bounded below the entry to its left, which is
    the rule of :func:`is_ordered`.
    """
    return diagram(heights).walk(n, basement, ordered)


# -- fixture files ----------------------------------------------------------------


def filling_from_fixture(obj: Mapping) -> tuple[Filling, Mapping]:
    """Build a Filling from the JSON fixture schema; returns (filling, expected).

    Schema: {"shape": [heights], "basement": "inf"|"none"|[perm],
             "entries": [[col,row,value],...], "expected": {...}}.
    """
    base = obj.get("basement", "none")
    basement: tuple[int, ...] | str | None
    if base == "none":
        basement = None
    elif base == "inf":
        basement = INF_BASEMENT
    else:
        basement = tuple(base)
    entries = {Cell(c, r): v for c, r, v in obj["entries"]}
    return Filling.from_entries(diagram(obj["shape"]), entries, basement), obj.get("expected", {})
