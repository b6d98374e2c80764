"""Diagrams, fillings, and the tableau statistics behind every formula.

Conventions used throughout the package (French notation):

* a diagram is a sequence of bottom-justified columns; ``heights[i]`` is the
  number of cells in column i+1, and zero-height columns are allowed;
* cells are 1-based ``(col, row)`` pairs; row 0 is the optional basement,
  filled either with the infinity sentinel or with a permutation;
* triples come in two types, each read as entries (a, b, c): type A, for a
  left column at least as tall, from cells (v,r), (u,r), (u,r-1) with u < v;
  type B, for a strictly taller right column, from cells (v,r-1), (u,r),
  (u,r-1) with v < u, so the L-shape sits in the right column.  The
  counterclockwise test is the cyclic-order disjunction a < b <= c, or
  c < a < b, or b <= c < a.

Which column pairs contribute which triple type, and how the basement row
participates, is calibrated against the shipped statistics fixtures and the
cross-formula identities exercised by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product as iproduct
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

#: basement sentinel that compares greater than every positive entry
INFINITY = float("inf")

#: marker selecting the infinity basement on a Filling
INF_BASEMENT = "inf"


class ShapeError(ValueError):
    """A diagram does not satisfy the precondition of an operation."""


class Cell(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True, eq=False, slots=True)
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

    def inv(self, e: Sequence[int]) -> int:
        """Counterclockwise triples, degenerate row-1 pairs included; defined
        on partition shapes, where every column pair is type A, so the pairs
        and triples are those of ``coinv``."""
        total = 0
        for i, j, _ in self.coinv_pairs:
            if e[i] > e[j]:
                total += 1
        for a, b, c in self.coinv_triples:
            if is_counterclockwise(e[a], e[b], e[c]):
                total += 1
        return total

    def maj(self, e: Sequence[int], basement=None) -> int:
        """Sum of leg + 1 over the cells whose entry exceeds the one below
        it; row-1 cells compare only with a permutation basement."""
        total = sum(w for i, j, w in self.steps if e[i] > e[j])
        if isinstance(basement, tuple):
            total += sum(w for i, col, w in self.bottom if e[i] > basement[col])
        return total

    def coinv(self, e: Sequence[int], basement=None) -> int:
        """Clockwise triples of types A and B; see :func:`coinv_comp`."""
        total = 0
        for a, b, c in self.coinv_triples:
            if is_clockwise(e[a], e[b], e[c]):
                total += 1
        if isinstance(basement, tuple):
            for i, j, col in self.coinv_pairs:
                if is_clockwise(e[j], e[i], basement[col]):
                    total += 1
            for j, left, right in self.coinv_bottom:
                if is_clockwise(basement[left], e[j], basement[right]):
                    total += 1
        else:
            for i, j, _ in self.coinv_pairs:
                if e[i] < e[j]:
                    total += 1
        return total


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


@dataclass(frozen=True)
class Filling:
    """Entry assignment for a diagram, with an optional basement row.

    ``flat`` holds the entries in the order of ``shape.cells`` (column by
    column, bottom to top); a cell map enters through :meth:`from_entries`.
    ``basement`` is None (no row 0), the string "inf" (row 0 all infinity),
    or a permutation tuple giving the row-0 entry per column.
    """

    shape: Diagram
    flat: tuple[int, ...]
    basement: tuple[int, ...] | str | None = None

    def __post_init__(self):
        size = len(self.shape.cells)
        if not isinstance(self.flat, tuple) or len(self.flat) != size:
            raise ShapeError(f"flat entries must be a tuple of {size} values")
        if isinstance(self.basement, tuple) and len(self.basement) != len(self.shape.heights):
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

    def basement_entry(self, col: int):
        if self.basement is None:
            return None
        if self.basement == INF_BASEMENT:
            return INFINITY
        return self.basement[col - 1]

    def x_exponents(self, n: int) -> tuple[int, ...]:
        """Exponent vector of the monomial weight in x_1..x_n."""
        exps = tuple(map(self.flat.count, range(1, n + 1)))
        if sum(exps) != len(self.flat):
            raise ValueError(f"entry outside alphabet 1..{n}")
        return exps


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


# -- triple classification -------------------------------------------------------


def is_counterclockwise(a, b, c) -> bool:
    """Cyclic-order test: a < b <= c, or c < a < b, or b <= c < a."""
    return (a < b <= c) or (c < a < b) or (b <= c < a)


def is_clockwise(a, b, c) -> bool:
    """Strict reversed cyclic order: a > b > c, or c > a > b, or b > c > a."""
    return (a > b > c) or (c > a > b) or (b > c > a)


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
    e = f.flat
    for i, j in f.shape.attack_pairs:
        if e[i] == e[j]:
            return False
    b = f.basement
    return not isinstance(b, tuple) or all(e[i] not in b[:col] for i, col, _ in f.shape.bottom)


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


def enumerate_fillings(
    shape: Diagram,
    n: int,
    predicate: Callable[[Filling], bool] | None = None,
    basement: tuple[int, ...] | str | None = None,
) -> Iterator[Filling]:
    """Yield every filling with entries in 1..n passing `predicate`.

    Deterministic order: colexicographic on the entry vector indexed by cells
    sorted by (col, row), i.e. the first cell varies fastest.  An empty
    alphabet fills only the empty diagram.
    """
    for combo in iproduct(range(1, as_count(n) + 1), repeat=len(shape.cells)):
        f = Filling(shape, combo[::-1], basement)
        if predicate is None or predicate(f):
            yield f


def iter_nonattacking(
    heights: Sequence[int],
    n: int,
    pinned: Mapping[int, int] | None = None,
    ordered: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Flat entry tuples (cell order) of the nonattacking fillings of
    the diagram with column heights ``heights``, entries in 1..n.

    Cells are filled by backtracking in cell order, values ascending, so the
    tuples come in lexicographic order; a value is dropped as soon as it
    equals an already set cell it attacks.  ``pinned`` fixes the entries of
    some cells (by position), e.g. row 1 against a permutation basement.
    With ``ordered``, each row-1 entry of an equal-height block is bounded
    below the entry to its left, which is the rule of :func:`is_ordered`.
    """
    shape = diagram(heights)
    pinned = pinned or {}
    # row-1 cell -> the row-1 cell to its left in the same block
    left = {
        b.start: a.start
        for h, slices in shape.blocks
        if ordered and h
        for a, b in zip(slices, slices[1:])
    }
    rules = [(shape.attacks[i], left.get(i), pinned.get(i)) for i in range(len(shape.cells))]
    last = len(rules) - 1
    e = [0] * len(rules)

    def fill(i: int) -> Iterator[tuple[int, ...]]:
        partners, bound, fixed = rules[i]
        top = n if bound is None else e[bound] - 1
        taken = {e[j] for j in partners}
        if fixed is None:
            values = range(1, top + 1)
        else:
            values = (fixed,) if 1 <= fixed <= top else ()
        for v in values:
            if v not in taken:
                e[i] = v
                if i == last:
                    yield tuple(e)
                else:
                    yield from fill(i + 1)

    if rules:
        yield from fill(0)
    else:
        yield ()


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
