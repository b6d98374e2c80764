"""Diagram / filling statistics tests, including the shipped fixtures."""

import copy
import dataclasses
import json
from importlib import resources
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macpoly.integral import j_compact, j_plain, p_poly
from macpoly.modified import htilde_compact, htilde_plain
from macpoly.quasisym import g_poly, qs_schur, schur_ssyt
from macpoly.shapes import (
    INF_BASEMENT,
    Cell,
    Diagram,
    Filling,
    ShapeError,
    arm_composition,
    arm_partition,
    coinv_comp,
    composition_stats,
    conjugate,
    diagram,
    enumerate_fillings,
    filling_from_fixture,
    inv,
    is_clockwise,
    is_counterclockwise,
    is_nonattacking,
    is_ordered,
    is_packed,
    leg,
    maj,
)


def load_fixture(name):
    text = resources.files("macpoly.fixtures").joinpath(name).read_text()
    return filling_from_fixture(json.loads(text))


@pytest.fixture(scope="module")
def sorted_tableau_fixture():
    return load_fixture("sorted_tableau.json")


@pytest.fixture(scope="module")
def ordered_filling_fixture():
    return load_fixture("ordered_filling.json")


def make_filling(heights, columns, basement=None):
    """columns: per-column entry lists read bottom to top."""
    entries = {}
    for c, col in enumerate(columns, start=1):
        for r, value in enumerate(col, start=1):
            entries[Cell(c, r)] = value
    return Filling.from_entries(diagram(heights), entries, basement)


# -- the variable count ------------------------------------------------------------


ROUTES_TAKING_N = [
    htilde_plain, htilde_compact, j_plain, j_compact, p_poly, g_poly, qs_schur, schur_ssyt
]


@pytest.mark.parametrize("route", ROUTES_TAKING_N, ids=lambda route: route.__name__)
def test_negative_n_is_refused_by_every_route(route):
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        route((1,), -1)


# -- composition bookkeeping ----------------------------------------------------


def test_composition_stats_worked_example():
    stats = composition_stats((0, 2, 0, 2, 1, 3))
    assert stats.inc == (0, 0, 1, 2, 2, 3)
    assert stats.beta == (3, 1, 5, 4, 2, 6)
    assert stats.mult == {2: 2, 1: 1, 3: 1}


def test_composition_stats_ties():
    assert composition_stats((1, 1)).beta == (2, 1)


def test_composition_stats_empty():
    stats = composition_stats(())
    assert stats.inc == () and stats.beta == () and stats.mult == {}


def perm_length(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


@settings(max_examples=60)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_beta_is_max_length_sorter(alpha):
    alpha = tuple(alpha)
    stats = composition_stats(alpha)
    assert tuple(alpha[b - 1] for b in stats.beta) == stats.inc
    candidates = [
        p
        for p in permutations(range(1, len(alpha) + 1))
        if tuple(alpha[b - 1] for b in p) == stats.inc
    ]
    best = max(candidates, key=perm_length)
    assert perm_length(stats.beta) == perm_length(best)
    assert (
        sum(1 for p in candidates if perm_length(p) == perm_length(best)) == 1
    ), "maximal-length sorter should be unique"


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    for n in range(1, 7):
        assert conjugate((n,)) == (1,) * n
    assert conjugate(()) == ()
    with pytest.raises(ShapeError):
        conjugate((1, 2))


# -- arms and legs ---------------------------------------------------------------


def test_leg():
    assert leg((3,), (1, 1)) == 2
    assert leg([3], (1, 3)) == 0
    with pytest.raises(ShapeError):
        leg((3,), (2, 1))


def test_arm_partition():
    # a row of three cells: two cells to the right of the leftmost
    assert arm_partition((1, 1, 1), (1, 1)) == 2
    assert arm_partition([3, 1], (1, 1)) == 1
    assert all(arm_partition((4,), (1, r)) == 0 for r in range(1, 5))


def test_arm_composition_examples():
    assert arm_composition((1, 2, 2, 2, 3), (5, 2)) == 4
    assert all(arm_composition((4,), (1, r)) == 0 for r in range(1, 5))


def test_arm_composition_agrees_on_partition_shapes():
    for heights in [(3, 2, 1), (2, 2), (4, 1, 1), (3, 3, 3)]:
        for cell in diagram(heights).cells:
            assert arm_composition(heights, cell) == arm_partition(heights, cell)


def test_plan_below_and_hooks():
    heights = (0, 2, 3, 1, 3)
    shape = diagram(heights)
    for cell, below, hook in zip(shape.cells, shape.below, shape.hooks):
        if cell.row == 1:
            assert below is None
        else:
            assert shape.cells[below] == (cell.col, cell.row - 1)
        assert hook == (leg(heights, cell) + 1, arm_composition(heights, cell) + 1)


# -- triples -----------------------------------------------------------------------


def test_classify_triple_A_examples():
    assert is_counterclockwise(1, 2, 2)
    assert is_clockwise(3, 2, 1) and not is_counterclockwise(3, 2, 1)
    assert not is_counterclockwise(2, 2, 2) and not is_clockwise(2, 2, 2)


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
def test_distinct_triples_never_neither(a, b, c):
    if len({a, b, c}) == 3:
        assert is_counterclockwise(a, b, c) or is_clockwise(a, b, c)


def test_classify_triple_B_examples():
    assert is_counterclockwise(1, 2, 2)
    assert not is_counterclockwise(2, 2, 2)
    assert is_counterclockwise(3, 1, 2)


# -- inv / maj on partition shapes ----------------------------------------------


def test_sorted_tableau_fixture_statistics(sorted_tableau_fixture):
    filling, expected = sorted_tableau_fixture
    assert inv(filling) == expected["inv"] == 22
    assert maj(filling) == expected["maj"] == 5


def test_inv_constant_rectangle():
    filling = make_filling([2, 2, 2], [[4, 4]] * 3, INF_BASEMENT)
    assert inv(filling) == 0


def test_inv_degenerate_pair():
    filling = make_filling([1, 1], [[2], [1]], INF_BASEMENT)
    assert inv(filling) == 1


def test_inv_plus_coinv_is_total():
    # the triples inv leaves out are the coinversions, so the two sum to the
    # total exactly when inv counts between none and all of the triples
    shape = diagram([2, 2, 1])
    h = shape.heights
    triples = sum(h[v] for u in range(len(h)) for v in range(u + 1, len(h)))
    for filling in enumerate_fillings(shape, 2, basement=INF_BASEMENT):
        assert 0 <= inv(filling) <= triples


def test_maj_ordered_filling_fixture(ordered_filling_fixture):
    filling, expected = ordered_filling_fixture
    assert maj(filling) == expected["maj"] == 3


def test_maj_weakly_decreasing_columns():
    filling = make_filling([3, 2], [[3, 2, 1], [5, 5]], INF_BASEMENT)
    assert maj(filling) == 0
    # against a permutation basement both row-1 cells descend: leg + 1 = 3, 2
    assert filling.shape.maj(filling.flat, (2, 1)) == 3 + 2


# -- composition-shape coinv -----------------------------------------------------


def test_coinv_ordered_filling_fixture(ordered_filling_fixture):
    filling, expected = ordered_filling_fixture
    assert coinv_comp(filling) == expected["coinv"] == 7


def test_coinv_fixture_triple_values(ordered_filling_fixture):
    # the seven non-counterclockwise triples carry these entry multisets
    filling, _ = ordered_filling_fixture
    listed = sorted(
        [
            (1, 6, 7),
            (3, 6, 7),
            (5, 6, 7),
            (6, 7, 9),
            (1, 2, 3),
            (1, 2, 9),
            (3, 5, 7),
        ]
    )
    h = filling.shape.heights
    found = []
    for left in range(1, 6):
        for right in range(left + 1, 6):
            hl, hr = h[left - 1], h[right - 1]
            if hl >= hr:
                for r in range(2, hr + 1):
                    a, b, c = (
                        filling[(right, r)],
                        filling[(left, r)],
                        filling[(left, r - 1)],
                    )
                    if not is_counterclockwise(a, b, c):
                        found.append(tuple(sorted((a, b, c))))
            else:
                for r in range(2, min(hl + 1, hr) + 1):
                    a, b, c = (
                        filling[(left, r - 1)],
                        filling[(right, r)],
                        filling[(right, r - 1)],
                    )
                    if not is_counterclockwise(a, b, c):
                        found.append(tuple(sorted((a, b, c))))
    assert sorted(found) == listed


def test_coinv_constant_and_single_column():
    assert coinv_comp(make_filling([2, 2], [[3, 3], [3, 3]])) == 0
    assert coinv_comp(make_filling([4], [[2, 7, 1, 7]])) == 0


def test_coinv_single_row_counts_noninversions():
    # a lone row with no basement: pairs in increasing order are the coinversions
    filling = make_filling([1, 1, 1], [[2], [1], [3]])
    assert coinv_comp(filling) == 2  # (2,3) and (1,3)


def coinv_by_cells(f):
    """coinv_comp read cell by cell from the column pairs, without the diagram tables."""
    h = f.shape.heights
    perm = isinstance(f.basement, tuple)
    total = 0
    for left in range(1, len(h) + 1):
        for right in range(left + 1, len(h) + 1):
            hl, hr = h[left - 1], h[right - 1]
            if hl >= hr:
                for r in range(2, hr + 1):
                    total += is_clockwise(f[(right, r)], f[(left, r)], f[(left, r - 1)])
                if hr >= 1:
                    if perm:
                        total += is_clockwise(f[(right, 1)], f[(left, 1)], f.basement[left - 1])
                    else:
                        total += f[(left, 1)] < f[(right, 1)]
            else:
                for r in range(2, min(hl + 1, hr) + 1):
                    total += is_clockwise(f[(left, r - 1)], f[(right, r)], f[(right, r - 1)])
                if perm and hr >= 1:
                    total += is_clockwise(f.basement[left - 1], f[(right, 1)], f.basement[right - 1])
    return total


def attacking_by_cells(f):
    """Whether two cells attack, tested on every pair of cells."""
    for (c1, r1), (c2, r2) in permutations(f.shape.cells, 2):
        if c1 < c2 and r1 in (r2, r2 - 1) and f[(c1, r1)] == f[(c2, r2)]:
            return True
    if isinstance(f.basement, tuple):
        for c, r in f.shape.cells:
            if r == 1 and f[(c, 1)] in f.basement[: c - 1]:
                return True
    return False


@st.composite
def random_fillings(draw):
    heights = draw(st.lists(st.integers(0, 3), max_size=5))
    n = draw(st.integers(1, 4))
    shape = diagram(heights)
    entries = {cell: draw(st.integers(1, n)) for cell in shape.cells}
    basement = draw(
        st.one_of(
            st.none(),
            st.just(INF_BASEMENT),
            st.permutations(range(1, len(heights) + 1)).map(tuple),
        )
    )
    return Filling.from_entries(shape, entries, basement)


@settings(max_examples=300)
@given(random_fillings())
def test_plan_statistics_match_cell_by_cell(f):
    assert coinv_comp(f) == coinv_by_cells(f)
    assert is_nonattacking(f) == (not attacking_by_cells(f))


def inv_by_cells(f):
    """inv read cell by cell from the column pairs of a partition shape."""
    h = f.shape.heights
    total = 0
    for left in range(1, len(h) + 1):
        for right in range(left + 1, len(h) + 1):
            if h[right - 1] >= 1:
                total += f[(left, 1)] > f[(right, 1)]
            for r in range(2, h[right - 1] + 1):
                total += is_counterclockwise(f[(right, r)], f[(left, r)], f[(left, r - 1)])
    return total


@st.composite
def random_partition_fillings(draw):
    heights = sorted(draw(st.lists(st.integers(0, 3), max_size=5)), reverse=True)
    n = draw(st.integers(1, 4))
    shape = diagram(heights)
    entries = {cell: draw(st.integers(1, n)) for cell in shape.cells}
    return Filling.from_entries(shape, entries, INF_BASEMENT)


@settings(max_examples=200)
@given(random_partition_fillings())
def test_inv_matches_cell_by_cell(f):
    assert inv(f) == inv_by_cells(f)


# -- attacking / ordered / packed -------------------------------------------------


def test_nonattacking_fixture(ordered_filling_fixture):
    filling, _ = ordered_filling_fixture
    assert is_nonattacking(filling)


def test_attacking_same_row():
    assert not is_nonattacking(make_filling([1, 1], [[4], [4]]))


def test_equal_upper_left_not_attacking():
    # equal entries in adjacent rows with the higher cell weakly left: fine
    filling = make_filling([2, 2], [[1, 5], [5, 2]])
    assert is_nonattacking(filling)
    # ...but an equal pair with the rightmost cell strictly above does attack
    assert not is_nonattacking(make_filling([2, 2], [[5, 1], [2, 5]]))


def test_perm_basement_pins_bottom_row():
    shape = [0, 1]
    ok = make_filling(shape, [[], [2]], basement=(1, 2))
    bad = make_filling(shape, [[], [1]], basement=(1, 2))
    assert is_nonattacking(ok)
    assert not is_nonattacking(bad)


def test_is_ordered(ordered_filling_fixture):
    filling, _ = ordered_filling_fixture
    assert is_ordered(filling)
    assert not is_ordered(make_filling([1, 1], [[1], [2]]))
    assert is_ordered(make_filling([1, 2, 3], [[9], [9, 1], [9, 2, 3]]))
    with pytest.raises(ShapeError):
        is_ordered(make_filling([2, 1], [[1, 1], [2]]))


def resort_bottom_blocks(filling):
    """Sort each equal-height block's bottom-row entries into strict decrease."""
    h = filling.shape.heights
    entries = dict(filling.entries)
    col = 1
    while col <= len(h):
        end = col
        while end + 1 <= len(h) and h[end] == h[col - 1]:
            end += 1
        if h[col - 1] >= 1:
            values = sorted(
                (entries[Cell(c, 1)] for c in range(col, end + 1)), reverse=True
            )
            for c, v in zip(range(col, end + 1), values):
                entries[Cell(c, 1)] = v
        col = end + 1
    return Filling.from_entries(filling.shape, entries, filling.basement)


def test_resorting_ordered_filling_is_identity():
    shape = diagram([1, 1, 2, 2])
    for f in enumerate_fillings(shape, 3):
        resorted = resort_bottom_blocks(f)
        if is_ordered(f):
            assert resorted.entries == f.entries
        if len({f[(1, 1)], f[(2, 1)]}) == 2 and len({f[(3, 1)], f[(4, 1)]}) == 2:
            assert is_ordered(resorted)
            assert resort_bottom_blocks(resorted).entries == resorted.entries


def test_is_packed(ordered_filling_fixture):
    filling, _ = ordered_filling_fixture
    assert not is_packed(filling)  # uses {1,2,3,5,6,7,9}
    assert is_packed(make_filling([1, 1], [[2], [1]]))


# -- enumeration --------------------------------------------------------------------


def test_enumerate_counts():
    assert len(list(enumerate_fillings(diagram([1]), 3))) == 3
    nonatt = list(
        enumerate_fillings(diagram([1, 1]), 2, predicate=is_nonattacking)
    )
    assert len(nonatt) == 2


def test_enumerate_colex_order():
    seq = [
        tuple(f[(c, 1)] for c in (1, 2))
        for f in enumerate_fillings(diagram([1, 1]), 2)
    ]
    assert seq == [(1, 1), (2, 1), (1, 2), (2, 2)]


def test_enumerate_empty_shape():
    fillings = list(enumerate_fillings(diagram([0, 0]), 2))
    assert len(fillings) == 1 and fillings[0].entries == {}


# -- the diagram type -----------------------------------------------------------------


def test_diagram_is_cached_per_heights():
    assert diagram((2, 1)) is diagram([2, 1])
    assert diagram((2, 1)) != diagram((1, 2))
    assert diagram(()).cells == () and diagram(()).is_partition


def test_equal_diagrams_hash_equal():
    shape = diagram((3, 1, 2))
    twin = copy.copy(shape)
    assert twin is not shape
    assert twin == shape and hash(twin) == hash(shape)
    assert Filling(twin, (1, 2, 3, 4, 5, 6)) == Filling(shape, (1, 2, 3, 4, 5, 6))
    assert shape != shape.heights


def test_diagram_rejects_negative_height():
    with pytest.raises(ShapeError, match="negative"):
        diagram((2, -1))


def test_diagram_is_not_a_heights_sequence():
    shape = diagram((2, 1))
    with pytest.raises(TypeError):
        diagram(shape)
    for fn in (leg, arm_partition, arm_composition):
        with pytest.raises(TypeError):
            fn(shape, (1, 1))


def test_filling_fields():
    assert [f.name for f in dataclasses.fields(Filling)] == ["shape", "flat", "basement"]


def test_cell_functions_reject_cells_outside_heights():
    for fn in (leg, arm_partition, arm_composition):
        for cell in ((0, 1), (1, 0), (1, 3), (2, 2), (3, 1)):
            with pytest.raises(ShapeError, match="outside"):
                fn((2, 1), cell)


# -- the flat-tuple boundary ----------------------------------------------------------


def test_filling_takes_only_a_full_flat_tuple():
    shape = diagram([2, 1])
    f = Filling(shape, (1, 2, 3))
    assert f.entries == {Cell(1, 1): 1, Cell(1, 2): 2, Cell(2, 1): 3}
    assert f[(1, 2)] == 2 and f[(2, 1)] == 3
    for bad in ({Cell(1, 1): 1, Cell(1, 2): 2, Cell(2, 1): 3}, (1, 2), [1, 2, 3]):
        with pytest.raises(ShapeError):
            Filling(shape, bad)
    with pytest.raises(ShapeError):
        Filling(shape, (1, 2, 3), (1,))


def test_from_entries_needs_exact_cover():
    shape = diagram([2, 1])
    entries = {Cell(1, 1): 1, Cell(1, 2): 2, Cell(2, 1): 3}
    assert Filling.from_entries(shape, entries) == Filling(shape, (1, 2, 3))
    missing = {Cell(1, 1): 1, Cell(2, 1): 3}
    extra = {**entries, Cell(3, 1): 4}
    for bad in (missing, extra):
        with pytest.raises(ShapeError, match="do not cover"):
            Filling.from_entries(shape, bad)


# -- fixture schema round trip ---------------------------------------------------


def test_fixture_parsing(sorted_tableau_fixture, ordered_filling_fixture):
    f2, _ = sorted_tableau_fixture
    assert f2.basement == INF_BASEMENT
    assert f2.shape.heights == (5, 5, 5, 2, 2, 1, 1, 1, 1)
    f4, _ = ordered_filling_fixture
    assert f4.basement is None
    assert tuple(f4[5, r] for r in (1, 2, 3)) == (6, 7, 3)
