"""Diagram / filling statistics tests, including the shipped fixtures."""

import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from functools import cache
from importlib import resources
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macpoly import integral, kernels
from macpoly.integral import (
    compositions_rearranging, hook_product_inc, integral_e, j_compact, j_keys, j_plain, p_poly,
)
from macpoly.modified import htilde_compact, htilde_plain, iter_sorted_tableaux
from macpoly.nonsymmetric import e_permuted_basement, iter_basement_fillings
from macpoly.polyring import QUASISYMMETRIC, SYMMETRIC, MPoly, QtRational
from macpoly.quasisym import compositions_with_support, g_poly, qs_schur, schur_ssyt
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
    content_plan,
    diagram,
    enumerate_fillings,
    filling_from_fixture,
    inv,
    is_nonattacking,
    is_ordered,
    is_packed,
    iter_nonattacking,
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


def is_counterclockwise(a, b, c) -> bool:
    """Cyclic-order test: a < b <= c, or c < a < b, or b <= c < a."""
    return (a < b <= c) or (c < a < b) or (b <= c < a)


def is_clockwise(a, b, c) -> bool:
    """Strict reversed cyclic order: a > b > c, or c > a > b, or b > c > a."""
    return (a > b > c) or (c > a > b) or (b > c > a)


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


# -- compiled kernels against the loops they replace -------------------------------


def inv_loop(shape, e):
    total = 0
    for i, j, _ in shape.coinv_pairs:
        if e[i] > e[j]:
            total += 1
    for a, b, c in shape.coinv_triples:
        if is_counterclockwise(e[a], e[b], e[c]):
            total += 1
    return total


def maj_loop(shape, e, basement=None):
    total = sum(w for i, j, w in shape.steps if e[i] > e[j])
    if isinstance(basement, tuple):
        total += sum(w for i, col, w in shape.bottom if e[i] > basement[col])
    return total


def coinv_loop(shape, e, basement=None):
    total = 0
    for a, b, c in shape.coinv_triples:
        if is_clockwise(e[a], e[b], e[c]):
            total += 1
    if isinstance(basement, tuple):
        for i, j, col in shape.coinv_pairs:
            if is_clockwise(e[j], e[i], basement[col]):
                total += 1
        for j, left, right in shape.coinv_bottom:
            if is_clockwise(basement[left], e[j], basement[right]):
                total += 1
    else:
        for i, j, _ in shape.coinv_pairs:
            if e[i] < e[j]:
                total += 1
    return total


def repeats_loop(shape, e):
    return tuple(e[i] == e[j] for i, j, _ in shape.steps)


def nonattacking_loop(shape, e, basement=None):
    for i, j in shape.attack_pairs:
        if e[i] == e[j]:
            return False
    b = basement
    return not isinstance(b, tuple) or all(e[i] not in b[:col] for i, col, _ in shape.bottom)


def content_loop(orbit, n, e):
    x = tuple(map(e.count, range(1, n + 1)))
    return x if orbit is None or orbit.is_rep(x) else None


def assert_kernels_match_loops(shape, e, basement):
    assert shape.inv(e) == inv_loop(shape, e), (shape, e)
    assert shape.maj(e, basement) == maj_loop(shape, e, basement), (shape, e, basement)
    assert shape.coinv(e, basement) == coinv_loop(shape, e, basement), (shape, e, basement)
    assert shape.repeats(e) == repeats_loop(shape, e), (shape, e)
    got = shape.nonattacking(e, basement)
    assert got is nonattacking_loop(shape, e, basement), (shape, e, basement)


def test_kernels_match_loops_on_every_small_diagram():
    # every height tuple of at most 5 columns of height at most 3: 1,365
    # diagrams, among them (), (1,) and those with zero-height columns
    rng = random.Random(21)
    all_heights = [h for k in range(6) for h in product(range(4), repeat=k)]
    assert len(all_heights) == 1365 and {(), (1,), (0, 2, 0)} <= set(all_heights)
    for heights in all_heights:
        shape = diagram(heights)
        columns = list(range(1, len(heights) + 1))
        for _ in range(4):
            e = tuple(rng.randint(1, 5) for _ in shape.cells)
            rng.shuffle(columns)
            for basement in (None, INF_BASEMENT, tuple(columns)):
                assert_kernels_match_loops(shape, e, basement)


def test_kernels_compile_on_a_large_diagram():
    shape = diagram((6,) * 6)
    rng = random.Random(6)
    for _ in range(20):
        e = tuple(rng.randint(1, 5) for _ in shape.cells)
        for basement in (None, INF_BASEMENT, tuple(rng.sample(range(1, 7), 6))):
            assert_kernels_match_loops(shape, e, basement)


def test_kernel_values_are_ints_and_bools():
    shape, e = diagram((2, 1, 2)), (1, 2, 2, 1, 3)
    assert type(shape.inv(e)) is int and type(shape.maj(e, (3, 1, 2))) is int
    assert type(shape.coinv(e)) is int and shape.repeats(e) == (False, False)
    assert diagram(()).inv(()) == 0 and diagram(()).repeats(()) == ()
    assert diagram(()).nonattacking((), ()) is True


def test_no_kernel_is_compiled_at_import():
    code = (
        "import sys\n"
        "import macpoly.cli\n"
        "from macpoly.shapes import _build_diagram, content_plan\n"
        "print(_build_diagram.cache_info().currsize, content_plan.cache_info().currsize,\n"
        "      'macpoly.kernels' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.split() == ["0", "0", "False"], proc.stderr


@pytest.mark.parametrize("orbit", [None, SYMMETRIC, QUASISYMMETRIC], ids=["none", "sym", "qsym"])
def test_content_kernel_matches_count_then_is_rep(orbit):
    # the content plan: the code of a word, its representative content at the
    # leaf, and whether each prefix completes to some word of representative
    # content, against counting and is_rep over every completion
    rng = random.Random(5)
    for n in range(5):
        words = [w for m in range(5) for w in product(range(1, n + 1), repeat=m)]
        words += [tuple(rng.randint(1, n) for _ in range(rng.randint(5, 12))) for _ in range(40 * bool(n))]
        for e in words:
            m = len(e)
            plan, code = content_plan(orbit, n, m), sum((m + 1) ** (v - 1) for v in e)
            assert content_plan(orbit, n, m) is plan and sum(plan.weights[v] for v in e) == code
            assert plan.content(e) == plan.reps[code] == content_loop(orbit, n, e), (n, e)
            if m > 6:
                continue
            for d in range(m):
                completes = any(
                    content_loop(orbit, n, e[:d] + rest) is not None
                    for rest in combinations_with_replacement(range(1, n + 1), m - d)
                )
                assert plan.fits[sum((m + 1) ** (v - 1) for v in e[:d])] is completes, (n, e, d)


def attack_free_prefixes(shape, n, b):
    """The contents, as sorted tuples, of every prefix in cell order of an entry
    tuple over 1..n in which no cell repeats one it attacks and row 1 holds b."""
    pins = {i: (b[col],) for i, col, _ in shape.bottom} if b else {}
    level, seen = [()], set()
    for i in range(len(shape.cells)):
        level = [p + (v,) for p in level for v in pins.get(i, range(1, n + 1))
                 if all(v != p[j] for j in shape.attacks[i])]
        seen.update(tuple(sorted(p)) for p in level)
    return seen


@pytest.mark.parametrize("family, orbit, parts, n", [
    (p_poly, SYMMETRIC, (1,) * 12, 12),
    (g_poly, QUASISYMMETRIC, (1,) * 8, 8),
    (p_poly, SYMMETRIC, (3, 2, 1), 5),
    (g_poly, QUASISYMMETRIC, (2, 1, 2), 4),
])
def test_content_plan_holds_only_the_codes_its_walks_reach(family, orbit, parts, n):
    # a plan with every content of m entries in 1..n would hold C(m + n - 1, m)
    # codes: 1,352,078 for (1,)*12 at n = 12
    content_plan.cache_clear()
    family(parts, n)
    m, reached = sum(parts), set()
    listed = compositions_rearranging(parts, n) if orbit is SYMMETRIC else compositions_with_support(parts, n)
    for stats in map(composition_stats, listed):
        reached |= attack_free_prefixes(diagram(stats.inc), n, stats.beta)
    plan = content_plan(orbit, n, m)
    assert 0 < len(plan.fits) <= sum(len(p) < m for p in reached)
    assert len(plan.reps) <= sum(len(p) == m for p in reached)
    assert len(plan.lasts) <= sum(len(p) == m - 1 for p in reached)
    # a leaf reads x from reps when row 1 pins its cell, else from lasts
    assert plan.reps or plan.lasts


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


def ordered_loop(shape, e):
    """Each equal-height block's row-1 entries strictly decrease, on any diagram."""
    return all(
        e[a.start] > e[b.start] for h, slices in shape.blocks if h for a, b in zip(slices, slices[1:])
    )


#: every diagram of at most 3 columns of height at most 2 ((), zero-height
#: columns and unequal blocks among them), and five with more cells
WALK_HEIGHTS = [h for k in range(4) for h in product(range(3), repeat=k)]
WALK_HEIGHTS += [(1, 1, 2, 2), (0, 2, 2, 1), (3, 1, 1), (2, 3, 3), (1, 2, 2, 2)]


@pytest.mark.parametrize("staged", [False, True], ids=["one-function", "chained"])
def test_walk_matches_filtering_every_assignment(staged, monkeypatch):
    # the chained case compiles every walk with 2 loops per function, so that
    # every stage boundary of a long walk is crossed on small diagrams
    if staged:
        monkeypatch.setattr(kernels, "_STAGE", 2)
    for heights in WALK_HEIGHTS:
        shape = diagram(heights)
        walk = kernels.walk(shape) if staged else shape.walk
        increasing = all(a <= b for a, b in zip(heights, heights[1:]))
        basements = list(permutations(range(1, len(heights) + 1))) if increasing else []
        for n in range(4):
            assignments = list(product(range(1, n + 1), repeat=len(shape.cells)))
            plain = [e for e in assignments if is_nonattacking(Filling(shape, e))]
            assert list(walk(n)) == plain, (heights, n)
            ordered = [e for e in plain if ordered_loop(shape, e)]
            assert list(walk(n, None, True)) == ordered, (heights, n)
            if n > len(heights):
                continue
            # a permutation basement pins row 1 on an increasing shape for n <= its columns
            for b in basements:
                pinned = [e for e in assignments if is_nonattacking(Filling(shape, e, b))]
                assert list(walk(n, b)) == pinned, (heights, n, b)
    assert diagram((2, 1)).walk is diagram((2, 1)).walk


def test_walks_past_the_nesting_limit():
    # 21 or more nested loops do not compile, so these walks run chained
    assert list(iter_nonattacking((22,), 1)) == [(1,) * 22]
    e = e_permuted_basement((25,))
    assert e.n == 1 and e.coeffs == {(25,): QtRational.one()}
    assert j_compact((25,), 1).value == j_plain((25,), 1)


#: every diagram of at most 5 columns of height at most 3, as in
#: test_kernels_match_loops_on_every_small_diagram
SMALL_HEIGHTS = [h for k in range(6) for h in product(range(4), repeat=k)]


def one_and_chained(shape, kind, monkeypatch):
    """The walk of ``kind`` compiled as one function, and with 2 loops per
    function, so that the partial sums cross every stage boundary."""
    one = kernels.walk(shape, kind)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_STAGE", 2)
        return one, kernels.walk(shape, kind)


#: the most assignments filtered per diagram and n: every small diagram is
#: checked at n <= 1, all but 126 at n = 2, and those of at most 6 cells at n = 3
MOST_ASSIGNMENTS = 1024


def assignments_by_n(shape):
    """(n, every assignment over 1..n) for n <= 3, up to MOST_ASSIGNMENTS."""
    for n in range(4):
        if n ** len(shape.cells) <= MOST_ASSIGNMENTS:
            yield n, list(product(range(1, n + 1), repeat=len(shape.cells)))


def test_word_walk_counts_match_filtering_every_assignment(monkeypatch):
    for heights in SMALL_HEIGHTS:
        shape = diagram(heights)
        walks = one_and_chained(shape, "words", monkeypatch)
        for n, assignments in assignments_by_n(shape):
            by_content: defaultdict = defaultdict(Counter)
            for e in assignments:
                by_content[tuple(map(e.count, range(1, n + 1)))][shape.inv(e), shape.maj(e)] += 1
            for x, expected in by_content.items():
                for walk in walks:
                    counts, left = {}, [0, *x]
                    walk(n, left, counts)
                    assert counts == expected and left == [0, *x], (heights, n, x)


#: no orbit, and the two orbits a content plan keeps representatives of
ORBITS = (None, SYMMETRIC, QUASISYMMETRIC)


@cache
def basement_cases(heights):
    """(n, b, keys) for each n of :func:`assignments_by_n`, with no basement and with
    every permutation basement where one pins row 1 (on an increasing diagram when n
    is the number of columns): ``keys`` maps each (x, maj, coinv, repeat mask) of the
    nonattacking assignments, in the order each first appears, to [count, first
    assignment].  Cached, so that the basement and zero walk tests filter once."""
    shape, cases = diagram(heights), []
    for n, assignments in assignments_by_n(shape):
        basements = [None]
        if all(a <= b for a, b in zip(heights, heights[1:])) and n == len(heights):
            basements += permutations(range(1, n + 1))
        for b in basements:
            keys = {}
            for e in assignments:
                if shape.nonattacking(e, b):
                    key = (tuple(map(e.count, range(1, n + 1))), shape.maj(e, b), shape.coinv(e, b), shape.repeats(e))
                    keys.setdefault(key, [0, e])[0] += 1
            cases.append((n, b, keys))
    return cases


def test_basement_walk_counts_match_filtering_every_assignment(monkeypatch):
    for heights in SMALL_HEIGHTS:
        shape = diagram(heights)
        walks = one_and_chained(shape, "basement", monkeypatch)
        for n, b, keys in basement_cases(heights):
            for orbit in ORBITS:
                expected, firsts = {}, {}
                for (x, q, t, mask), (count, e) in keys.items():
                    if orbit is None or orbit.is_rep(x):
                        expected[x, q, t, mask] = count
                        firsts.setdefault(mask, (e, b))
                for walk in walks:
                    got = {}, {}
                    walk(n, b, content_plan(orbit, n, len(shape.cells)), *got)
                    assert got == (expected, firsts), (heights, n, b, orbit)


def test_zero_walk_counts_the_basement_walk_at_maj_and_coinv_zero(monkeypatch):
    for heights in SMALL_HEIGHTS:
        shape = diagram(heights)
        walks = one_and_chained(shape, "zero", monkeypatch)
        for n, b, keys in basement_cases(heights):
            for orbit in ORBITS:
                expected = Counter()
                for (x, q, t, _), (count, _) in keys.items():
                    if q == t == 0 and (orbit is None or orbit.is_rep(x)):
                        expected[x] += count
                for walk in walks:
                    got = {}
                    walk(n, b, content_plan(orbit, n, len(shape.cells)), got)
                    assert got == expected, (heights, n, b, orbit)


def test_counting_walks_past_the_nesting_limit_and_on_empty_input():
    # 22 cells: the counting walks run as chained functions
    one = MPoly.monomial(1, x=(22,))
    assert htilde_plain((22,), 1) == htilde_plain((1,) * 22, 1) == qs_schur((22,), 1) == one
    assert p_poly((22,), 1).coeffs == g_poly((22,), 1).coeffs == {(22,): QtRational.one()}
    assert integral_e((22,)) == e_permuted_basement((22,)).cleared_by(hook_product_inc((22,)))
    assert len(integral_e((22,)).terms) == 1794
    # the empty diagram, with variables and without, and no variables
    assert htilde_plain((), 2) == MPoly.one(2) and htilde_plain((), 0) == MPoly.one(0)
    assert htilde_plain((2, 1), 0) == MPoly.zero(0) and qs_schur((1,), 0) == MPoly.zero(0)
    assert qs_schur((), 3) == MPoly.one(3) and integral_e(()) == MPoly.one(0)
    assert e_permuted_basement(()).coeffs == {(): QtRational.one()}
    assert e_permuted_basement((0, 0)).coeffs == {(0, 0): QtRational.one()}
    assert p_poly((), 2).coeffs == g_poly((), 2).coeffs == {(0, 0): QtRational.one()}
    assert p_poly((2,), 0).coeffs == g_poly((1,), 0).coeffs == {}


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


def test_filling_is_frozen_and_slotted():
    shape = diagram([2, 1])
    f = Filling(shape, (1, 2, 3), (2, 1))
    for name, value in (("shape", diagram([3])), ("flat", (3, 2, 1)), ("basement", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, value)
    assert not hasattr(f, "__dict__")
    assert (f.shape, f.flat, f.basement) == (shape, (1, 2, 3), (2, 1))


def test_filling_equality_and_hash_follow_the_fields():
    shape = diagram([2, 1])
    f = Filling(shape, (1, 2, 3), INF_BASEMENT)
    twin = Filling(diagram((2, 1)), tuple([1, 2, 3]), "inf")
    assert twin == f and hash(twin) == hash(f)
    assert Filling(shape, (1, 2, 3), (2, 1)) == Filling(shape=shape, flat=(1, 2, 3), basement=(2, 1))
    for other in (Filling(shape, (1, 2, 3)), Filling(shape, (1, 2, 3), (1, 2)), Filling(shape, (1, 2, 1), "inf")):
        assert other != f


def test_filling_checks_run_once_per_built_filling(monkeypatch):
    checks = Counter()
    check = Filling.__post_init__

    def counted(self):
        checks[self] += 1
        check(self)

    monkeypatch.setattr(Filling, "__post_init__", counted)

    def checked(fillings):
        """The items of ``fillings`` and the number of checks run while drawing them."""
        checks.clear()
        items = list(fillings)
        assert set(checks.values()) <= {1} and set(items) <= set(checks)
        return items, sum(checks.values())

    shape, n = diagram([2, 1, 1]), 3
    every, built = checked(enumerate_fillings(shape, n, basement=INF_BASEMENT))
    assert len(every) == built == n ** 4
    tested = []
    accepted, built = checked(enumerate_fillings(shape, n, lambda f: tested.append(f) or is_nonattacking(f)))
    assert len(tested) == built == n ** 4 > len(accepted)
    items, built = checked(iter_basement_fillings((1, 0, 2)))
    assert items and built == len(items)
    # the sorted tableaux come as flat tuples: drawing them builds no Filling
    checks.clear()
    assert list(iter_sorted_tableaux(diagram([2, 2, 1]), 3)) and not checks

    drawn = []

    def keys(heights, n, fillings):
        drawn.extend(fillings)
        return j_keys(heights, n, drawn)

    monkeypatch.setattr(integral, "j_keys", keys)
    checks.clear()
    j_compact((2, 2, 1), 3)
    assert sum(checks.values()) == len(drawn) == len(list(iter_nonattacking((1, 2, 2), 3, ordered=True))) > 0


def test_enumerate_fillings_checks_n_at_the_call():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_fillings(diagram([1]), -1)
    fillings = enumerate_fillings(diagram([1]), 2)
    assert iter(fillings) is fillings


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
