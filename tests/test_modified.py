"""Sorted-tableau machinery and the two modified-Macdonald routes."""

import json
from collections import Counter
from importlib import resources
from math import comb, prod

import pytest

import macpoly.modified as modified
from macpoly import kernels
from macpoly.modified import (
    SortedTableau,
    _block_runs,
    _word_counts,
    column_leq,
    column_sort_key,
    compact_side,
    htilde_compact,
    htilde_plain,
    is_sorted_tableau,
    iter_sorted_tableaux,
)
from macpoly.polyring import SYMMETRIC, MPoly, t_multinomial
from macpoly.shapes import (
    INF_BASEMENT,
    Cell,
    Filling,
    ShapeError,
    conjugate,
    content_plan,
    diagram,
    enumerate_fillings,
    filling_from_fixture,
    inv,
    is_packed,
    maj,
)


def load_json(name):
    return json.loads(resources.files("macpoly.fixtures").joinpath(name).read_text())


@pytest.fixture(scope="module")
def sorted_tableau_fixture():
    return filling_from_fixture(load_json("sorted_tableau.json"))[0]


@pytest.fixture(scope="module")
def tableau_listing():
    return load_json("tableau_listing.json")


def sorted_tableaux(shape, n):
    """The sorted tableaux of ``shape`` over 1..n as fillings on the infinity basement."""
    every = iter_sorted_tableaux(shape, n, content_plan(None, n, len(shape.cells)))
    return [Filling(shape, e, INF_BASEMENT) for e, _, _ in every]


# -- column order -----------------------------------------------------------------


def test_column_order_single_entries():
    assert column_leq((1,), (2,))
    assert not column_leq((2,), (1,))
    assert column_leq((2,), (2,)) and column_leq((1, 3), (1, 3))


def test_column_order_height_mismatch():
    with pytest.raises(ShapeError):
        column_leq((1,), (1, 2))


def test_column_order_wraps_after_shared_entry():
    # above a shared 5, values run 6,7,...,then 1..5
    assert column_leq((5, 6), (5, 1))
    assert not column_leq((5, 1), (5, 6))
    assert column_leq((5, 1), (5, 5))


def test_fixture_is_sorted(sorted_tableau_fixture):
    assert is_sorted_tableau(sorted_tableau_fixture)


def test_sorted_constant_fillings():
    shape = diagram([2, 2, 1])
    cells = shape.cells
    for value in (1, 2, 3):
        f = Filling.from_entries(shape, {c: value for c in cells}, INF_BASEMENT)
        assert is_sorted_tableau(f)


# -- multiplicity_t ---------------------------------------------------------------------


def test_fixture_multiplicity_t(sorted_tableau_fixture):
    expected = (
        t_multinomial(3, [2, 1])
        * t_multinomial(2, [1, 1])
        * t_multinomial(4, [2, 2])
    )
    assert SortedTableau.certify(sorted_tableau_fixture).multiplicity_t() == expected


def test_multiplicity_identical_columns():
    shape = diagram([2, 2])
    f = Filling.from_entries(
        shape,
        {Cell(1, 1): 3, Cell(1, 2): 1, Cell(2, 1): 3, Cell(2, 2): 1},
        INF_BASEMENT,
    )
    assert SortedTableau.certify(f).multiplicity_t() == MPoly.one(0)


def test_multiplicity_distinct_columns_is_t_factorial():
    shape = diagram([1, 1, 1])
    f = Filling.from_entries(shape, {Cell(1, 1): 1, Cell(2, 1): 2, Cell(3, 1): 3}, INF_BASEMENT)
    assert SortedTableau.certify(f).multiplicity_t() == t_multinomial(3, [1, 1, 1])


def test_multiplicity_at_one_counts_rearrangements(sorted_tableau_fixture):
    mult = SortedTableau.certify(sorted_tableau_fixture).multiplicity_t()
    value = mult.specialize(t=1).constant_term()
    # block rearrangements: 3!/2! * 2! * 4!/(2!2!)
    assert value == 3 * 2 * 6


# -- sorted tableau enumeration -----------------------------------------------------


#: partition diagrams whose sorted tableaux over 1..2 and 1..3 are checked against filtering
SORTED_WINDOW = [(2,), (1, 1), (2, 1), (2, 2), (2, 1, 1), (3, 1)]


def assert_sorted_walk_contract(walk, heights, n):
    """``walk(n, plan)`` yields one item per sorted tableau of ``heights`` over 1..n, in
    the order of their columns' sort keys, left column first: (e, x, runs) when x is the
    content of e and a representative under the plan's orbit, else (None, None, None)."""
    shape = diagram(heights)
    m, values = len(shape.cells), range(1, n + 1)
    columns = [slice_ for _, slices in shape.blocks for slice_ in slices]
    filtered = sorted(
        (f.flat for f in enumerate_fillings(shape, n, predicate=is_sorted_tableau, basement=INF_BASEMENT)),
        key=lambda e: [column_sort_key(e[col]) for col in columns],
    )
    assert len(filtered) == prod(comb(n ** h + len(cols) - 1, len(cols)) for h, cols in shape.blocks)
    for orbit in (None, SYMMETRIC):
        expected = []
        for e in filtered:
            x = tuple(map(e.count, values))
            kept = orbit is None or orbit.is_rep(x)
            expected.append((e, x, _block_runs(shape, e)) if kept else (None, None, None))
        assert list(walk(n, content_plan(orbit, n, m))) == expected, (heights, n, orbit)


@pytest.mark.parametrize("heights", SORTED_WINDOW)
@pytest.mark.parametrize("n", [2, 3])
def test_direct_enumeration_matches_filtering(heights, n):
    # flat entry tuples, each once, with the content and run signature of each
    assert_sorted_walk_contract(lambda *args: iter_sorted_tableaux(diagram(heights), *args), heights, n)
    every = list(iter_sorted_tableaux(diagram(heights), n, content_plan(None, n, sum(heights))))
    assert all(type(e) is tuple for e, _, _ in every) and len(set(every)) == len(every)


def test_sorted_walk_chained_keeps_the_contract(monkeypatch):
    # 2 loops per function, so that the walk crosses a stage boundary on every
    # diagram of more than 2 columns
    monkeypatch.setattr(kernels, "_STAGE", 2)
    for heights in SORTED_WINDOW:
        for n in (2, 3):
            assert_sorted_walk_contract(kernels.walk(diagram(heights), "sorted"), heights, n)


def test_sorted_walk_past_the_nesting_limit_and_on_empty_input():
    # (22,) at n = 1 walks 22 columns of one block, which run as chained functions
    assert htilde_compact((22,), 1) == htilde_plain((22,), 1)
    assert htilde_compact((1,) * 22, 1) == htilde_plain((1,) * 22, 1)
    row = diagram((1,) * 22)
    assert list(iter_sorted_tableaux(row, 1, content_plan(SYMMETRIC, 1, 22))) == [((1,) * 22, (22,), ((22,),))]
    # the empty diagram has one tableau, of empty content; no values give none
    assert list(iter_sorted_tableaux(diagram(()), 0, content_plan(SYMMETRIC, 2, 0))) == [((), (0, 0), ())]
    assert list(iter_sorted_tableaux(diagram((2, 1)), 0, content_plan(None, 0, 3))) == []


def test_sorted_tableaux_partition_into_rearrangement_classes():
    # rearranging equal-height columns of a sorted tableau sweeps all fillings
    shape = diagram([2, 1, 1])
    n = 3
    total = sum(
        SortedTableau.certify(f).multiplicity_t().specialize(t=1).constant_term()
        for f in sorted_tableaux(shape, n)
    )
    assert total == n ** len(shape.cells)


# -- the 32-tableau listing fixture ---------------------------------------------------


def test_listing_packed_sorted_tableaux(tableau_listing):
    shape = diagram(tableau_listing["shape"])
    n = tableau_listing["n"]
    packed = [f for f in sorted_tableaux(shape, n) if is_packed(f)]
    assert len(packed) == len(tableau_listing["tableaux"]) == 32

    expected = {}
    for item in tableau_listing["tableaux"]:
        key = tuple(sorted((Cell(c, r), v) for c, r, v in item["entries"]))
        expected[key] = (item["inv"], item["maj"], tuple(item["multiplicity"]))
    for f in packed:
        key = tuple(sorted(f.entries.items()))
        assert key in expected
        e_inv, e_maj, e_perm = expected[key]
        assert inv(f) == e_inv
        assert maj(f) == e_maj
        got = SortedTableau.certify(f).multiplicity_t()
        coeffs = tuple(
            got.terms.get(mono, 0)
            for mono in sorted(got.terms, key=lambda m: m.t)
        )
        assert [c for c in coeffs] == list(e_perm)


def test_listing_sum_is_the_compact_polynomial(tableau_listing):
    shape = diagram(tableau_listing["shape"])
    n = tableau_listing["n"]
    total = MPoly.zero(n)
    for f in sorted_tableaux(shape, n):
        st_ = SortedTableau.certify(f)
        total = total + st_.multiplicity_t().extended(n).mul_monomial(
            x=f.x_exponents(n), q=maj(f), t=inv(f)
        )
    assert total == htilde_compact((3, 1), n)
    assert total == htilde_plain((3, 1), n)
    # same polynomial as the wide-hook target with the two parameters exchanged
    assert total == htilde_plain((2, 1, 1), n).swap_qt()


# -- the two formulas ------------------------------------------------------------------


def test_htilde_single_cell():
    for n in (1, 2, 3):
        expected = MPoly.zero(n)
        for i in range(1, n + 1):
            expected = expected + MPoly.monomial(
                n, x=tuple(1 if j == i - 1 else 0 for j in range(n))
            )
        assert htilde_plain((1,), n) == expected
        assert htilde_compact((1,), n) == expected


def test_htilde_one_column_two_cells():
    got = htilde_plain((2,), 2)
    expected = (
        MPoly.monomial(2, x=(2, 0))
        + MPoly.monomial(2, x=(0, 2))
        + MPoly.monomial(2, x=(1, 1))
        + MPoly.monomial(2, x=(1, 1), t=1)
    )
    assert got == expected
    assert htilde_compact((2,), 2) == expected


def test_htilde_one_row_two_cells():
    expected = (
        MPoly.monomial(2, x=(2, 0))
        + MPoly.monomial(2, x=(0, 2))
        + MPoly.monomial(2, x=(1, 1))
        + MPoly.monomial(2, x=(1, 1), q=1)
    )
    assert htilde_plain((1, 1), 2) == expected
    assert htilde_compact((1, 1), 2) == expected


@pytest.mark.parametrize(
    "lam,n",
    [((2,), 2), ((1, 1), 2), ((2, 1), 2), ((2, 1), 3), ((3, 1), 3), ((2, 2), 3), ((2, 1, 1), 3)],
)
def test_compact_equals_plain_small(lam, n):
    assert htilde_compact(lam, n) == htilde_plain(lam, n)


@pytest.mark.parametrize("lam,n", [((2, 1), 3), ((3, 1), 2), ((2, 2), 3)])
def test_htilde_symmetric(lam, n):
    p = htilde_plain(lam, n)
    for i in range(1, n):
        assert p.swap_x(i, i + 1) == p


@pytest.mark.parametrize("lam,n", [((2, 1), 2), ((3, 1), 3), ((2, 2), 2)])
def test_htilde_specializes_to_power_sum(lam, n):
    p = htilde_plain(lam, n).specialize(q=1, t=1)
    e1 = MPoly.zero(n)
    for i in range(1, n + 1):
        e1 = e1 + MPoly.monomial(n, x=tuple(1 if j == i - 1 else 0 for j in range(n)))
    assert p == e1 ** sum(lam)


def test_compactness_term_count():
    # 32 packed sorted tableaux versus 3^4 = 81 fillings in the plain sum
    shape = diagram([2, 1, 1])
    packed = [f for f in sorted_tableaux(shape, 3) if is_packed(f)]
    assert len(packed) == 32 < 81


def test_multiplicity_cache_across_ambients_and_blocks():
    # the cache is keyed by run signature only: a value that kept the ambient
    # n, or confused the runs of different height blocks, breaks one of these
    for lam, n in [((2, 2), 2), ((2, 2), 3), ((2, 2), 2), ((2, 2, 1, 1), 3)]:
        assert htilde_compact(lam, n) == htilde_plain(lam, n), (lam, n)


def test_compact_rejects_unsorted_enumeration(monkeypatch):
    # the compact route trusts its enumerator; the identity battery catches
    # an enumerator that yields an unsorted tableau
    import macpoly.modified as modified
    from macpoly.verify import check_htilde_equivalence

    def unsorted(shape, n, plan):
        # every filling, unsorted ones such as columns (2), (1) included, in the
        # enumerator's item form
        for f in enumerate_fillings(shape, n, basement=INF_BASEMENT):
            x = plan.content(f.flat)
            yield (None, None, None) if x is None else (f.flat, x, _block_runs(shape, f.flat))

    monkeypatch.setattr(modified, "iter_sorted_tableaux", unsorted)
    result = check_htilde_equivalence(max_size=2, max_n=2)
    assert not result.passed and "lam=(2,), n=2" in result.detail


@pytest.mark.parametrize(
    "lam,n,walked,swapped",
    [
        ((2, 2, 2, 2), 4, 3876, True),
        ((4, 4), 4, 3876, False),
        ((3, 3), 4, 816, False),
        ((2, 2, 2), 4, 816, True),
        # a tie (a self-conjugate shape) stays on the conjugate side
        ((3, 2, 1), 4, 4096, False),
        # over the values 1..3 only: a dominant content of 3 entries uses no more
        ((2, 1), 20, 27, False),
        ((2, 1), 3, 27, False),
    ],
)
def test_compact_walks_the_side_with_fewer_tableaux(monkeypatch, lam, n, walked, swapped):
    walks = []
    enumerate_sorted = modified.iter_sorted_tableaux

    def counted(shape, n, plan):
        walks.append([shape.heights, 0])
        for item in enumerate_sorted(shape, n, plan):
            walks[-1][1] += 1
            yield item

    monkeypatch.setattr(modified, "iter_sorted_tableaux", counted)
    result = htilde_compact(lam, n)
    side = lam if swapped else conjugate(lam)
    assert walks == [[side, walked]]
    assert compact_side(lam, n) == (diagram(side), swapped)
    assert result == htilde_plain(lam, n)


def test_compact_builds_a_filling_only_for_the_tableaux_it_weighs(monkeypatch):
    # (3, 3) at n = 4 walks 816 sorted tableaux and weighs the 101 of dominant content
    yielded, built = [], Counter()
    enumerate_sorted, check = modified.iter_sorted_tableaux, Filling.__post_init__

    def counted(*args):
        for item in enumerate_sorted(*args):
            yielded.append(item)
            yield item

    def counted_check(self):
        built[self.flat] += 1
        check(self)

    monkeypatch.setattr(modified, "iter_sorted_tableaux", counted)
    monkeypatch.setattr(Filling, "__post_init__", counted_check)
    result = htilde_compact((3, 3), 4)
    monkeypatch.undo()
    # the dominant sorted tableaux of the conjugate (2, 2, 2), filtered from all 4^6 fillings
    every = enumerate_fillings(diagram((2, 2, 2)), 4, predicate=is_sorted_tableau, basement=INF_BASEMENT)
    dominant = [f.flat for f in every if SYMMETRIC.is_rep(tuple(map(f.flat.count, range(1, 5))))]
    kept = [e for e, x, _ in yielded if x is not None]
    assert len(yielded) == 816 and len(kept) == len(dominant) == 101
    assert built == Counter(dominant)
    assert result == htilde_plain((3, 3), 4)


def test_plain_words_walk_only_the_values_of_dominant_contents():
    # a dominant content of 3 entries uses no value above 3: (3), (2, 1) and (1, 1, 1)
    # give 1 + 3 + 6 words at any n >= 3
    shape = diagram((2, 1))
    assert sum(_word_counts(shape, 60).values()) == sum(_word_counts(shape, 3).values()) == 10
    # the words walk lists a column only if its own content fits such a content:
    # 3 of height 1 and 7 of height 2 ((2, 2) and (3, 3) do not fit 3 entries),
    # given the values 1..60 as given 1..3, not 60 and 3,600
    for n in (3, 60):
        plan, counts = content_plan(SYMMETRIC, n, 3), {}
        kernels.walk(shape, "words")(n, plan, counts)
        assert [kernels._columns(h, n, plan)[3] for h in (1, 2)] == [3, 7]
        assert counts == _word_counts(shape, n)


def test_words_walk_builds_a_tall_column_alphabet_cell_by_cell():
    # one column of 8 cells at n = 8 lists its words of dominant content, the
    # sum over the 22 partitions mu of 8 of 8! / prod(mu_i!) = 95,503, built cell
    # by cell, never as the 8^8 = 16,777,216 columns over 1..8; they have inv 0,
    # and their total maj and the expanded value's terms are pinned
    counts = _word_counts(diagram((8,)), 8)
    assert kernels._columns(8, 8, content_plan(SYMMETRIC, 8, 8))[3] == 95_503
    assert sum(counts.values()) == 95_503 and len(counts) == 447
    assert sum(q * c for (_, q, _), c in counts.items()) == 0
    assert sum(t * c for (_, _, t), c in counts.items()) == 1_262_912
    value = htilde_plain((8,), 8)
    assert len(value.terms) == 146_575 and sum(value.terms.values()) == 8 ** 8


def test_compact_degenerate_inputs():
    # the empty shape is the constant 1 in any ambient; no entries, no tableaux
    assert htilde_compact((), 0) == MPoly.one(0)
    assert htilde_compact((), 1) == MPoly.one(1)
    assert htilde_compact((2, 1), 0) == MPoly.zero(0)
    assert compact_side((), 0) == (diagram(()), False)
