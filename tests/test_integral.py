"""PR products, the two J routes, and the P assembly."""

import random
from fractions import Fraction

import pytest

from macpoly import integral
from macpoly.integral import (
    JResult,
    _j_factor_terms,
    compositions_rearranging,
    j_compact,
    j_keys,
    j_plain,
    j_weight_poly,
    p_poly,
    pochhammer_prefactor,
    hook_product,
    hook_product_inc,
)
from macpoly.nonsymmetric import EResult, iter_basement_fillings
from macpoly.polyring import (
    MPoly,
    NonPolynomialError,
    QtFactor,
    QtRational,
    divmod_poly,
    one_minus_qt,
    is_dominant,
    pochhammer_tt,
    tally,
)
from macpoly.shapes import (
    Filling,
    ShapeError,
    arm_composition,
    coinv_comp,
    composition_stats,
    diagram,
    enumerate_fillings,
    is_nonattacking,
    is_ordered,
    iter_nonattacking,
    leg,
    maj,
)
from macpoly.verify import hook_product_by_columns, partitions_up_to, weak_compositions_up_to


def x_mono(n, exps, **kw):
    return MPoly.monomial(n, x=exps, **kw)


# -- PR products -------------------------------------------------------------


def test_hook_product_single_cell():
    assert hook_product((1,)) == one_minus_qt(0, 1)


def test_hook_product_two_cell_shapes():
    # a single column of two cells: (1-t)(1-t^2); a row of two: (1-t)(1-qt)
    assert hook_product((2,)) == one_minus_qt(0, 1) * one_minus_qt(1, 1)
    assert hook_product((1, 1)) == one_minus_qt(0, 1) * one_minus_qt(0, 2)


def test_hook_product_column_of_n_is_pochhammer():
    for n in range(1, 6):
        assert hook_product((1,) * n) == pochhammer_tt(n)


def test_hook_product_forms_agree():
    for mu in partitions_up_to(8):
        assert hook_product(mu) == hook_product_by_columns(mu), mu


@pytest.mark.parametrize(
    "mu",
    [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1)],
)
def test_hook_products_agree_on_inc(mu):
    assert hook_product(mu) == hook_product_inc(composition_stats(mu).inc)


def test_hook_product_inc_row_shapes():
    assert hook_product_inc((1, 1, 1)) == pochhammer_tt(3)
    assert hook_product_inc((0, 0, 0)) == MPoly.one(0)


def test_hook_product_inc_with_cell_above():
    # inc (1,2): prefactor (1-t)^2, one above-row cell with leg 0, arm 1
    assert hook_product_inc((2, 1)) == one_minus_qt(0, 1) ** 2 * one_minus_qt(1, 2)


# -- J by both routes -----------------------------------------------------------


def test_j_plain_single_cell():
    assert j_plain((1,), 1) == one_minus_qt(0, 1).extended(1) * x_mono(1, (1,))


def test_j_compact_single_cell_two_vars():
    value = j_compact((1,), 2).value
    assert value == one_minus_qt(0, 1).extended(2) * (x_mono(2, (1, 0)) + x_mono(2, (0, 1)))


def test_j_ones_closed_form():
    # one ordered filling; the value is x_1..x_n times (1-t)(1-t^2)...(1-t^n)
    for n in range(1, 6):
        mu = (1,) * n
        shape = diagram(composition_stats(mu).inc)
        ordered = [
            f
            for f in enumerate_fillings(shape, n, predicate=is_nonattacking)
            if is_ordered(f)
        ]
        assert len(ordered) == 1
        assert ordered[0].flat == tuple(range(n, 0, -1))
        expected = x_mono(n, (1,) * n) * pochhammer_tt(n).extended(n)
        assert j_compact(mu, n).value == expected
        assert j_plain(mu, n) == expected


def test_j_single_column_two_cells():
    # hand-derived: (1-t)(1-qt)(x1^2+x2^2) + (1+q)(1-t)^2 x1x2
    n = 2
    repeat = (one_minus_qt(0, 1) * one_minus_qt(1, 1)).extended(n)
    differ = ((MPoly.one(0) + MPoly.monomial(0, q=1)) * one_minus_qt(0, 1) ** 2).extended(n)
    expected = repeat * (x_mono(n, (2, 0)) + x_mono(n, (0, 2))) + differ * x_mono(n, (1, 1))
    assert j_plain((2,), n) == expected
    assert j_compact((2,), n).value == expected


@pytest.mark.parametrize(
    "mu,n",
    [((2, 1), 2), ((2, 1), 3), ((2, 2), 2), ((3,), 2), ((2, 1, 1), 3), ((3, 1), 3)],
)
def test_j_compact_equals_j_plain(mu, n):
    assert j_compact(mu, n).value == j_plain(mu, n)


@pytest.mark.parametrize("mu,n", [((2, 1), 2), ((2, 2), 2), ((3, 1), 2), ((2, 1, 1), 3)])
def test_j_plain_divisible_by_pochhammer_prefactor(mu, n):
    stats = composition_stats(mu)
    quotient, rem = divmod_poly(j_plain(mu, n), pochhammer_prefactor(stats.mult).extended(n))
    assert rem.is_zero()
    assert all(isinstance(c, int) for c in quotient.terms.values())


def test_j_result_quotient():
    res = j_compact((2, 1), 2)
    assert res.quotient() * pochhammer_prefactor(res.mult_prefactor).extended(2) == res.value
    quotient, rem = divmod_poly(res.value, pochhammer_prefactor(res.mult_prefactor).extended(2))
    assert res.quotient() == quotient and rem.is_zero()


def test_j_result_quotient_of_whole_numbers_held_as_fractions():
    value = MPoly.const(1, Fraction(1, 2)) * (one_minus_qt(0, 1).extended(1) * 2)
    assert value == one_minus_qt(0, 1).extended(1)
    assert JResult(value, {1: 1}).quotient() == MPoly.one(1)


def test_j_result_quotient_refuses_a_non_multiple():
    value = one_minus_qt(0, 1).extended(1) * MPoly.monomial(1, x=(1,))
    with pytest.raises(NonPolynomialError):
        JResult(value, {1: 2}).quotient()


def test_j_with_no_variables():
    assert j_plain((2, 1), 0).is_zero()
    assert j_compact((2, 1), 0).value.is_zero()
    assert j_plain((), 0) == j_compact((), 0).value == MPoly.one(0)


# -- the orbit reduction of the J routes against expanding every key ----------


def plain_fillings(mu, n):
    return enumerate_fillings(diagram(mu), n, predicate=is_nonattacking)


def ordered_fillings(inc, n):
    return (Filling(diagram(inc), e) for e in iter_nonattacking(inc, n, ordered=True))


def j_every_key(heights, n, fillings, pochhammer):
    """The J weight sum with every (x, maj, coinv, mask) key expanded over
    all of x: no orbit reduction."""
    pochhammer = tuple(sorted(pochhammer))
    counts = j_keys(heights, n, fillings)
    return tally(n, counts, lambda mask: _j_factor_terms(tuple(heights), mask, pochhammer))


@pytest.mark.parametrize("n", range(5))
def test_j_routes_match_expanding_every_key(n):
    for mu in ((),) + tuple(partitions_up_to(5)):
        expected = j_every_key(mu, n, plain_fillings(mu, n), (1,) * len(mu))
        assert j_plain(mu, n).to_json() == expected.to_json(), (mu, n)
        inc, _, mult = composition_stats(mu)
        expected = j_every_key(inc, n, ordered_fillings(inc, n), tuple(mult.values()))
        assert j_compact(mu, n).value.to_json() == expected.to_json(), (mu, n)


@pytest.mark.parametrize("mu", [(2, 2, 1), (3, 2, 1), (3, 3)])
def test_j_routes_tally_only_the_keys_of_dominant_x(monkeypatch, mu):
    # every orbit's terms are equal, so the output alone cannot tell how many keys were expanded
    tallied = []

    def spy(n, counts, weigh, orbit=None):
        tallied.append([x for x, *_ in counts if orbit is None or orbit.is_rep(x)])
        return tally(n, counts, weigh, orbit)

    monkeypatch.setattr(integral, "tally", spy)
    j_plain(mu, 4)
    j_compact(mu, 4)
    plain = j_keys(mu, 4, plain_fillings(mu, 4))
    inc = composition_stats(mu).inc
    ordered = j_keys(inc, 4, ordered_fillings(inc, 4))
    assert tallied == [
        [x for x, *_ in keys if is_dominant(x)] for keys in (plain, ordered)
    ]


# -- the compiled J weights against the cell-by-cell form ------------------------


def j_weight_by_cells(f, n):
    """The J weight of one filling, multiplied out cell by cell."""
    shape = f.shape
    out = MPoly.monomial(n, x=f.x_exponents(n), q=maj(f), t=coinv_comp(f))
    for cell in shape.cells:
        if cell.row < 2:
            continue
        if f[cell] == f[(cell.col, cell.row - 1)]:
            out = out * one_minus_qt(
                leg(shape.heights, cell) + 1, arm_composition(shape.heights, cell) + 1
            ).extended(n)
        else:
            out = out * one_minus_qt(0, 1).extended(n)
    return out


def random_nonattacking(rng, heights, n, count):
    """Up to ``count`` random nonattacking fillings, no basement."""
    shape = diagram(heights)
    out = []
    for _ in range(50 * count):
        entries = {cell: rng.randint(1, n) for cell in shape.cells}
        f = Filling.from_entries(shape, entries)
        if is_nonattacking(f):
            out.append(f)
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("seed", range(8))
def test_compiled_weights_match_cell_by_cell_without_basement(seed):
    rng = random.Random(seed)
    heights = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
    n = rng.randint(1, 4)
    fillings = random_nonattacking(rng, heights, n, 12)
    for f in fillings:
        assert j_weight_poly(f, n) == j_weight_by_cells(f, n)
    ms = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))
    prefactor = MPoly.one(0)
    for m in ms:
        prefactor = prefactor * pochhammer_tt(m)
    expected = prefactor.extended(n) * sum((j_weight_by_cells(f, n) for f in fillings), MPoly.zero(n))
    assert prefactor.extended(n) * sum((j_weight_poly(f, n) for f in fillings), MPoly.zero(n)) == expected


@pytest.mark.parametrize("seed", range(8))
def test_compiled_weights_match_cell_by_cell_with_basement(seed):
    rng = random.Random(100 + seed)
    alpha = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
    n = len(alpha)
    fillings = list(iter_basement_fillings(alpha))
    for f in rng.sample(fillings, min(12, len(fillings))):
        assert j_weight_poly(f, n) == j_weight_by_cells(f, n)
    prefactor = pochhammer_prefactor(composition_stats(alpha).mult).extended(n)
    expected = prefactor * sum((j_weight_by_cells(f, n) for f in fillings), MPoly.zero(n))
    assert prefactor * sum((j_weight_poly(f, n) for f in fillings), MPoly.zero(n)) == expected


def test_j_weight_poly_rejects_entries_outside_the_alphabet():
    f = Filling.from_entries(diagram((1,)), {(1, 1): 3})
    with pytest.raises(ValueError):
        j_weight_poly(f, 2)


# -- the pruned enumerator ---------------------------------------------------------


@pytest.mark.parametrize("heights", [(1, 1, 2, 3), (2, 2, 2), (2, 4), (0, 2, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pruned_enumerator_matches_filtering(heights, n):
    shape = diagram(heights)
    nonattacking = [f for f in enumerate_fillings(shape, n, predicate=is_nonattacking)]
    expected = sorted(f.flat for f in nonattacking)
    assert list(iter_nonattacking(heights, n)) == expected
    ordered = sorted(f.flat for f in nonattacking if is_ordered(f))
    assert list(iter_nonattacking(heights, n, ordered=True)) == ordered


def test_basement_fillings_are_ordered_on_the_integral_window():
    # weak compositions of length 5 with 4 <= |alpha| <= 6
    for alpha in weak_compositions_up_to(6, 5):
        if sum(alpha) >= 4:
            assert all(is_ordered(f) for f in iter_basement_fillings(alpha)), alpha


# -- P assembly --------------------------------------------------------------------


def test_compositions_rearranging():
    assert compositions_rearranging((1,), 2) == [(0, 1), (1, 0)]
    assert compositions_rearranging((2, 1), 3) == [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]
    # zero parts are dropped before padding, and too few slots hold no composition
    assert compositions_rearranging((1, 0, 0), 2) == [(0, 1), (1, 0)]
    assert compositions_rearranging((1, 1, 1), 2) == []


def test_p_single_cell():
    expected = EResult(2)
    expected.add_term((1, 0), QtRational.one())
    expected.add_term((0, 1), QtRational.one())
    assert p_poly((1,), 2) == expected


def test_p_column():
    expected = EResult(2)
    expected.add_term((1, 1), QtRational.one())
    assert p_poly((1, 1), 2) == expected


def test_p_row_two_vars():
    # hand-derived: m_2 + (1+q)(1-t)/(1-qt) m_11
    expected = EResult(2)
    expected.add_term((2, 0), QtRational.one())
    expected.add_term((0, 2), QtRational.one())
    expected.add_term(
        (1, 1),
        QtRational(
            (MPoly.one(0) + MPoly.monomial(0, q=1)) * one_minus_qt(0, 1),
            [QtFactor(1, 1)],
        ),
    )
    assert p_poly((2,), 2) == expected


def test_p_triangular_two_vars():
    # nothing below (2,1) survives in two variables: exactly the monomials
    expected = EResult(2)
    expected.add_term((2, 1), QtRational.one())
    expected.add_term((1, 2), QtRational.one())
    assert p_poly((2, 1), 2) == expected


@pytest.mark.parametrize("lam,n", [((2,), 2), ((2, 1), 2), ((2, 1), 3), ((1, 1), 3)])
def test_p_symmetric(lam, n):
    p = p_poly(lam, n)
    for i in range(1, n):
        assert p.swap_x(i, i + 1) == p


@pytest.mark.parametrize("lam,n", [((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 2), ((2, 1), 3)])
def test_j_equals_p_times_hook_product(lam, n):
    lhs = p_poly(lam, n).cleared_by(hook_product(lam))
    assert lhs == j_compact(lam, n).value


def test_p_is_finite_where_its_reduced_value_is():
    # P_(3,3) in 3 variables is finite at q = 1, t = -1; each canonical
    # coefficient evaluates there to the value of its fully cancelled fraction
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")
    p = p_poly((3, 3), 3)
    for exps, value in p.coeffs.items():
        num = sum(c * q**m.q * t**m.t for m, c in value.num.terms.items())
        den = sympy.Mul(*(1 - q**f.a * t**f.b for f in value.den))
        expected = sympy.cancel(num / den).subs({q: 1, t: -1})
        got = Fraction(value.specialize(q=1, t=-1))
        assert sympy.Rational(got.numerator, got.denominator) == expected, exps


def test_p_is_zero_with_more_parts_than_variables():
    assert p_poly((1, 1, 1), 2) == EResult(2)
    assert p_poly((2, 1), 1).is_zero()
    with pytest.raises(ShapeError):
        p_poly((1, 2), 2)
