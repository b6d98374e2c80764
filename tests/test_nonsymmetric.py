"""Permuted-basement E / F values and their integral forms."""

import hashlib
import json
import random
from itertools import product

import pytest

from macpoly.nonsymmetric import (
    EResult,
    e_permuted_basement,
    f_poly,
    filling_weight,
    iter_basement_fillings,
)
from macpoly.integral import (
    compositions_rearranging,
    hook_product_inc,
    integral_e,
    j_weight_poly,
    p_poly,
    pochhammer_prefactor,
)
from macpoly.polyring import (
    MPoly,
    NonPolynomialError,
    QtFactor,
    QtRational,
    distinct_permutations,
    divide_binomials,
    expand_orbits,
    has_prefix_support,
    is_dominant,
    one_minus_qt,
    placements,
    pochhammer_tt,
    poly_sum,
)
from macpoly.quasisym import compositions_with_support, g_poly
from macpoly.shapes import (
    INF_BASEMENT,
    Filling,
    arm_composition,
    coinv_comp,
    composition_stats,
    diagram,
    enumerate_fillings,
    is_nonattacking,
    leg,
    maj,
)
from macpoly.verify import partitions_up_to


def qt_one_minus_t():
    return MPoly.one(0) - MPoly.monomial(0, t=1)


@pytest.mark.parametrize("i, j", [(1, 2), (1, 3), (2, 3), (3, 1), (2, 2)])
def test_swap_x_moves_coefficients_and_twice_gives_back_the_input(i, j):
    f = f_poly((0, 2, 1))
    assert f.swap_x(i, j).specialize(q=2, t=3) == f.specialize(q=2, t=3).swap_x(i, j)
    assert f.swap_x(i, j).swap_x(i, j) == f


@pytest.mark.parametrize("q, t", [(0, None), (None, 1), (None, None)])
def test_specialize_needs_both_q_and_t(q, t):
    # a partial substitution would leave QtRational coefficients in an MPoly
    given = {name: v for name, v in (("q", q), ("t", t)) if v is not None}
    with pytest.raises(ValueError):
        f_poly((2, 0)).specialize(**given)


def test_empty_composition_is_one():
    e = e_permuted_basement((0, 0, 0))
    assert e.coeffs == {(0, 0, 0): QtRational.one()}


def test_single_box_compositions():
    assert e_permuted_basement((1, 0)).coeffs == {(1, 0): QtRational.one()}
    assert e_permuted_basement((0, 1)).coeffs == {(0, 1): QtRational.one()}


def test_forced_filling_two_boxes():
    assert e_permuted_basement((1, 1)).coeffs == {(1, 1): QtRational.one()}


def test_single_column_of_two():
    # hand enumeration: inc (0,2), two fillings
    e = e_permuted_basement((2, 0))
    expected = EResult(2)
    expected.add_term((2, 0), QtRational.one())
    expected.add_term(
        (1, 1),
        QtRational(MPoly.monomial(0, q=1) * qt_one_minus_t(), [QtFactor(1, 1)]),
    )
    assert e == expected
    e2 = e_permuted_basement((0, 2))
    expected2 = EResult(2)
    expected2.add_term((0, 2), QtRational.one())
    expected2.add_term((1, 1), QtRational(qt_one_minus_t(), [QtFactor(1, 1)]))
    assert e2 == expected2


def test_row_one_matches_basement_brute_force():
    alphas = [(1, 0), (0, 1), (2, 0), (1, 2), (0, 2, 1), (1, 1, 2), (0, 2, 1, 0, 2), (3, 0, 1, 1, 0)]
    for alpha in alphas:
        stats = composition_stats(alpha)
        fast = [f.flat for f in iter_basement_fillings(alpha)]
        # the brute-force listing varies the first cell fastest; sorting the
        # flat tuples puts it in the enumerator's order, last cell fastest
        brute = sorted(
            f.flat
            for f in enumerate_fillings(
                diagram(stats.inc),
                len(alpha),
                predicate=is_nonattacking,
                basement=stats.beta,
            )
        )
        assert fast == brute
        for f in iter_basement_fillings(alpha):
            for (col, row), value in f.entries.items():
                if row == 1:
                    assert value == stats.beta[col - 1]


def test_x_degree_is_composition_size():
    for alpha in [(1, 2, 0), (2, 2), (0, 3, 1)]:
        e = e_permuted_basement(alpha)
        assert {sum(exps) for exps in e.coeffs} == {sum(alpha)}


def test_denominators_are_weight_shaped():
    e = e_permuted_basement((0, 2, 1))
    seen = set()
    for value in e.coeffs.values():
        seen.update(value.den)
    assert all(f.a >= 1 and f.b >= 1 for f in seen)


def test_accumulation_order_independent():
    alphas = [(1, 2, 0), (0, 1, 2), (2, 1, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2)]
    totals = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        shuffled = alphas[:]
        rng.shuffle(shuffled)
        total = EResult(3)
        for alpha in shuffled:
            total = total + f_poly(alpha)
        totals.append(total)
    assert totals[0] == totals[1] == totals[2]


def test_f_poly_is_alias():
    assert f_poly((0, 2)) == e_permuted_basement((0, 2))


def test_integral_e_all_ones():
    # one ordered filling: x_1..x_n times (t;t)_n
    for n in (2, 3, 4):
        alpha = (1,) * n
        value = integral_e(alpha)
        assert value == MPoly.monomial(n, x=(1,) * n) * pochhammer_tt(n).extended(n)


def test_integral_e_zero_composition():
    assert integral_e((0, 0)) == MPoly.one(2)


@pytest.mark.parametrize(
    "alpha",
    [(1, 0), (2, 0), (0, 2), (1, 2), (2, 1), (1, 1, 0), (0, 2, 1), (2, 0, 2), (1, 3)],
)
def test_integral_e_routes_agree(alpha):
    assert integral_e(alpha) == e_permuted_basement(alpha).cleared_by(hook_product_inc(alpha))


def test_battery_catches_integral_e_disagreement(monkeypatch):
    import macpoly.verify as verify

    monkeypatch.setattr(verify, "integral_e", lambda alpha: MPoly.zero(len(alpha)))
    result = verify.check_integrality(max_size=1, max_n=1)
    assert not result.passed and "alpha=(1,)" in result.detail


@pytest.mark.parametrize("alpha", [(2, 1), (0, 2, 1), (2, 2)])
def test_integral_e_divisible_by_prefactor(alpha):
    from macpoly.integral import pochhammer_prefactor
    from macpoly.polyring import divmod_poly

    stats = composition_stats(alpha)
    n = len(alpha)
    value = integral_e(alpha)
    assert divmod_poly(value, pochhammer_prefactor(stats.mult).extended(n))[1].is_zero()


def test_filling_weight_trivial_cell():
    # a one-cell filling pinned to its basement weighs exactly 1
    f = next(iter_basement_fillings((1,)))
    assert filling_weight(f) == QtRational.one()


def entry_below(f, cell):
    """The entry under ``cell``: the cell below, in row 1 the basement's, or
    None in row 1 without a basement."""
    if cell.row > 1:
        return f[cell.col, cell.row - 1]
    if f.basement == INF_BASEMENT:
        return float("inf")
    return None if f.basement is None else f.basement[cell.col - 1]


def cell_by_cell_weight(f):
    """The weight rebuilt cell by cell from leg, arm and the entry below."""
    num = MPoly.monomial(0, q=maj(f), t=coinv_comp(f))
    den = []
    for cell in f.shape.cells:
        below = entry_below(f, cell)
        if below is None or f[cell] == below:
            continue
        num = num * qt_one_minus_t()
        den.append(QtFactor(leg(f.shape.heights, cell) + 1, arm_composition(f.shape.heights, cell) + 1))
    return QtRational(num, den)


def random_fillings(seed):
    """Ten seeded fillings, attacking ones included, of a random composition
    shape, each under no basement, "inf", and a permutation that its row 1
    differs from in at least one cell."""
    rng = random.Random(seed)
    heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    heights.insert(rng.randint(0, len(heights)), rng.randint(1, 3))
    shape, n = diagram(heights), rng.randint(2, 4)
    perm = tuple(rng.sample(range(1, len(heights) + 1), len(heights)))
    for _ in range(10):
        flat = [rng.randint(1, n) for _ in shape.cells]
        i, col, _ = rng.choice(shape.bottom)
        flat[i] = 1 if perm[col] != 1 else 2
        for basement in (None, INF_BASEMENT, perm):
            yield Filling(shape, tuple(flat), basement)


@pytest.mark.parametrize(
    "fillings",
    [
        lambda: iter_basement_fillings((0, 2, 1, 0, 2)),
        lambda: iter_basement_fillings((3, 0, 1, 1)),
        lambda: enumerate_fillings(diagram((1, 2)), 2, basement=INF_BASEMENT),
        lambda: enumerate_fillings(diagram((2, 1)), 2),
        *(
            pytest.param(lambda seed=seed: random_fillings(seed), id=f"random{seed}")
            for seed in range(12)
        ),
    ],
)
def test_filling_weight_matches_cell_by_cell_form(fillings):
    # same numerator and denominator, not merely an equal value
    for f in fillings():
        fast, slow = filling_weight(f), cell_by_cell_weight(f)
        assert (fast.num, fast.den) == (slow.num, slow.den), (f.flat, f.basement)


# The reduced form of a sum depends on how its terms were added and reduced,
# and the JSON output prints that form.  Summing every numerator over the full
# hook product and reducing once gives equal values but prints the first three
# differently.
PINNED_FORMS = [
    pytest.param(
        lambda: p_poly((3, 2), 4),
        "a001f126f40b60e11dac8c48292dc77b4508de9402b137cfa04b0b31cf184cc3",
        id="p(3,2)/4",
    ),
    pytest.param(
        lambda: g_poly((2, 3), 4),
        "55677b9fd0ccb8da336c645e19f2b0e37082f507c655ed08a1f9c3b152d4fed6",
        id="g(2,3)/4",
    ),
    pytest.param(
        lambda: g_poly((3, 2), 4),
        "ee930c3fb49984e3549a66e4888804f0b5b6127947dd6082a8bb7ed8bb603f2a",
        id="g(3,2)/4",
    ),
    pytest.param(
        lambda: f_poly((0, 2, 2, 0, 2)),
        "02bfcdcdc9932a5f48f77c6eecd65ae26d02d274c1b146e1944d4c3d6014e512",
        id="f(0,2,2,0,2)",
    ),
]


@pytest.mark.parametrize("compute, expected", PINNED_FORMS)
def test_printed_form_is_pinned(compute, expected):
    text = json.dumps(compute().to_json_obj(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# -- printed-form oracle ----------------------------------------------------------


def weak_compositions(max_size, max_len):
    return [
        alpha
        for length in range(1, max_len + 1)
        for alpha in product(range(max_size + 1), repeat=length)
        if sum(alpha) <= max_size
    ]


SMALL_ALPHAS = weak_compositions(4, 4)
E_ANCHORS = [(0, 0, 4, 2, 0), (0, 3, 0, 3, 0), (3, 0, 2, 0, 1), (0, 2, 2, 0, 2)]


def filling_order_sum(alpha, keep=lambda exps: True):
    """The E sum filling by filling: a Filling per basement filling and its
    weight added in enumeration order, with no weight shared between fillings."""
    n = len(alpha)
    out = EResult(n)
    for f in iter_basement_fillings(alpha):
        exps = f.x_exponents(n)
        if keep(exps):
            out.add_term(exps, filling_weight(f))
    return out


def printed(value):
    return json.dumps(value.to_json_obj(), sort_keys=True, separators=(",", ":"))


def test_integral_e_matches_the_filling_by_filling_j_sum():
    differ = []
    for alpha in SMALL_ALPHAS:
        n = len(alpha)
        expected = pochhammer_prefactor(composition_stats(alpha).mult).extended(n) * poly_sum(
            n, (j_weight_poly(f, n) for f in iter_basement_fillings(alpha))
        )
        if integral_e(alpha) != expected:
            differ.append(alpha)
    assert differ == []


def test_filling_weight_is_already_reduced():
    # built without reducing, yet in the form the reducing constructor gives
    for alpha in SMALL_ALPHAS:
        for f in iter_basement_fillings(alpha):
            fast, reduced = filling_weight(f), cell_by_cell_weight(f)
            assert (fast.num, fast.den) == (reduced.num, reduced.den), f.flat


def test_e_prints_as_the_filling_order_sum():
    # shared weights must leave every coefficient's additions, and so its
    # reduced form, as they are when each filling is weighed on its own
    differ = [
        alpha
        for alpha in SMALL_ALPHAS + E_ANCHORS
        if printed(e_permuted_basement(alpha)) != printed(filling_order_sum(alpha))
    ]
    assert differ == []


@pytest.mark.parametrize("lam, n", [((2, 1), 3), ((2, 2), 3)])
def test_p_and_g_print_as_the_filling_order_sum(lam, n):
    total = EResult(n)
    for alpha in compositions_rearranging(lam, n):
        total += filling_order_sum(alpha, is_dominant)
    expected = EResult(n, expand_orbits(total.coeffs, distinct_permutations))
    assert printed(p_poly(lam, n)) == printed(expected)

    total = EResult(n)
    for alpha in compositions_with_support(lam, n):
        total += filling_order_sum(alpha, has_prefix_support)
    expected = EResult(n, expand_orbits(total.coeffs, placements))
    assert printed(g_poly(lam, n)) == printed(expected)


def test_p_prints_as_the_sum_of_f_over_its_rearrangements():
    # a coefficient's printed form is a function of its value, so the orbit
    # sum of P prints as the plain sum of F over every rearrangement of lam
    differ = []
    for lam in partitions_up_to(5):
        for n in range(len(lam), 5):
            total = EResult(n)
            for alpha in compositions_rearranging(lam, n):
                total += f_poly(alpha)
            if printed(p_poly(lam, n)) != printed(total):
                differ.append((lam, n))
    assert differ == []


# -- clearing denominators ----------------------------------------------------------


def cleared_one_by_one(e, multiplier):
    """Each coefficient times the multiplier, reduced, then summed."""
    return poly_sum(
        e.n,
        (
            (value * multiplier).to_polynomial().extended(e.n).mul_monomial(x=exps)
            for exps, value in e.coeffs.items()
        ),
    )


def test_cleared_by_matches_clearing_each_coefficient():
    differ = []
    for alpha in SMALL_ALPHAS:
        e, multiplier = e_permuted_basement(alpha), hook_product_inc(alpha)
        if e.cleared_by(multiplier) != cleared_one_by_one(e, multiplier):
            differ.append(alpha)
    assert differ == []


def test_cleared_by_falls_back_when_the_numerator_supplies_a_factor():
    # 1 - q^2 t^2 does not divide 1 + qt, but (1 - qt)(1 + qt) is 1 - q^2 t^2
    value = QtRational(one_minus_qt(1, 1), [QtFactor(2, 2)])
    assert (value.num, value.den) == (one_minus_qt(1, 1), (QtFactor(2, 2),))
    multiplier = MPoly.one(0) + MPoly.monomial(0, q=1, t=1)
    with pytest.raises(NonPolynomialError):
        divide_binomials(multiplier, value.den)
    e = EResult(1, {(2,): value})
    assert e.cleared_by(multiplier) == MPoly.monomial(1, x=(2,))


def test_cleared_by_raises_on_a_surviving_denominator():
    e = EResult(1, {(1,): QtRational(MPoly.one(0), [QtFactor(1, 1)])})
    with pytest.raises(NonPolynomialError):
        e.cleared_by(one_minus_qt(0, 1))
