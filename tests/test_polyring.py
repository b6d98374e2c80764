"""Arithmetic-layer unit and property tests."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macpoly.integral import j_compact, j_plain
from macpoly.modified import htilde_compact, htilde_plain
from macpoly.polyring import (
    DimensionError,
    EvaluationError,
    Monomial,
    MPoly,
    NonPolynomialError,
    QUASISYMMETRIC,
    SYMMETRIC,
    QtFactor,
    QtRational,
    divide_binomial,
    divide_binomials,
    divide_chains,
    divmod_poly,
    expand_orbits,
    gaussian_binomial,
    one_minus_qt,
    pochhammer_factors,
    pochhammer_tt,
    poly_sum,
    t_multinomial,
    tally,
    times_binomials,
    unit_weight,
)
from macpoly.cyclotomic import _times
from macpoly.nonsymmetric import EResult
from macpoly.shapes import composition_stats, conjugate, diagram
from macpoly.verify import partitions_up_to


def x(n, i):
    return MPoly.monomial(n, x=tuple(1 if j == i - 1 else 0 for j in range(n)))


def qpoly(n=0):
    return MPoly.monomial(n, q=1)


def tpoly(n=0):
    return MPoly.monomial(n, t=1)


def exact_div(p, d):
    """Oracle divider: p / d by :func:`divmod_poly`, raising on a remainder."""
    quo, rem = divmod_poly(p, d)
    if not rem.is_zero():
        raise NonPolynomialError(f"{d} does not divide {p}")
    return quo


# -- add / mul examples ---------------------------------------------------


def test_add_additive_inverse():
    p = x(1, 1)
    assert (p + (-p)).is_zero()


def test_add_disjoint_supports():
    p = MPoly.one(0) + qpoly()
    r = tpoly()
    total = p + r
    assert total == MPoly(0, {
        Monomial((), 0, 0): 1,
        Monomial((), 1, 0): 1,
        Monomial((), 0, 1): 1,
    })


def test_add_coefficient_doubling():
    p = MPoly.monomial(1, x=(1,), q=1)
    assert p + p == MPoly.monomial(1, x=(1,), q=1, coeff=2)


def test_mul_difference_of_squares():
    assert (MPoly.one(0) - tpoly()) * (MPoly.one(0) + tpoly()) == MPoly.one(0) - MPoly.monomial(0, t=2)


def test_mul_by_zero():
    p = x(2, 1) + qpoly(2) * tpoly(2)
    assert (p * MPoly.zero(2)).is_zero()


def test_square_binomial():
    p = x(2, 1) + x(2, 2)
    expected = (
        MPoly.monomial(2, x=(2, 0))
        + MPoly.monomial(2, x=(1, 1), coeff=2)
        + MPoly.monomial(2, x=(0, 2))
    )
    assert p * p == expected


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        x(1, 1) + x(2, 1)
    with pytest.raises(DimensionError):
        x(1, 1) * x(2, 2)


# -- Pochhammer / Gaussian multinomials ------------------------------------


def test_pochhammer_small():
    assert pochhammer_tt(0) == MPoly.one(0)
    assert pochhammer_tt(1) == MPoly.one(0) - tpoly()
    expected = (
        (MPoly.one(0) - tpoly())
        * (MPoly.one(0) - MPoly.monomial(0, t=2))
        * (MPoly.one(0) - MPoly.monomial(0, t=3))
    )
    assert pochhammer_tt(3) == expected


@pytest.mark.parametrize("m", range(13))
def test_pochhammer_degree_and_constant(m):
    p = pochhammer_tt(m)
    assert p.degree() == m * (m + 1) // 2
    assert p.constant_term() == 1


def test_t_multinomial_examples():
    assert t_multinomial(2, [1, 1]) == MPoly.one(0) + tpoly()
    assert t_multinomial(3, [2, 1]) == MPoly.one(0) + tpoly() + MPoly.monomial(0, t=2)
    for n in range(1, 6):
        assert t_multinomial(n, [n]) == MPoly.one(0)


def test_t_multinomial_bad_parts():
    with pytest.raises(ValueError):
        t_multinomial(4, [2, 1])
    with pytest.raises(ValueError):
        t_multinomial(2, [2, 0])


def multinomial(total, parts):
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


@pytest.mark.parametrize("total", range(1, 9))
def test_t_multinomial_at_t_one(total):
    # every composition of `total` into at most 3 parts
    for a in range(1, total + 1):
        for b in range(0, total - a + 1):
            c = total - a - b
            parts = [p for p in (a, b, c) if p > 0]
            value = t_multinomial(total, parts).specialize(t=1).constant_term()
            assert value == multinomial(total, parts)


def test_gaussian_binomial_symmetry():
    for m in range(7):
        for k in range(m + 1):
            assert gaussian_binomial(m, k) == gaussian_binomial(m, m - k)


# -- division ----------------------------------------------------------------


def test_exact_div_detects_remainder():
    with pytest.raises(NonPolynomialError):
        exact_div(MPoly.one(0) + qpoly(), MPoly.one(0) - tpoly())


def test_divmod_reconstructs():
    p = pochhammer_tt(4) * (MPoly.one(0) + qpoly()) + MPoly.monomial(0, q=2)
    d = pochhammer_tt(2)
    quo, rem = divmod_poly(p, d)
    assert quo * d + rem == p


# -- QtRational --------------------------------------------------------------


def test_qt_reduce_cancels_single_factor():
    u = QtRational(MPoly.one(0) - tpoly(), [QtFactor(0, 1)])
    assert u.den == ()
    assert u.num == MPoly.one(0)


def test_qt_add_zero_identity():
    u = QtRational(MPoly.one(0) + qpoly(), [QtFactor(1, 2)])
    assert (u + QtRational.zero()) == u


def test_qt_mul_full_cancellation():
    u = QtRational(MPoly.one(0) - tpoly(), [QtFactor(1, 2)])
    v = QtRational(one_minus_qt(1, 2), [QtFactor(0, 1)])
    assert (u * v) == QtRational.one()


def test_qt_reduce_partial():
    u = QtRational(MPoly.one(0) - MPoly.monomial(0, t=2), [QtFactor(0, 1)])
    assert u == QtRational(MPoly.one(0) + tpoly())
    stuck = QtRational(MPoly.one(0) + qpoly(), [QtFactor(0, 1)])
    assert stuck.den == (QtFactor(0, 1),)


def test_qt_reduce_two_factors():
    num = (MPoly.one(0) - tpoly()) * one_minus_qt(1, 1)
    u = QtRational(num, [QtFactor(0, 1), QtFactor(1, 1)])
    assert u == QtRational.one()
    assert u.den == ()


def test_to_polynomial():
    assert QtRational.from_int(5).to_polynomial() == MPoly.const(0, 5)
    u = QtRational(MPoly.one(0) - MPoly.monomial(0, t=2), [QtFactor(0, 1)])
    assert u.to_polynomial() == MPoly.one(0) + tpoly()
    with pytest.raises(NonPolynomialError):
        QtRational(MPoly.one(0) + qpoly(), [QtFactor(0, 1)]).to_polynomial()


def test_qt_specialize():
    u = QtRational(MPoly.one(0) - tpoly(), [QtFactor(1, 1)])
    assert u.specialize(q=0, t=0) == 1
    # (1-t)/(1-qt) at q=1/2, t=3: (1-3)/(1-3/2) = 4
    assert u.specialize(q=Fraction(1, 2), t=3) == 4
    # vanishing denominator
    with pytest.raises(EvaluationError):
        QtRational(MPoly.one(0), [QtFactor(0, 1)]).specialize(q=0, t=1)
    with pytest.raises(EvaluationError):
        u.specialize(q=Fraction(1, 2), t=2)


@pytest.mark.parametrize("q, t", [(0, None), (None, 1), (None, None)])
def test_qt_specialize_needs_both_q_and_t(q, t):
    u = QtRational(MPoly.one(0) + qpoly() + tpoly(), [QtFactor(2, 1), QtFactor(0, 2)])
    given = {name: v for name, v in (("q", q), ("t", t)) if v is not None}
    with pytest.raises(ValueError):
        u.specialize(**given)


# -- specialize on MPoly -------------------------------------------------------


def test_specialize_examples():
    p = MPoly.one(1) + qpoly(1) + tpoly(1) * x(1, 1)
    assert p.specialize(q=0, t=0) == MPoly.one(1)
    assert pochhammer_tt(3).specialize(t=1).is_zero()


def test_specialize_x_subs():
    p = x(2, 1) * x(2, 2) + x(2, 2) ** 2
    assert p.specialize(x={2: 0}).is_zero()
    assert p.specialize(x={2: 1}) == x(2, 1) + MPoly.one(2)


def test_specialize_rational_point():
    p = MPoly.one(0) + tpoly()
    assert p.specialize(t=Fraction(1, 2)).constant_term() == Fraction(3, 2)


# -- serialization --------------------------------------------------------------


def test_json_round_trip():
    p = (x(2, 1) + x(2, 2) * qpoly(2)) * pochhammer_tt(2).extended(2) + MPoly.const(2, -7)
    assert MPoly.from_json(p.to_json()) == p
    r = p * Fraction(-5, 6) + x(2, 1)
    assert '"c":"-5/6"' in r.to_json()
    assert MPoly.from_json(r.to_json()) == r


def test_json_huge_coefficients():
    big = 12345678901234567890123456789012345678901234567890
    p = MPoly.const(1, big) + x(1, 1) * -big
    assert MPoly.from_json(p.to_json()) == p


def test_json_term_order_is_canonical():
    p = x(2, 2) + x(2, 1) + MPoly.one(2) * 3
    obj = p.to_json_obj()
    assert [term["x"] for term in obj["terms"]] == [[1, 0], [0, 1], [0, 0]]


# -- hypothesis: ring axioms, reduce invariants --------------------------------


@st.composite
def small_polys(draw, n=2):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = Monomial(
            tuple(draw(st.integers(0, 2)) for _ in range(n)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
        )
        terms[mono] = draw(st.integers(-5, 5))
    return MPoly(n, terms)


@settings(max_examples=200)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert (p + r) + s == p + (r + s)
    assert p * r == r * p
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@settings(max_examples=100)
@given(small_polys(), small_polys())
def test_specialize_commutes_with_ops(p, r):
    point = dict(q=1, t=0, x={1: 2, 2: 1})
    assert (p + r).specialize(**point) == p.specialize(**point) + r.specialize(**point)
    assert (p * r).specialize(**point) == p.specialize(**point) * r.specialize(**point)


@st.composite
def polys_and_binomials(draw):
    """A polynomial in n = 0..2 and a list of binomial exponents (a, b), often
    empty or repeating one pair; (0, 0) is the zero binomial."""
    p = draw(small_polys(draw(st.integers(0, 2))))
    pool = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=2))
    return p, draw(st.lists(st.sampled_from(pool), max_size=4))


@settings(max_examples=200)
@example((MPoly.monomial(1, x=(1,)), []))
@example((MPoly.one(0) + tpoly(), [(0, 1), (0, 1), (1, 1)]))
@given(polys_and_binomials())
def test_times_binomials_multiplies_by_each_binomial(case):
    p, factors = case
    expected = p
    for a, b in factors:
        expected = expected * one_minus_qt(a, b).extended(p.n)
    got = times_binomials(p, factors)
    assert got == expected
    assert all(got.terms.values())


@st.composite
def qt_rationals(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        mono = Monomial((), draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[mono] = draw(st.integers(-4, 4))
    den = []
    for _ in range(draw(st.integers(0, 2))):
        den.append(QtFactor(draw(st.integers(0, 2)), draw(st.integers(1, 2))))
    return MPoly(0, terms), tuple(den)


@settings(max_examples=150)
@given(qt_rationals())
def test_qt_reduce_idempotent_and_value_preserving(data):
    num, den = data
    u = QtRational(num, den)
    again = QtRational(u.num, u.den)
    assert again.num == u.num and again.den == u.den
    # cross-multiplication against the unreduced parts
    left = u.num
    for f in den:
        left = left * f.poly()
    right = num
    for f in u.den:
        right = right * f.poly()
    assert left == right


@settings(max_examples=80)
@given(qt_rationals(), qt_rationals())
def test_qt_add_mul_consistency(du, dv):
    u = QtRational(*du)
    v = QtRational(*dv)
    # check add/mul against cross-multiplied polynomial identities
    s = u + v
    left = s.num
    for f in du[1] + dv[1]:
        left = left * f.poly()
    right_u = du[0]
    for f in s.den + dv[1]:
        right_u = right_u * f.poly()
    right_v = dv[0]
    for f in s.den + du[1]:
        right_v = right_v * f.poly()
    assert left == right_u + right_v
    p = u * v
    lhs = p.num
    for f in du[1] + dv[1]:
        lhs = lhs * f.poly()
    rhs = du[0] * dv[0]
    for f in p.den:
        rhs = rhs * f.poly()
    assert lhs == rhs


def counter_lcm_add(u, v):
    """u + v over the lcm of the two denominators, as a Counter of factors."""
    mine, theirs = Counter(u.den), Counter(v.den)
    lcm = mine | theirs
    num = times_binomials(u.num, (lcm - mine).elements())
    onum = times_binomials(v.num, (lcm - theirs).elements())
    return QtRational(num + onum, tuple(lcm.elements()))


#: denominators with repeats and reducible members: 1 - q^2 t^2 = (1 - qt)(1 + qt)
#: and 1 - t^2 = (1 - t)(1 + t), so a numerator can cancel part of a factor
REDUCIBLE_FACTORS = [QtFactor(0, 1), QtFactor(0, 2), QtFactor(1, 1), QtFactor(2, 2), QtFactor(1, 2)]


@st.composite
def reducible_rationals(draw, den=None):
    """A QtRational whose numerator often shares a factor with its denominator."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = Monomial((), draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[mono] = draw(st.integers(-3, 3))
    num = MPoly(0, terms)
    sharing = [
        one_minus_qt(1, 1), one_minus_qt(0, 1), MPoly.one(0) + MPoly.monomial(0, q=1, t=1),
        MPoly.one(0) + tpoly(),
    ]
    for poly in draw(st.lists(st.sampled_from(sharing), max_size=2)):
        num = num * poly
    if den is None:
        den = draw(st.lists(st.sampled_from(REDUCIBLE_FACTORS), max_size=3))
    return QtRational(num, den)


@st.composite
def rational_pairs(draw):
    """Two QtRationals, the second half the time built over the first's denominator."""
    u = draw(reducible_rationals())
    v = draw(reducible_rationals(u.den if draw(st.booleans()) else None))
    return u, v


@settings(max_examples=300)
@given(rational_pairs())
def test_qt_add_matches_counter_lcm_reference(pair):
    u, v = pair
    got, expected = u + v, counter_lcm_add(u, v)
    assert (got.num, got.den) == (expected.num, expected.den)


# -- the canonical form ------------------------------------------------------------

#: binomials 1 - q^a t^b with a = 0 included and several on one ray with
#: gcd(a, b) up to 4, so that cyclotomic pieces Phi_d, d > 1, are shared
canonical_factors = st.builds(QtFactor, st.integers(0, 4), st.integers(1, 4))


@st.composite
def qt_numerators(draw, max_terms=3):
    """A q,t-only polynomial with integer or Fraction coefficients."""
    coeffs = st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3)
    terms = {
        Monomial((), draw(st.integers(0, 3)), draw(st.integers(0, 3))): draw(coeffs)
        for _ in range(draw(st.integers(1, max_terms)))
    }
    return MPoly(0, terms)


@st.composite
def shared_fractions(draw):
    """num / den with the numerator often a multiple of pieces of the
    denominator, such as 1 + t = Phi_2(t) or 1 + qt + q^2 t^2 = Phi_3(qt)."""
    num = draw(qt_numerators())
    pieces = [MPoly.one(0) + tpoly(), divide_binomial(one_minus_qt(3, 3), 1, 1), one_minus_qt(2, 2)]
    for poly in draw(st.lists(st.sampled_from(pieces), max_size=2)):
        num = num * poly
    return QtRational(num, draw(st.lists(canonical_factors, max_size=3)))


def qt_printed(u):
    return json.dumps({"num": u.num.to_json_obj()["terms"], "den": [list(f) for f in u.den]})


@settings(max_examples=300, deadline=None)
@example(MPoly.one(0) + tpoly(), [QtFactor(0, 2)], [QtFactor(0, 1)])
@example(MPoly.one(0), [QtFactor(2, 2), QtFactor(3, 3)], [QtFactor(1, 1), QtFactor(6, 6)])
@given(qt_numerators(), st.lists(canonical_factors, max_size=3), st.lists(canonical_factors, max_size=3))
def test_qt_form_ignores_a_common_binomial_factor(num, den, common):
    u = QtRational(num, den)
    v = QtRational(times_binomials(num, common), den + common)
    assert (v.num, v.den) == (u.num, u.den)


@settings(max_examples=200, deadline=None)
@given(st.lists(shared_fractions(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_qt_sums_print_alike_in_any_order(fractions, rng):
    shuffled = rng.sample(fractions, len(fractions))
    first = sum(fractions, QtRational.zero())
    assert qt_printed(sum(shuffled, QtRational.zero())) == qt_printed(first)
    assert qt_printed(QtRational.sum((1, u) for u in shuffled)) == qt_printed(first)


def test_qt_reduces_whole_numbers_held_as_fractions():
    # a product of Fraction coefficients can be whole, Fraction(2, 1) = 2
    num = MPoly.const(0, Fraction(1, 2)) * (one_minus_qt(0, 1) * 4)
    u = QtRational(num, [QtFactor(0, 1)])
    assert (u.num, u.den) == (MPoly.const(0, 2), ())


@settings(max_examples=300, deadline=None)
@example([QtFactor(2, 2), QtFactor(3, 3)], 1, 0, 0)
@example([QtFactor(0, 2), QtFactor(0, 4), QtFactor(0, 6)], Fraction(1, 2), 1, 2)
@given(
    st.lists(canonical_factors, max_size=5),
    st.integers(-3, 3).filter(bool) | st.fractions(-2, 2, max_denominator=3).filter(bool),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_qt_keeps_a_binomial_product_that_nothing_cancels_from(den, c, i, j):
    # no piece divides a monomial numerator, and the largest-first rebuild
    # gives back the binomials the pieces came from
    num = MPoly.monomial(0, q=i, t=j, coeff=c)
    u = QtRational(num, den)
    assert (u.num, u.den) == (num, tuple(sorted(den)))


# -- the binomial divider against the general division ----------------------------


@st.composite
def binomial_multiples(draw):
    """(p, a, b): a sparse q,t-polynomial times 1 - q^a t^b, sometimes plus a
    perturbation.  Exponents up to 6 against steps up to 3 leave gaps along
    the chains."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(1, 3))

    def sparse(max_terms):
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            mono = Monomial((), draw(st.integers(0, 6)), draw(st.integers(0, 6)))
            terms[mono] = draw(st.integers(-4, 4))
        return MPoly(0, terms)

    p = sparse(5) * one_minus_qt(a, b)
    if draw(st.booleans()):
        p = p + sparse(2)
    return p, a, b


@settings(max_examples=300)
@given(binomial_multiples())
def test_divide_binomial_matches_divmod(data):
    p, a, b = data
    quo, rem = divmod_poly(p, one_minus_qt(a, b))
    fast = divide_binomial(p, a, b)
    if rem.is_zero():
        assert fast == quo
    else:
        assert fast is None


def test_divide_binomial_chain_with_gap_and_zero_q_step():
    # (1 - t^2) * (1 + t^4): the chain 0, 2, 4, 6 has a zero at 2
    p = one_minus_qt(0, 2) * (MPoly.one(0) + MPoly.monomial(0, t=4))
    assert divide_binomial(p, 0, 2) == MPoly.one(0) + MPoly.monomial(0, t=4)
    assert divide_binomial(p, 0, 1) == exact_div(p, one_minus_qt(0, 1))
    assert divide_binomial(p, 1, 1) is None


def test_divide_binomial_tells_apart_chains_on_one_line():
    # for a = 2, b = 4 the points (0, 0) and (1, 2) both have b*q - a*t = 0,
    # but (1, 2) - (0, 0) is not a multiple of (2, 4): two chains, not one
    p = MPoly.one(0) - MPoly.monomial(0, q=1, t=2)
    assert not divmod_poly(p, one_minus_qt(2, 4))[1].is_zero()
    assert divide_binomial(p, 2, 4) is None
    assert divide_binomial(p * one_minus_qt(2, 4), 2, 4) == p


def test_divide_binomial_takes_whole_numbers_held_as_fractions():
    # a product of Fraction coefficients can be whole, Fraction(2, 1) = 2
    p = MPoly.const(0, Fraction(1, 2)) * (one_minus_qt(0, 1) * 4)
    assert divide_binomial(p, 0, 1) == MPoly.const(0, 2)
    assert divide_binomials(p, [(0, 1)]) == MPoly.const(0, 2)


def test_divide_binomial_refuses_non_integer_coefficients():
    p = one_minus_qt(1, 1) * Fraction(1, 2)
    assert not divmod_poly(p, one_minus_qt(1, 1))[1].is_zero()
    assert divide_binomial(p, 1, 1) is None


@pytest.mark.parametrize(
    "quotient, a, b, extra",
    [
        ({(0, 0): 3, (2, 1): 1, (0, 5): -1}, 1, 2, {}),
        ({(0, 0): 1, (3, 0): -2, (6, 0): 1}, 0, 1, {}),
        ({(1, 1): 2, (4, 4): 1}, 1, 1, {}),
        ({(0, 0): 1, (2, 3): 5}, 2, 1, {(1, 0): 1}),
    ],
)
def test_divide_binomial_agrees_with_sympy(quotient, a, b, extra):
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")

    def to_sympy(poly):
        return sum(c * q**m.q * t**m.t for m, c in poly.terms.items())

    def from_terms(terms):
        return MPoly(0, {Monomial((), i, j): c for (i, j), c in terms.items()})

    p = from_terms(quotient) * one_minus_qt(a, b) + from_terms(extra)
    fast = divide_binomial(p, a, b)
    quo, rem = sympy.div(to_sympy(p), 1 - q**a * t**b, q, t)
    if rem == 0:
        assert fast is not None and sympy.expand(to_sympy(fast) - quo) == 0
    else:
        assert fast is None



@settings(max_examples=300)
@given(
    st.data(),
    st.lists(st.integers(-2, 2), max_size=3).filter(lambda rest: not rest or rest[-1]),
    st.integers(0, 3),
    st.integers(1, 3),
)
def test_divide_chains_matches_divmod(data, rest, a, b):
    # f(q^a t^b) for f with constant term 1 and a nonzero top, against the general division
    f = (1, *rest)
    divisor = MPoly(0, {Monomial((), k * a, k * b): c for k, c in enumerate(f)})
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(-4, 4), max_size=5))
    p = MPoly(0, {Monomial((), i, j): c for (i, j), c in terms.items()})
    if data.draw(st.booleans()):
        p = p * divisor
    quo, rem = divmod_poly(p, divisor)
    fast = divide_chains(p, a, b, f)
    if rem.is_zero():
        assert fast == quo
    else:
        assert fast is None


def test_divide_chains_keeps_fraction_coefficients():
    # (1/2)(1 - t^3) / (1 + t + t^2) = (1/2)(1 - t); divide_binomial refuses these
    p = one_minus_qt(0, 3) * Fraction(1, 2)
    assert divide_chains(p, 0, 1, (1, 1, 1)) == one_minus_qt(0, 1) * Fraction(1, 2)
    assert divide_chains(p, 0, 1, (1, 1)) is None


def test_cyclotomic_pieces_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from macpoly.cyclotomic import piece

    y = sympy.symbols("y")
    for d in range(1, 25):
        phi = sympy.Poly(sympy.cyclotomic_poly(d, y) * (-1 if d == 1 else 1), y)
        assert piece(d) == tuple(int(c) for c in reversed(phi.all_coeffs()))


def test_cyclotomic_is_imported_with_the_first_fraction_that_has_a_denominator():
    code = (
        "import sys\n"
        "import macpoly\n"
        "from macpoly.polyring import QtFactor, QtRational, one_minus_qt\n"
        "before = 'macpoly.cyclotomic' in sys.modules\n"
        "modules = [m for name, m in sys.modules.items() if name.split('.')[0] == 'macpoly']\n"
        "bound = [(m, k, v) for m in modules for k, v in list(vars(m).items())]\n"
        "QtRational(one_minus_qt(0, 2), [QtFactor(0, 1)])\n"
        "after = 'macpoly.cyclotomic' in sys.modules\n"
        "print(before, after, all(vars(m)[k] is v for m, k, v in bound))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    # imported lazily, and the first fraction rebinds no attribute of any macpoly module
    assert proc.stdout.split() == ["False", "True", "True"], proc.stderr


@st.composite
def pochhammer_multiples(draw):
    """(p, ms): a sparse polynomial in x_1, x_2, q, t times the product of
    (t;t)_m over ms, sometimes plus a perturbation."""
    ms = draw(st.lists(st.integers(0, 3), max_size=3))

    def sparse(max_terms):
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            mono = Monomial(
                (draw(st.integers(0, 2)), draw(st.integers(0, 2))),
                draw(st.integers(0, 3)),
                draw(st.integers(0, 6)),
            )
            terms[mono] = draw(st.integers(-4, 4))
        return MPoly(2, terms)

    p = sparse(4)
    for m in ms:
        p = p * pochhammer_tt(m).extended(2)
    if draw(st.booleans()):
        p = p + sparse(2)
    return p, ms


@settings(max_examples=200)
@given(pochhammer_multiples())
def test_divide_binomials_matches_exact_div(data):
    p, ms = data
    divisor = MPoly.one(2)
    for m in ms:
        divisor = divisor * pochhammer_tt(m).extended(2)
    try:
        expected = exact_div(p, divisor)
    except NonPolynomialError:
        with pytest.raises(NonPolynomialError):
            divide_binomials(p, pochhammer_factors(ms))
    else:
        assert divide_binomials(p, pochhammer_factors(ms)) == expected


def qt_weight(terms):
    """The q,t-only polynomial with the given (q exponent, t exponent, coefficient) terms."""
    return poly_sum(0, (MPoly.monomial(0, q=a, t=b, coeff=k) for a, b, k in terms))


@st.composite
def tally_inputs(draw):
    """(counts, expansions): counts keyed by (x, q, t, key) in ambient 2, and
    each key's q,t-only weight.  The key "cancels" weighs 0, and it is always
    counted."""
    expansions = {"cancels": MPoly.zero(0)}
    small = st.integers(0, 2)
    for key in range(draw(st.integers(0, 3))):
        terms = draw(st.lists(st.tuples(small, small, st.integers(-3, 3)), max_size=3))
        expansions[key] = qt_weight(terms)
    keys = st.sampled_from(sorted(expansions, key=str))
    counts = draw(
        st.dictionaries(st.tuples(st.tuples(small, small), small, small, keys), st.integers(1, 5), max_size=6)
    )
    counts[(1, 0), 0, 0, "cancels"] = draw(st.integers(1, 5))
    return counts, expansions


@settings(max_examples=200)
@given(tally_inputs(), st.sampled_from([None, SYMMETRIC, QUASISYMMETRIC]))
def test_tally_matches_expanding_every_key(data, orbit):
    counts, expansions = data
    by_hand = poly_sum(
        2,
        (
            MPoly.monomial(2, x=x, q=q + a, t=t + b, coeff=c * k)
            for (x, q, t, key), c in counts.items()
            if orbit is None or orbit.is_rep(x)
            for (_, a, b), k in expansions[key].terms.items()
        ),
    )
    if orbit is not None:
        by_x = expand_orbits(by_hand.qt_coefficients(), orbit.members)
        by_hand = MPoly(2, {Monomial(y, m.q, m.t): c for y, p in by_x.items() for m, c in p.terms.items()})
    assert tally(2, counts, expansions.__getitem__, orbit) == by_hand


def test_tally_drops_a_key_that_cancels():
    expansions = {"cancels": qt_weight([(1, 2, 3), (1, 2, -3)])}
    counts = {((2,), 0, 0, "cancels"): 4}
    assert expansions["cancels"] == MPoly.zero(0)
    assert tally(1, counts, expansions.__getitem__).terms == {}
    assert by_checked_constructor(1, counts, expansions) == MPoly.zero(1)


def by_checked_constructor(n, counts, expansions):
    """The tally's sum built term by term and handed to the checked ``MPoly``."""
    acc = Counter()
    for (x, q, t, key), c in counts.items():
        for (_, a, b), k in expansions[key].terms.items():
            acc[Monomial(x, q + a, t + b)] += c * k
    return MPoly(n, acc)


def test_tally_cancels_across_keys():
    # "a" at q^1 t^1 and "b" at q^1 t^0 times t land on x q t with 3*2 - 6*1 = 0
    expansions = {"a": qt_weight([(1, 0, 2)]), "b": qt_weight([(0, 1, -1), (0, 0, 5)])}
    counts = {((1,), 0, 1, "a"): 3, ((1,), 1, 0, "b"): 6}
    out = tally(1, counts, expansions.__getitem__)
    assert out.terms == {Monomial((1,), 1, 0): 30}
    assert out.terms == by_checked_constructor(1, counts, expansions).terms


@settings(max_examples=200)
@given(tally_inputs())
def test_tally_keeps_no_zero_coefficient(data):
    counts, expansions = data
    out = tally(2, counts, expansions.__getitem__)
    assert 0 not in out.terms.values()
    assert out.terms == by_checked_constructor(2, counts, expansions).terms


def tally_by_comprehension(n, counts, weigh, orbit=None):
    """:func:`tally`'s terms by one comprehension over the orbit-expanded sums,
    a Monomial built per term, and the number of zero sums it leaves out."""
    by_x = {}
    for (x, q, t, key), c in counts.items():
        if orbit is None or orbit.is_rep(x):
            acc = by_x.setdefault(x, {})
            for (_, a, b), k in weigh(key).terms.items():
                acc[q + a, t + b] = acc.get((q + a, t + b), 0) + c * k
    if orbit is not None:
        by_x = expand_orbits(by_x, orbit.members)
    zeros = sum(not c for acc in by_x.values() for c in acc.values())
    return {Monomial(x, q, t): c for x, acc in by_x.items() for (q, t), c in acc.items() if c}, zeros


@pytest.mark.parametrize("route", [htilde_plain, htilde_compact, j_plain, j_compact], ids=lambda r: r.__name__)
def test_route_tallies_match_the_comprehension(monkeypatch, route):
    zeros = 0

    def spy(n, counts, weigh, orbit=None):
        nonlocal zeros
        out = tally(n, counts, weigh, orbit)
        terms, dropped = tally_by_comprehension(n, counts, weigh, orbit)
        zeros += dropped
        # the same terms in the same order, keyed by Monomial instances
        assert list(out.terms.items()) == list(terms.items())
        assert all(type(m) is Monomial and (m.x, m.q, m.t) == tuple(m) for m in out.terms)
        assert 0 not in out.terms.values()
        return out

    monkeypatch.setattr(sys.modules[route.__module__], "tally", spy)
    for mu in partitions_up_to(4):
        for n in range(4):
            route(mu, n)
    if route in (j_plain, j_compact):
        # J weights cancel on some keys, and those zero sums are left out
        assert zeros > 0


def test_divide_binomials_raises_on_a_later_factor():
    # 1 - t divides, (1 - t)^2 does not
    p = one_minus_qt(0, 1) * (MPoly.one(0) + qpoly())
    assert divide_binomials(p, [(0, 1)]) == MPoly.one(0) + qpoly()
    with pytest.raises(NonPolynomialError):
        divide_binomials(p, [(0, 1), (0, 1)])


@pytest.mark.parametrize("m", range(9))
def test_gaussian_binomial_unchanged_by_chain_division(m):
    for k in range(m + 1):
        for n in (0, 2):
            den = (pochhammer_tt(k) * pochhammer_tt(m - k)).extended(n)
            expected = exact_div(pochhammer_tt(m).extended(n), den)
            assert gaussian_binomial(m, k).extended(n) == expected


# -- term keys built at C level ---------------------------------------------------


def per_pair_product(p, r):
    """p times r by ``Monomial.__mul__`` on each pair of terms, zero sums dropped."""
    acc = Counter()
    for m1, c1 in p.terms.items():
        for m2, c2 in r.terms.items():
            acc[m1 * m2] += c1 * c2
    return {m: c for m, c in acc.items() if c}


def monomial_keys_and_no_zero(poly):
    return all(type(m) is Monomial for m in poly.terms) and 0 not in poly.terms.values()


@settings(max_examples=200)
@given(st.integers(0, 2).flatmap(lambda n: st.tuples(small_polys(n), small_polys(n))),
       st.integers(0, 2), st.integers(1, 2))
def test_term_keys_are_monomials_built_without_a_product_per_pair(pair, a, b):
    p, r = pair
    n = p.n
    shift = MPoly.monomial(n, x=(1,) * n, q=a, t=b)
    binomial = one_minus_qt(a, b).extended(n)
    outs = {
        "mul": (p * r, per_pair_product(p, r)),
        "mul_monomial": (p.mul_monomial(x=(1,) * n, q=a, t=b), per_pair_product(p, shift)),
        "swap_qt": (p.swap_qt(), {Monomial(m.x, m.t, m.q): c for m, c in p.terms.items()}),
        "times_binomials": (times_binomials(p, [(a, b)]), per_pair_product(p, binomial)),
        "divide_chains": (divide_chains(MPoly(n, per_pair_product(p, binomial)), a, b, (1, -1)), p.terms),
    }
    if n == 0:
        # p times 1 + y + y^2 at y = q^a t^b
        f = MPoly.one(0) + MPoly.monomial(0, q=a, t=b) + MPoly.monomial(0, q=2 * a, t=2 * b)
        outs["cyclotomic._times"] = (_times(p, a, b, (1, 1, 1)), per_pair_product(p, f))
    for name, (got, expected) in outs.items():
        assert got.terms == expected, name
        assert monomial_keys_and_no_zero(got), name


# -- one chain division per ray ---------------------------------------------------


def divided_one_at_a_time(p, factors):
    """p divided by each binomial 1 - q^a t^b in turn, a chain division by (1, -1),
    or None at the first that does not divide."""
    for a, b in factors:
        if (p := divide_chains(p, a, b, (1, -1))) is None:
            return None
    return p


def pochhammer_and_hook_factors(mu):
    """The binomials of mu's Pochhammer prefactor, of its hook product and of the
    hooks above row 1 of its increasing diagram (a, b), each list alone and joined."""
    stats = composition_stats(mu)
    inc = diagram(stats.inc)
    pochhammer = pochhammer_factors(stats.mult.values())
    hooks = [(arm1 - 1, leg1) for leg1, arm1 in diagram(conjugate(mu)).hooks]
    above = [hook for below, hook in zip(inc.below, inc.hooks) if below is not None]
    return [pochhammer, hooks, above, pochhammer + above, hooks + above]


def test_divide_binomials_agrees_with_dividing_one_binomial_at_a_time():
    outcomes = Counter()
    for mu in partitions_up_to(5):
        for factors in pochhammer_and_hook_factors(mu):
            product_ = times_binomials(MPoly.one(0), factors)
            dividends = [product_, product_ * (MPoly.one(0) + qpoly() - 2 * tpoly()),
                         times_binomials(MPoly.one(0) + qpoly(), factors[1:]), product_ + tpoly(),
                         times_binomials(x(2, 1) + x(2, 2) * qpoly(2), factors)]
            for p in dividends:
                expected = divided_one_at_a_time(p, factors)
                outcomes[expected is None] += 1
                if expected is None:
                    with pytest.raises(NonPolynomialError):
                        divide_binomials(p, factors)
                else:
                    assert divide_binomials(p, factors) == expected, (mu, factors, p)
    assert outcomes[True] > 100 and outcomes[False] > 100


def test_divide_binomials_refuses_non_integer_coefficients():
    p = one_minus_qt(1, 1) * Fraction(1, 2)
    with pytest.raises(NonPolynomialError):
        divide_binomials(p, [(1, 1)])
    # with nothing to divide by, nothing is refused
    assert divide_binomials(p, []) is p


# -- terms grouped by x ----------------------------------------------------------------


def operations(p, r, a, b):
    """Each ring and q,t operation on operands p and r of one ambient n, by name,
    with shifts and binomials at (a, b), b >= 1."""
    n = p.n
    ops = {
        "+": lambda: p + r,
        "-": lambda: p - r,
        "p - p": lambda: p - p,
        "*": lambda: p * r,
        "* scalar": lambda: p * Fraction(1, 2),
        "**": lambda: p**2,
        "mul_monomial": lambda: p.mul_monomial(x=(1,) * n, q=a, t=b),
        "mul_monomial by 1": lambda: p.mul_monomial(),
        "swap_qt": p.swap_qt,
        "extended": lambda: p.extended(n + 1),
        "specialize q, t": lambda: p.specialize(q=a, t=Fraction(1, b + 1)),
        "specialize t": lambda: p.specialize(t=1),
        "times_binomials": lambda: times_binomials(p, [(a, b), (b, a)]),
        "times a zero binomial": lambda: times_binomials(p, [(0, 0)]),
        "divide_chains": lambda: divide_chains(p * one_minus_qt(a, b).extended(n), a, b, (1, -1)),
    }
    if n:
        ops["specialize x_1"] = lambda: p.specialize(x={1: a})
    if n >= 2:
        ops["swap_x"] = lambda: p.swap_x(1, n)
    return ops


def assert_grouped(p, name=""):
    """No stored map of p is empty or holds a 0, and the flat view rebuilds p."""
    assert all(acc and 0 not in acc.values() for acc in p.by_x.values()), name
    assert all(len(x) == p.n for x in p.by_x), name
    assert MPoly(p.n, p.terms) == p, name
    assert len(p.terms) == sum(1 for _ in p.terms), name


@settings(max_examples=200)
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(small_polys(n), small_polys(n))),
       st.integers(0, 2), st.integers(1, 2), tally_inputs(), st.sampled_from([None, SYMMETRIC, QUASISYMMETRIC]))
def test_every_operation_keeps_terms_grouped_by_x(pair, a, b, tally_data, orbit):
    p, r = pair
    for name, op in operations(p, r, a, b).items():
        assert_grouped(op(), name)
    counts, expansions = tally_data
    assert_grouped(tally(2, counts, expansions.__getitem__, orbit), "tally")


def test_orbit_members_share_one_map_that_no_operation_changes():
    plain = htilde_plain((2, 1), 3)
    counts = {((2, 1, 0), 1, 0, None): 2, ((1, 1, 1), 0, 2, None): 3, ((0, 1, 2), 5, 5, None): 7}
    direct = tally(3, counts, unit_weight, SYMMETRIC)
    for p, x, y in ((plain, (2, 1, 0), (0, 1, 2)), (direct, (2, 1, 0), (1, 0, 2))):
        assert p.by_x[x] is p.by_x[y]
    assert direct.by_x[(2, 1, 0)] == {(1, 0): 2} and (0, 1, 2) in direct.by_x
    for p, r in ((plain, direct), (direct, plain), (plain, plain)):
        before = [dict(p.terms), dict(r.terms)]
        for name, op in operations(p, r, 1, 1).items():
            op()
            assert [dict(p.terms), dict(r.terms)] == before, name


def test_terms_is_a_read_only_flat_view():
    p = htilde_plain((2, 2, 2, 2), 4)
    assert (len(p.terms), len(p.by_x), len({id(acc) for acc in p.by_x.values()})) == (5523, 165, 15)
    mono = next(iter(p.terms))
    assert type(mono) is Monomial and p.terms[mono] == p.by_x[mono.x][mono.q, mono.t]
    assert p.terms.get(Monomial((9, 9, 9, 9), 0, 0)) is None
    with pytest.raises(TypeError):
        p.terms[mono] = 1


@pytest.mark.parametrize("bad", [0, -1, 3])
def test_a_variable_index_outside_one_to_n_is_refused(bad):
    # 0 and -1 used to wrap to x_n, and n + 1 to raise a bare IndexError
    p = MPoly.monomial(2, x=(1, 2))
    e = EResult(2, {(1, 2): QtRational.one()})
    message = re.escape(f"variable index {bad} is outside 1..2")
    for call in (lambda: p.specialize(x={bad: 3}), lambda: p.swap_x(bad, 1), lambda: p.swap_x(2, bad),
                 lambda: e.swap_x(bad, 2), lambda: e.swap_x(1, bad)):
        with pytest.raises(ValueError, match=message):
            call()
    assert p.specialize(x={1: 3}) == MPoly.monomial(2, x=(0, 2), coeff=3)
    assert p.swap_x(1, 2) == MPoly.monomial(2, x=(2, 1))
