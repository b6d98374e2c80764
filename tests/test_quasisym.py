"""Quasisymmetric values, the checker, and the tableau oracle."""

from collections import Counter
from itertools import product

import pytest

from macpoly.integral import compositions_rearranging, p_poly
from macpoly.nonsymmetric import EResult, f_poly, iter_basement_fillings
from macpoly.polyring import (
    Monomial, MPoly, QtFactor, QtRational, distinct_permutations, expand_orbits, has_prefix_support,
    placements,
)
from macpoly.quasisym import (
    compositions_with_support,
    g_poly,
    qs_schur,
    qsym_decompose,
    schur_ssyt,
)
from macpoly.shapes import ShapeError, coinv_comp, maj
from macpoly.verify import partitions_up_to


def x_mono(n, exps, **kw):
    return MPoly.monomial(n, x=exps, **kw)


# -- oracle: tableau generating function -----------------------------------------


def test_schur_single_cell():
    for n in (1, 2, 3):
        expected = MPoly.zero(n)
        for i in range(n):
            expected = expected + x_mono(n, tuple(1 if j == i else 0 for j in range(n)))
        assert schur_ssyt((1,), n) == expected


def test_schur_row_and_column():
    assert schur_ssyt((2,), 2) == x_mono(2, (2, 0)) + x_mono(2, (1, 1)) + x_mono(2, (0, 2))
    assert schur_ssyt((1, 1), 2) == x_mono(2, (1, 1))
    assert schur_ssyt((1, 1, 1), 2).is_zero()


def test_schur_hook_count():
    # s_(2,1) at x1=..=x3=1 counts 8 tableaux
    total = schur_ssyt((2, 1), 3).specialize(x={1: 1, 2: 1, 3: 1})
    assert total.constant_term() == 8


# -- support placements ------------------------------------------------------------


def test_compositions_with_support():
    assert compositions_with_support((1, 2), 3) == [
        (1, 2, 0),
        (1, 0, 2),
        (0, 1, 2),
    ]
    assert compositions_with_support((1, 1), 1) == []
    with pytest.raises(ShapeError):
        compositions_with_support((1, 0), 2)


def test_g_and_qs_schur_are_zero_with_more_parts_than_variables():
    assert g_poly((2, 1), 1) == EResult(1)
    assert qs_schur((2, 1), 1) == MPoly.zero(1)
    # a zero part is refused before the variable count is looked at
    for family in (g_poly, qs_schur):
        with pytest.raises(ShapeError):
            family((2, 0, 1), 1)


# -- quasisymmetry checker -----------------------------------------------------------


def test_qsym_decompose_monomial_basis_element():
    p = x_mono(3, (1, 2, 0)) + x_mono(3, (1, 0, 2)) + x_mono(3, (0, 1, 2))
    result = qsym_decompose(p)
    assert result.is_quasisymmetric
    assert set(result.monomial_coeffs) == {(1, 2)}
    assert result.monomial_coeffs[(1, 2)] == MPoly.one(0)


def test_qsym_decompose_detects_missing_orbit_member():
    p = x_mono(3, (1, 2, 0)) + x_mono(3, (0, 1, 2))
    result = qsym_decompose(p)
    assert not result.is_quasisymmetric
    assert result.witness is not None
    first, second = result.witness
    assert {tuple(e for e in v if e) for v in (first, second)} == {(1, 2)}


@pytest.mark.parametrize(
    "p, witness",
    [
        (x_mono(3, (1, 2, 0)) + x_mono(3, (0, 1, 2)), ((1, 2, 0), (1, 0, 2))),
        # the member that is missing is the representative x^(1,2,0)
        (x_mono(3, (1, 0, 2)) + x_mono(3, (0, 1, 2)), ((1, 0, 2), (1, 2, 0))),
        (
            EResult(2, {
                (1, 0): QtRational(MPoly.one(0), [QtFactor(1, 1)]),
                (0, 1): QtRational(MPoly.one(0), [QtFactor(1, 2)]),
            }),
            ((1, 0), (0, 1)),
        ),
    ],
)
def test_qsym_decompose_witness_is_two_members_of_one_orbit(p, witness):
    result = qsym_decompose(p)
    assert not result.is_quasisymmetric and result.monomial_coeffs == {}
    assert result.witness == witness
    first, second = witness
    assert first != second and second in placements(first)


def test_qsym_decompose_reassembles():
    p = g_poly((2, 1), 3)
    result = qsym_decompose(p)
    assert result.is_quasisymmetric
    rebuilt = EResult(3)
    for gamma, coeff in result.monomial_coeffs.items():
        for alpha in compositions_with_support(gamma, 3) if gamma else [(0, 0, 0)]:
            rebuilt.add_term(alpha, coeff)
    assert rebuilt == p


# -- G values ---------------------------------------------------------------------


def test_g_single_part():
    g = g_poly((1,), 2)
    expected = EResult(2)
    expected.add_term((1, 0), QtRational.one())
    expected.add_term((0, 1), QtRational.one())
    assert g == expected


@pytest.mark.parametrize(
    "gamma,n",
    [((1,), 2), ((2,), 2), ((1, 1), 2), ((1, 2), 3), ((2, 1), 3), ((1, 1, 1), 3), ((3, 1), 3)],
)
def test_g_is_quasisymmetric(gamma, n):
    assert qsym_decompose(g_poly(gamma, n)).is_quasisymmetric


@pytest.mark.parametrize("lam,n", [((1,), 2), ((2, 1), 2), ((2, 1), 3), ((1, 1), 3)])
def test_g_refines_p(lam, n):
    total = EResult(n)
    for gamma in distinct_permutations(lam):
        total = total + g_poly(gamma, n)
    assert total == p_poly(lam, n)


@pytest.mark.parametrize("gamma,n", [((1, 2), 3), ((2, 1), 3), ((1, 1), 3)])
def test_g_stability_drop_last_variable(gamma, n):
    dropped = EResult(n - 1)
    for exps, value in g_poly(gamma, n).coeffs.items():
        if exps[-1] == 0:
            dropped.add_term(exps[:-1], value)
    assert dropped == g_poly(gamma, n - 1)


# -- Schur specializations -------------------------------------------------------------


def test_qs_schur_single_part_equals_oracle():
    for k in (1, 2, 3):
        for n in (2, 3):
            assert qs_schur((k,), n) == schur_ssyt((k,), n)


@pytest.mark.parametrize("lam,n", [((2, 1), 3), ((1, 1), 2), ((2, 2), 3), ((3, 1), 3)])
def test_qs_schur_sums_to_schur(lam, n):
    total = MPoly.zero(n)
    for gamma in distinct_permutations(lam):
        total = total + qs_schur(gamma, n)
    assert total == schur_ssyt(lam, n)


def qs_schur_by_fillings(gamma, n):
    """qs_schur filling by filling: a Filling per basement filling, its
    content, maj and coinv read from the Filling."""
    counts = Counter()
    for alpha in compositions_with_support(gamma, n):
        for f in iter_basement_fillings(alpha):
            exps = f.x_exponents(n)
            if has_prefix_support(exps) and not maj(f) and not coinv_comp(f):
                counts[exps] += 1
    return MPoly(n, {Monomial(x, 0, 0): c for x, c in expand_orbits(counts, placements).items()})


STRONG_UP_TO_4 = [
    gamma for k in range(1, 5) for gamma in product(range(1, 5), repeat=k) if sum(gamma) <= 4
]


def test_qs_schur_matches_the_filling_by_filling_count():
    differ = [
        (gamma, n)
        for gamma in STRONG_UP_TO_4
        for n in range(len(gamma), 5)
        if qs_schur(gamma, n) != qs_schur_by_fillings(gamma, n)
    ]
    assert differ == []


@pytest.mark.parametrize("gamma,n", [((1, 2), 3), ((2, 1), 3), ((2, 1, 1), 4)])
def test_qs_schur_nonnegative_integer_coefficients(gamma, n):
    p = qs_schur(gamma, n)
    assert all(isinstance(c, int) and c >= 0 for c in p.terms.values())


# -- atom specialization checks ----------------------------------------------------------


def test_schur_decomposition_from_atoms():
    # each sorting class of E at q = t = 0 (the Demazure atoms) sums to s_lam
    count = 0
    for lam in partitions_up_to(4):
        for n in range(len(lam), 5):
            total = MPoly.zero(n)
            for alpha in compositions_rearranging(lam, n):
                total = total + f_poly(alpha).specialize(q=0, t=0)
            assert total == schur_ssyt(lam, n), (lam, n)
            count += 1
    assert count == 33
