"""Symmetry-reduced evaluation: the orbit expander, and each route that sums
one representative per orbit against the sum over every exponent vector."""

from itertools import permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macpoly.integral import compositions_rearranging, p_poly
from macpoly.modified import htilde_compact, htilde_plain
from macpoly.nonsymmetric import _e_sum
from macpoly.polyring import (
    Monomial,
    QtRational,
    distinct_permutations,
    expand_orbits,
    has_prefix_support,
    is_dominant,
    placements,
)
from macpoly.quasisym import compositions_with_support, g_poly, qs_schur
from macpoly.verify import htilde_all_words, partitions_up_to, strong_compositions_up_to

vectors = st.lists(st.integers(0, 3), max_size=6).map(tuple)


@given(vectors)
def test_distinct_permutations_is_the_multinomial_orbit_in_lex_order(x):
    orbit = list(distinct_permutations(x))
    multinomial = factorial(len(x)) // prod(factorial(x.count(v)) for v in set(x))
    assert len(orbit) == multinomial
    assert orbit == sorted(set(permutations(x)))


@given(vectors)
def test_placements_are_the_increasing_supports_in_combinations_order(x):
    orbit = list(placements(x))
    parts = [e for e in x if e]
    assert len(orbit) == len(set(orbit)) == comb(len(x), len(parts))
    assert all([e for e in y if e] == parts for y in orbit)
    assert orbit == sorted(orbit, reverse=True)
    assert orbit[0] == tuple(parts) + (0,) * (len(x) - len(parts))
    assert has_prefix_support(orbit[0])
    assert sum(map(has_prefix_support, orbit)) == 1


def test_representatives():
    assert is_dominant((3, 1, 1, 0)) and is_dominant(()) and not is_dominant((1, 2))
    assert has_prefix_support((2, 1, 0)) and has_prefix_support((0, 0))
    assert not has_prefix_support((2, 0, 1))


def test_expand_orbits_shares_values_and_moves_only_x():
    value = QtRational.one()
    out = expand_orbits({(2, 1, 1): value}, distinct_permutations)
    assert list(out) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert all(v is value for v in out.values())
    by_x = expand_orbits({(1, 0, 2): {(3, 4): 5}}, placements)
    monos = {Monomial(y, q, t): c for y, terms in by_x.items() for (q, t), c in terms.items()}
    assert monos == {
        Monomial((1, 2, 0), 3, 4): 5,
        Monomial((1, 0, 2), 3, 4): 5,
        Monomial((0, 1, 2), 3, 4): 5,
    }


@pytest.mark.parametrize("route", [htilde_plain, htilde_compact])
def test_htilde_routes_equal_the_all_words_sum(route):
    count = 0
    for lam in [()] + list(partitions_up_to(6)):
        for n in range(0, 6):
            assert route(lam, n) == htilde_all_words(lam, n), (lam, n)
            count += 1
    assert count == 30 * 6


def test_p_equals_its_full_content_sum():
    count = 0
    for lam in partitions_up_to(5):
        for n in range(len(lam), 6):
            assert p_poly(lam, n) == _e_sum(compositions_rearranging(lam, n), n), (lam, n)
            count += 1
    assert count == 66


def test_g_and_qs_schur_equal_their_full_content_sums():
    count = 0
    for gamma in sorted(set(strong_compositions_up_to(5))):
        for n in range(len(gamma), 6):
            value = g_poly(gamma, n)
            assert value == _e_sum(compositions_with_support(gamma, n), n), (gamma, n)
            assert qs_schur(gamma, n) == value.specialize(q=0, t=0), (gamma, n)
            count += 1
    assert count == 106
