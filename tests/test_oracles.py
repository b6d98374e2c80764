"""Identities that relate a family to itself at other inputs (q<->t duality
of the modified family, stability under setting x_{n+1} = 0), and oracles
that share no statistics code with the routes they check (specializations
of the modified family and of P, and the Schur positivity of the modified
family, peeled off with the tableau oracle).

They run here rather than in the ``verify`` battery, whose check names and
instance counts are pinned by ``perfbench/reference.json``.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from macpoly.integral import j_compact, j_plain, p_poly
from macpoly.modified import htilde_compact, htilde_plain
from macpoly.nonsymmetric import EResult
from macpoly.polyring import Monomial, MPoly, poly_sum
from macpoly.quasisym import g_poly, schur_ssyt
from macpoly.shapes import conjugate
from macpoly.verify import partitions_up_to, strong_compositions_up_to


def without_last_variable(value):
    """``value`` at x_{n+1} = 0, as a value in x_1..x_n."""
    n = value.n - 1
    if isinstance(value, EResult):
        out = EResult(n)
        for exps, coeff in value.coeffs.items():
            if exps[n] == 0:
                out.add_term(exps[:n], coeff)
        return out
    return MPoly(
        n, {Monomial(m.x[:n], m.q, m.t): c for m, c in value.terms.items() if m.x[n] == 0}
    )


def test_htilde_q_t_duality():
    count = 0
    for mu in partitions_up_to(5):
        for n in range(1, 4):
            assert htilde_compact(mu, n) == htilde_plain(conjugate(mu), n).swap_qt(), (mu, n)
            count += 1
    assert count == 3 * 18


def test_htilde_plain_q_t_duality():
    # plain against plain: no sorted tableaux and no q<->t side choice, so a
    # slip in the compact route's side rule cannot pass both sides
    count = 0
    for mu in partitions_up_to(5):
        for n in range(4):
            assert htilde_plain(mu, n) == htilde_plain(conjugate(mu), n).swap_qt(), (mu, n)
            count += 1
    assert count == 4 * 18


@pytest.mark.parametrize(
    "family, shapes, min_n",
    [
        (htilde_plain, list(partitions_up_to(4)), lambda lam: 1),
        (lambda lam, n: j_compact(lam, n).value, list(partitions_up_to(4)), lambda lam: 1),
        (p_poly, list(partitions_up_to(4)), len),
        (g_poly, list(strong_compositions_up_to(4)), len),
    ],
    ids=["htilde_plain", "j_compact", "p_poly", "g_poly"],
)
def test_n_stability(family, shapes, min_n):
    count = 0
    for shape in shapes:
        for n in range(min_n(shape), 4):
            assert without_last_variable(family(shape, n + 1)) == family(shape, n), (shape, n)
            count += 1
    assert count > 0


def complete_homogeneous(parts, n):
    """h_parts(x_1..x_n): the product over the parts k of h_k, the sum of
    every monomial of degree k, each with coefficient 1."""
    out = MPoly.one(n)
    for k in parts:
        h_k = {
            Monomial(tuple(combo.count(i) for i in range(n)), 0, 0): 1
            for combo in combinations_with_replacement(range(n), k)
        }
        out = out * MPoly(n, h_k)
    return out


def test_htilde_specializes_to_complete_homogeneous():
    # with lam's parts as column heights: H~_lam(x;1,0) = h_lam, H~_lam(x;0,1) = h_lam'
    count = 0
    for lam in partitions_up_to(5):
        for n in (2, 3):
            h_lam, h_conj = complete_homogeneous(lam, n), complete_homogeneous(conjugate(lam), n)
            for route in (htilde_plain, htilde_compact):
                value = route(lam, n)
                assert value.specialize(q=1, t=0) == h_lam, (route.__name__, lam, n)
                assert value.specialize(q=0, t=1) == h_conj, (route.__name__, lam, n)
            count += 1
    assert count == 36


def test_p_at_q_equals_t_is_schur():
    count = 0
    for lam in partitions_up_to(4):
        for n in range(len(lam), 4):
            schur = schur_ssyt(lam, n)
            value = p_poly(lam, n)
            for c in (Fraction(1, 2), Fraction(2, 3)):
                assert value.specialize(q=c, t=c) == schur, (lam, n, c)
                count += 1
    assert count == 44


def n_statistic(mu):
    """n(mu): the sum of (i - 1) mu_i."""
    return sum(i * part for i, part in enumerate(mu))


def schur_coefficients(value, d):
    """The q,t coefficient of each s_nu, |nu| = d, in a symmetric ``value`` of
    degree d in d variables, and what is left: s_nu is peeled off in reverse
    lex order, as x^nu plus lex-smaller monomials."""
    rest = value.qt_coefficients()
    coeffs = {}
    for nu in sorted((nu for nu in partitions_up_to(d) if sum(nu) == d), reverse=True):
        c = coeffs[nu] = rest.get(nu + (0,) * (d - len(nu)), MPoly.zero(0))
        for mono, k in schur_ssyt(nu, d).terms.items():
            rest[mono.x] = rest.get(mono.x, MPoly.zero(0)) - c * k
    return coeffs, rest


def test_htilde_is_schur_positive():
    count = 0
    for mu in partitions_up_to(6):
        d = n = sum(mu)
        coeffs, rest = schur_coefficients(htilde_plain(mu, n), d)
        for nu, c in coeffs.items():
            assert all(k > 0 for k in c.terms.values()), (mu, nu, c)
        assert not any(rest.values()), mu
        assert coeffs[(d,)] == MPoly.one(0), mu
        corner = MPoly.monomial(0, q=n_statistic(mu), t=n_statistic(conjugate(mu)))
        assert coeffs[(1,) * d] == corner, mu
        count += 1
    assert count == 29


# -- H~ to J through the Macdonald-Kostka expansion -------------------------------


def elementary(k, n):
    """e_k(x_1..x_n)."""
    return MPoly(n, {
        Monomial(tuple(int(i in combo) for i in range(n)), 0, 0): 1
        for combo in combinations(range(n), k)
    })


@lru_cache(maxsize=None)
def h_one_minus_t(k, n):
    """h_k[X(1 - t)] in x_1..x_n: the sum over j of (-t)^j h_(k-j) e_j."""
    return poly_sum(n, (
        MPoly.monomial(n, t=j, coeff=(-1) ** j) * complete_homogeneous((k - j,), n) * elementary(j, n)
        for j in range(k + 1)
    ))


@lru_cache(maxsize=None)
def schur_one_minus_t(lam, n):
    """s_lam[X(1 - t)] in x_1..x_n by Jacobi-Trudi: det h_(lam_i - i + j)[X(1 - t)],
    plethysm by X(1 - t) being a ring map; h_k is 0 for k < 0."""
    size = len(lam)
    out = MPoly.zero(n)
    for perm in permutations(range(size)):
        parts = [lam[i] - i + j for i, j in enumerate(perm)]
        if min(parts, default=0) >= 0:
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
            term = MPoly.const(n, sign)
            for k in parts:
                term = term * h_one_minus_t(k, n)
            out = out + term
    return out


@lru_cache(maxsize=None)
def kostka_qt(mu):
    """K_lam,mu(q, t) = t^n(mu) K~_lam,mu(q, 1/t) for every lam: K~ is peeled off
    the standard H~_mu, which is htilde_plain of mu's conjugate (column heights)."""
    d = sum(mu)
    coeffs, rest = schur_coefficients(htilde_plain(conjugate(mu), d), d)
    assert not any(rest.values()), mu
    return {
        lam: MPoly(0, {Monomial((), m.q, n_statistic(mu) - m.t): k for m, k in c.terms.items()})
        for lam, c in coeffs.items()
    }


def j_by_kostka(mu, n):
    """J_mu = the sum over lam of K_lam,mu(q, t) s_lam[X(1 - t)] (Macdonald, ch. VI (8.11))."""
    return poly_sum(n, (
        c.extended(n) * schur_one_minus_t(lam, n) for lam, c in kostka_qt(mu).items() if c
    ))


def test_j_is_the_macdonald_kostka_expansion_of_htilde():
    # ties H~ (inv, maj over all fillings) to J (maj, coinv over nonattacking
    # fillings, by both routes) through K~, with no statistic shared
    count = 0
    for mu in partitions_up_to(5):
        for n in range(1, 5):
            expected = j_by_kostka(mu, n)
            assert j_plain(mu, n) == expected, (mu, n)
            assert j_compact(mu, n).value == expected, (mu, n)
            count += 1
    assert count == 72
