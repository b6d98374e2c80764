"""Identities that relate a family to itself at other inputs (q<->t duality
of the modified family, stability under setting x_{n+1} = 0), and oracles
that share no statistics code with the routes they check (specializations
of the modified family and of P, the Schur positivity of the modified
family, peeled off with the tableau oracle, and the q = 0 corner: E at
q = t = 0 is Mason's Demazure atom, qs_schur the sum of atoms over a
composition's placements, and P at q = 0 the Hall-Littlewood polynomial).

They run here rather than in the ``verify`` battery, whose check names and
instance counts are pinned by ``perfbench/reference.json``.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from macpoly.integral import j_compact, j_plain, p_poly
from macpoly.modified import htilde_compact, htilde_plain
from macpoly.nonsymmetric import EResult, e_permuted_basement, f_poly
from macpoly.polyring import Monomial, MPoly, poly_sum
from macpoly.quasisym import g_poly, qs_schur, schur_ssyt
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


# -- the q = 0 corner: Mason's Demazure atoms ------------------------------------


def weak_compositions(d, n):
    """Every weak composition of d with n parts."""
    if n == 0:
        return [()] if d == 0 else []
    return [(k,) + rest for k in range(d + 1) for rest in weak_compositions(d - k, n - 1)]


def to_mpoly(n, exps_coeffs):
    return MPoly(n, {Monomial(x, 0, 0): c for x, c in exps_coeffs.items()})


def pi_bar(i, f):
    """pi_i f - f on {x: c}, where pi_i f = (x_i f - x_{i+1} s_i f) / (x_i - x_{i+1}):
    with u = x_i, v = x_{i+1}, pi_i u^p v^r is the sum of u^j v^(p+r-j) over
    r <= j <= p, minus that over p < j < r."""
    out = {}
    for x, c in f.items():
        p, r = x[i], x[i + 1]
        js, sign = (range(r, p + 1), 1) if p >= r else (range(p + 1, r), -1)
        for j in js:
            y = x[:i] + (j, p + r - j) + x[i + 2:]
            out[y] = out.get(y, 0) + sign * c
        out[x] = out.get(x, 0) - c
    return {x: c for x, c in out.items() if c}


@lru_cache(maxsize=None)
def atom(alpha):
    """The Demazure atom A_alpha as {x: c}: x^alpha for weakly decreasing alpha,
    and A_(s_i beta) = pi_bar_i A_beta where beta_i > beta_(i+1) (Mason, 2009)."""
    for i in range(len(alpha) - 1):
        if alpha[i] < alpha[i + 1]:
            beta = alpha[:i] + (alpha[i + 1], alpha[i]) + alpha[i + 2:]
            return pi_bar(i, atom(beta))
    return {alpha: 1}


def qs_schur_by_atoms(gamma, n):
    """QS_gamma: the sum of A_beta over the beta of length n whose nonzero parts read gamma."""
    total = {}
    for beta in weak_compositions(sum(gamma), n):
        if tuple(b for b in beta if b) == gamma:
            for x, c in atom(beta).items():
                total[x] = total.get(x, 0) + c
    return to_mpoly(n, total)


ATOM_WINDOW = [alpha for n in range(1, 5) for d in range(1, 5) for alpha in weak_compositions(d, n)]
QS_WINDOW = [
    (gamma, n)
    for d in range(1, 6)
    for gamma in sorted({tuple(b for b in beta if b) for beta in weak_compositions(d, d)})
    for n in range(len(gamma), 6)
]


def test_e_at_q_t_zero_is_the_demazure_atom():
    assert len(ATOM_WINDOW) == 121
    for alpha in ATOM_WINDOW:
        expected = to_mpoly(len(alpha), atom(alpha))
        assert e_permuted_basement(alpha).specialize(q=0, t=0) == expected, alpha
        assert f_poly(alpha).specialize(q=0, t=0) == expected, alpha


def test_atom_oracle_tells_the_variable_orders_apart():
    # the atom in the mirror convention, A_(reverse alpha)(x_n..x_1), matches E
    # at q = t = 0 on only 45 of the 121, so a convention slip fails the atom test
    agree = [
        alpha for alpha in ATOM_WINDOW
        if to_mpoly(len(alpha), {x[::-1]: c for x, c in atom(alpha[::-1]).items()})
        == e_permuted_basement(alpha).specialize(q=0, t=0)
    ]
    assert len(agree) == 45


def test_qs_schur_is_the_sum_of_atoms():
    assert len(QS_WINDOW) == 106
    for gamma, n in QS_WINDOW:
        expected = qs_schur_by_atoms(gamma, n)
        assert qs_schur(gamma, n) == expected, (gamma, n)
        if sum(gamma) <= 4 and n <= 4:
            assert g_poly(gamma, n).specialize(q=0, t=0) == expected, (gamma, n)


def test_qs_schur_oracle_tells_gamma_from_its_reverse():
    assert any(
        qs_schur_by_atoms(gamma, n) != qs_schur_by_atoms(gamma[::-1], n) for gamma, n in QS_WINDOW
    )


def divided_by_one_minus_t_powers(p, bs):
    """p(t) (coefficient list) divided by the product of 1 - t^b over bs, or
    None when that is not a polynomial: the quotient Q of p by 1 - t^b has
    Q_k = p_k + Q_(k-b), and is a polynomial when its top b terms vanish."""
    for b in bs:
        quo = []
        for k, c in enumerate(p):
            quo.append(c + (quo[k - b] if k >= b else 0))
        if any(quo[max(len(p) - b, 0):]):
            return None
        p = quo[:len(p) - b]
    return p


def t_coefficients_at_q_zero(u):
    """A QtRational at q = 0 from its num and den: the q-free part of num as a
    coefficient list in t, and the b of each factor 1 - t^b (a factor
    1 - q^a t^b with a > 0 is 1 there)."""
    coeffs = [0] * (max((m.t for m in u.num.terms), default=0) + 1)
    for m, c in u.num.terms.items():
        if m.q == 0:
            coeffs[m.t] += c
    return coeffs, [f.b for f in u.den if f.a == 0]


def test_e_at_q_zero_has_coefficients_in_z_t():
    for alpha in ATOM_WINDOW:
        for x, u in e_permuted_basement(alpha).coeffs.items():
            assert divided_by_one_minus_t_powers(*t_coefficients_at_q_zero(u)) is not None, (alpha, x)


# -- P at t = 1, at q = 1 and at q = 0 ------------------------------------------------


def monomial_symmetric(lam, n):
    """m_lam(x_1..x_n): every distinct rearrangement of lam padded to n, 0 when ell(lam) > n."""
    if len(lam) > n:
        return MPoly.zero(n)
    return to_mpoly(n, {x: 1 for x in set(permutations(lam + (0,) * (n - len(lam))))})


def test_p_at_t_one_is_monomial_and_at_q_one_is_elementary():
    # Macdonald ch. VI (4.14): P_lam(x; q, 1) = m_lam and P_lam(x; 1, t) = e_lam'
    count = 0
    for lam in partitions_up_to(5):
        for n in range(1, 5):
            e_conj = MPoly.one(n)
            for k in conjugate(lam):
                e_conj = e_conj * elementary(k, n)
            value = p_poly(lam, n)
            assert value.specialize(q=3, t=1) == monomial_symmetric(lam, n), (lam, n)
            assert value.specialize(q=1, t=3) == e_conj, (lam, n)
            count += 1
    assert count == 72


def test_p_at_q_zero_is_hall_littlewood():
    # Macdonald ch. III (2.2): v_lam(t) P_lam(x; 0, t) is the sum over w in S_n of
    # w(x^lam prod_(i<j) (x_i - t x_j) / (x_i - x_j)); as w(Delta) = sgn(w) Delta for
    # the Vandermonde Delta, that is an alternant divided by Delta
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    count = 0
    for lam in partitions_up_to(4):
        for n in range(len(lam), 4):
            xs = sympy.symbols(f"x1:{n + 1}")
            gens = (*xs, t)
            parts = lam + (0,) * (n - len(lam))
            alternant = 0
            for w in permutations(range(n)):
                sign = (-1) ** sum(w[i] > w[j] for i, j in combinations(range(n), 2))
                term = sympy.Mul(*(xs[w[i]] ** parts[i] for i in range(n)))
                for i, j in combinations(range(n), 2):
                    term *= xs[w[i]] - t * xs[w[j]]
                alternant += sign * term
            delta = sympy.Mul(*(xs[i] - xs[j] for i, j in combinations(range(n), 2)))
            expected, rest = sympy.Poly(alternant, *gens).div(sympy.Poly(delta, *gens))
            assert rest.is_zero, (lam, n)
            v_lam = sympy.Mul(*(
                sum(t**k for k in range(j)) for m in set(parts) for j in range(1, parts.count(m) + 1)
            ))
            got = {}
            for x, u in p_poly(lam, n).coeffs.items():
                coeffs = divided_by_one_minus_t_powers(*t_coefficients_at_q_zero(u))
                assert coeffs is not None, (lam, n, x)
                for k, c in enumerate(coeffs):
                    if c:
                        got[(*x, k)] = c
            assert sympy.Poly.from_dict(got, *gens) * sympy.Poly(v_lam, *gens) == expected, (lam, n)
            count += 1
    assert count == 22
