"""The canonical form of :class:`macpoly.polyring.QtRational`, imported with the
first fraction that has a denominator.  A binomial 1 - q^a t^b, g = gcd(a, b),
is 1 - y^g in y = q^(a/g) t^(b/g) (y = t when a = 0): the product over the
divisors d of g of a piece, 1 - y for d = 1 and the cyclotomic polynomial
Phi_d(y) for d > 1.  The pieces are irreducible and pairwise distinct in
Z[q, t], so lowest terms are unique.  Each denominator's rays and pieces are
planned once (:func:`_plan`, cached per denominator), and a reduction is that
plan applied to a numerator."""

from functools import lru_cache
from math import gcd

from .polyring import MPoly, QtFactor, divide_chains, one_minus_qt


@lru_cache(maxsize=None)
def piece(d: int) -> tuple[int, ...]:
    """The coefficients of the piece of d in y, lowest first: 1 - y^d divided by
    the pieces of the proper divisors of d."""
    p = one_minus_qt(0, d)
    for e in _divisors(d)[:-1]:
        p = divide_chains(p, 0, 1, piece(e))
    return tuple(p.qt_terms().get((0, k), 0) for k in range(p.degree() + 1))


@lru_cache(maxsize=1024)
def _plan(den: tuple[QtFactor, ...]) -> tuple:
    """Per ray (a, b) of ``den``: (a, b, pieces), each divisor d of a binomial on
    the ray once, largest first, as (d, its piece, how many binomials it divides,
    the divisors of d)."""
    rays: dict[tuple[int, int], dict[int, int]] = {}
    for a, b in den:
        g = gcd(a, b)
        counts = rays.setdefault((a // g, b // g), {})
        for d in _divisors(g):
            counts[d] = counts.get(d, 0) + 1
    return tuple((a, b, tuple((d, piece(d), k, _divisors(d)) for d, k in sorted(counts.items(), reverse=True)))
                 for (a, b), counts in rays.items())


def _divisors(g: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, g + 1) if g % d == 0)


def reduced(num: MPoly, den) -> tuple[MPoly, tuple[QtFactor, ...]]:
    """The canonical (numerator, sorted factors) of num / den, num nonzero, by the
    plan of den, made once per denominator: on each ray (a/g, b/g) every piece
    dividing the numerator cancels, and those left are rebuilt largest first, the
    largest d left giving 1 - y^d, which uses up one piece of each divisor of d and
    multiplies the numerator by each such piece not left.  So binomials of which
    none cancels come back unchanged."""
    kept = []
    for a, b, pieces in _plan(tuple(sorted(den))):
        left = {}
        for d, f, k, _ in pieces:
            while k and (quo := divide_chains(num, a, b, f)) is not None:
                num, k = quo, k - 1
            left[d] = k
        for d, _, _, divisors in pieces:
            while left[d]:
                kept.append(QtFactor(a * d, b * d))
                for e in divisors:
                    if left[e]:
                        left[e] -= 1
                    else:
                        num = num * MPoly(0, {((), k * a, k * b): c for k, c in enumerate(piece(e))})
    return num, tuple(sorted(kept))
