"""The canonical form of :class:`macpoly.polyring.QtRational`, imported with the
first fraction that has a denominator.  A binomial 1 - q^a t^b, g = gcd(a, b),
is 1 - y^g in y = q^(a/g) t^(b/g) (y = t when a = 0): the product over the
divisors d of g of a piece, 1 - y for d = 1 and the cyclotomic polynomial
Phi_d(y) for d > 1.  The pieces are irreducible and pairwise distinct in
Z[q, t], so lowest terms are unique."""

from functools import lru_cache
from math import gcd

from .polyring import MPoly, Monomial, QtFactor, Scalar, divide_chains, one_minus_qt


@lru_cache(maxsize=None)
def piece(d: int) -> tuple[int, ...]:
    """The coefficients of the piece of d in y, lowest first: 1 - y^d divided by
    the pieces of the proper divisors of d."""
    p = one_minus_qt(0, d)
    for e in range(1, d):
        if d % e == 0:
            p = divide_chains(p, 0, 1, piece(e))
    return tuple(p.terms.get(Monomial((), 0, k), 0) for k in range(p.degree() + 1))


def _times(num: MPoly, a: int, b: int, f: tuple[int, ...]) -> MPoly:
    """num times f(q^a t^b)."""
    out: dict[Monomial, Scalar] = {}
    for (x, q, t), c in num.terms.items():
        for k, fk in enumerate(f):
            m = Monomial(x, q + k * a, t + k * b)
            out[m] = out.get(m, 0) + fk * c
    return MPoly._trusted(0, {m: c for m, c in out.items() if c})


def reduced(num: MPoly, den) -> tuple[MPoly, tuple[QtFactor, ...]]:
    """The canonical (numerator, sorted factors) of num / den, num nonzero: on
    each ray (a/g, b/g) every piece dividing the numerator cancels, and those
    left are rebuilt largest first, the largest d left giving 1 - y^d, which uses
    up one piece of each divisor of d and multiplies the numerator by each such
    piece not left.  So binomials of which none cancels come back unchanged."""
    rays: dict[tuple[int, int], list[int]] = {}
    for a, b in den:
        g = gcd(a, b)
        rays.setdefault((a // g, b // g), []).extend(d for d in range(1, g + 1) if g % d == 0)
    kept = []
    for (a, b), left in rays.items():
        for d in sorted(set(left), reverse=True):
            while d in left and (quo := divide_chains(num, a, b, piece(d))) is not None:
                num = quo
                left.remove(d)
        while left:
            d = max(left)
            kept.append(QtFactor(a * d, b * d))
            for e in (e for e in range(1, d + 1) if d % e == 0):
                if e in left:
                    left.remove(e)
                else:
                    num = _times(num, a, b, piece(e))
    return num, tuple(sorted(kept))
