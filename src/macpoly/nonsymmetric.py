"""Permuted-basement nonsymmetric polynomials E and the F alias.  Their
integral form, :func:`macpoly.integral.integral_e`, sums J weights over the
same basement fillings.

An E value is indexed by a weak composition alpha of length n (the variable
count): fillings live on the increasing rearrangement of alpha with the
maximal-length sorting permutation as basement.  Nonattacking forces row 1
to copy the basement, so enumeration assigns row 1 directly and searches the
cells above; a test cross-checks this against brute-force filtering.

Coefficients are :class:`QtRational` values: each cell whose entry differs
from the one below contributes (1-t) over (1 - q^(leg+1) t^(arm+1)).  E, P,
G and the integral form of E read the compiled basement walk of each
composition of one orbit, which counts each kept filling by (x, maj, coinv,
repeat mask); the compositions share one increasing diagram, so every weight
is over D, the product of the hooks of its cells above row 1, and the mask
fixes the numerator up to q^maj t^coinv.  So E, P and G sum numerators by
:func:`~macpoly.polyring.tally_by_x` and reduce once per x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .polyring import (
    MPoly, NonPolynomialError, Orbit, QtFactor, QtRational, Scalar, _monomial, divide_binomials,
    expand_orbits, one_minus_qt, tally_by_x, times_binomials,
)
from .shapes import (
    INF_BASEMENT,
    Filling,
    _walk,
    coinv_comp,
    composition_stats,
    content_plan,
    diagram,
    maj,
)

@dataclass
class EResult:
    """Polynomial in x with nonzero QtRational coefficients, keyed by exponent vector."""

    n: int
    coeffs: dict[tuple[int, ...], QtRational] = field(default_factory=dict)

    def add_term(self, exps: tuple[int, ...], value: QtRational) -> None:
        if exps in self.coeffs:
            value = self.coeffs[exps] + value
        if value.is_zero():
            self.coeffs.pop(exps, None)
        else:
            self.coeffs[exps] = value

    def __iadd__(self, other: "EResult") -> "EResult":
        """Add ``other`` in place, term by term in its order."""
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        for exps, value in other.coeffs.items():
            self.add_term(exps, value)
        return self

    def __add__(self, other: "EResult") -> "EResult":
        out = EResult(self.n, dict(self.coeffs))
        out += other
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def cleared_by(self, multiplier: MPoly) -> MPoly:
        """Multiply every coefficient by a q,t-polynomial and demand that all
        denominators cancel; returns the resulting honest polynomial.

        The multiplier is divided once by each distinct denominator, and each
        numerator with that denominator is multiplied by the quotient.  Where
        the multiplier alone is not divisible, the coefficient is multiplied
        first and reduced, so its numerator can supply the missing factor;
        a denominator that still survives raises
        :class:`~macpoly.polyring.NonPolynomialError`.
        """
        quotients: dict[tuple, MPoly | None] = {}
        acc: dict = {}
        for exps, value in self.coeffs.items():
            if value.den not in quotients:
                try:
                    quotients[value.den] = divide_binomials(multiplier, value.den)
                except NonPolynomialError:
                    quotients[value.den] = None
            quo = quotients[value.den]
            poly = (value * multiplier).to_polynomial() if quo is None else value.num * quo
            acc.update({_monomial((exps, q, t)): c for (_, q, t), c in poly.terms.items()})
        # as in MPoly.extended: terms of n = 0 polynomials, moved to distinct x
        return MPoly._trusted(self.n, acc)

    def specialize(self, q: Scalar | None = None, t: Scalar | None = None) -> MPoly:
        """Evaluate q and t, producing a plain polynomial in x; both are required."""
        if q is None or t is None:
            raise ValueError("an EResult is specialized at both q and t")
        return MPoly._trusted(self.n, {
            _monomial((x, 0, 0)): c for x, value in self.coeffs.items() if (c := value.specialize(q=q, t=t))
        })

    def swap_x(self, i: int, j: int) -> "EResult":
        """Exchange the variables x_i and x_j (1-based)."""
        order = list(range(self.n))
        order[i - 1], order[j - 1] = j - 1, i - 1
        return EResult(self.n, {tuple(map(x.__getitem__, order)): v for x, v in self.coeffs.items()})

    def to_json_obj(self) -> dict:
        items = []
        for exps in sorted(self.coeffs, reverse=True):
            value = self.coeffs[exps]
            items.append(
                {
                    "x": list(exps),
                    "num": value.num.to_json_obj()["terms"],
                    "den": [[f.a, f.b] for f in value.den],
                }
            )
        return {"n": self.n, "coeffs": items}


def iter_basement_fillings(alpha: Sequence[int]) -> Iterator[Filling]:
    """Nonattacking fillings of the increasing diagram of alpha with the
    maximal-length sorting permutation as basement, entries in 1..len(alpha),
    from the compiled walk, which pins row 1 to the basement: in the order of
    filtering every assignment, the last cell varying fastest."""
    stats = composition_stats(alpha)
    shape = diagram(stats.inc)
    return map(Filling, repeat(shape), shape.walk(len(stats.inc), stats.beta), repeat(stats.beta))


@lru_cache(maxsize=64)
def _one_minus_t_power(k: int) -> MPoly:
    return one_minus_qt(0, 1) ** k


def filling_weight(f: Filling) -> QtRational:
    """q^maj t^coinv times the (1-t)/(1 - q^(leg+1) t^(arm+1)) cell product
    over cells whose entry differs from the entry below: in row 1, every cell
    over "inf", those unequal to a permutation, none with no basement.  It is
    canonical: no piece of a hook divides the numerator, whose terms share
    q-exponent maj, as every hook has leg + 1 >= 1."""
    e, shape, b = f.flat, f.shape, f.basement
    cells = [i for (i, _, _), repeat in zip(shape.steps, shape.repeats(e)) if not repeat]
    if b == INF_BASEMENT:
        cells += [i for i, _, _ in shape.bottom]
    elif b is not None:
        cells += [i for i, col, _ in shape.bottom if e[i] != b[col]]
    den = [QtFactor(*shape.hooks[i]) for i in cells]
    num = _one_minus_t_power(len(den)).mul_monomial(q=maj(f), t=coinv_comp(f))
    return QtRational._trusted(num, tuple(sorted(den)))


def e_permuted_basement(alpha: Sequence[int]) -> EResult:
    """Sum of x^sigma wt(sigma) over the nonattacking basement fillings."""
    return _e_sum([alpha], len(alpha))


def _basement_counts(alphas: Iterable[Sequence[int]], n: int, orbit: Orbit | None = None) -> tuple:
    """The basement fillings of each of ``alphas`` whose content x over 1..n is a
    representative of ``orbit`` (any x without one), counted by (x, maj, coinv, repeat
    mask), and the :class:`Filling` arguments of the first per mask.  The compositions
    must rearrange the same parts (one orbit), so that they share one increasing
    diagram: then the mask, over ``shape.steps``, fixes a weight's hooks."""
    counts, firsts = {}, {}
    for stats in map(composition_stats, alphas):
        plan = content_plan(orbit, n, sum(stats.inc))
        _walk(shape := diagram(stats.inc), "basement")(n, stats.beta, plan, counts, firsts)
    return counts, {mask: (shape, e, b) for mask, (e, b) in firsts.items()}


def _e_sum(alphas: Iterable[Sequence[int]], n: int, orbit: Orbit | None = None) -> EResult:
    """The sum of :func:`e_permuted_basement` over ``alphas``, one orbit as in
    :func:`_basement_counts`.  Each mask's weight, brought over D (the hooks above row 1)
    and stripped of its q^maj t^coinv, weighs the keys of each x into one numerator,
    reduced once over D.  With an ``orbit``, only representatives are summed, then expanded."""
    counts, fillings = _basement_counts(alphas, n, orbit)
    weights = {}
    for mask, (shape, e, b) in fillings.items():
        num = filling_weight(Filling(shape, e, b)).num
        num = times_binomials(num, (shape.hooks[i] for (i, _, _), same in zip(shape.steps, mask) if same))
        _, q, t = min(num.terms)  # q^maj t^coinv: (1 - t)^k and hooks 1 - q^a t^b, a >= 1, add higher terms
        weights[mask] = num.mul_monomial(q=-q, t=-t)
    den = tuple(sorted(QtFactor(*shape.hooks[i]) for i, _, _ in shape.steps)) if fillings else ()
    coeffs = {x: QtRational(MPoly._trusted(0, {_monomial(((), *qt)): c for qt, c in acc.items()}), den)
              for x, acc in tally_by_x(counts, weights.__getitem__).items()}
    return EResult(n, coeffs if orbit is None else expand_orbits(coeffs, orbit.members))


def f_poly(alpha: Sequence[int]) -> EResult:
    """Alias: the permuted-basement value attached to alpha itself."""
    return e_permuted_basement(alpha)
