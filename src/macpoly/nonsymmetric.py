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
repeat mask); the compositions share one increasing diagram, whose walk and
content plan are built once per call, each composition giving only its
basement.  So every weight is over D, the product of the hooks of the cells
above row 1, and the mask fixes the numerator up to q^maj t^coinv.  The hook
of a cell that every key of x repeats divides every weight of x, so it leaves
x's weights and x's denominator before the sum; E, P and G then sum
numerators by :func:`~macpoly.polyring.tally_by_x` and reduce each distinct
(numerator, denominator) once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat
from operator import and_, gt
from typing import Iterable, Iterator, Sequence

from .polyring import (
    MPoly, NonPolynomialError, Orbit, QtFactor, QtRational, Scalar, divide_binomials,
    expand_orbits, one_minus_qt, swapped_keys, tally_by_x, times_binomials,
)
from .shapes import (
    INF_BASEMENT,
    Diagram,
    Filling,
    ShapeError,
    _walk,
    coinv_comp,
    composition_stats,
    content_plan,
    diagram,
    maj,
    sorting_permutation,
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
        by_x: dict = {}
        for exps, value in self.coeffs.items():
            if value.den not in quotients:
                try:
                    quotients[value.den] = divide_binomials(multiplier, value.den)
                except NonPolynomialError:
                    quotients[value.den] = None
            quo = quotients[value.den]
            poly = (value * multiplier).to_polynomial() if quo is None else value.num * quo
            if poly:
                by_x[exps] = poly.qt_terms()
        return MPoly._trusted(self.n, by_x)

    def specialize(self, q: Scalar | None = None, t: Scalar | None = None) -> MPoly:
        """Evaluate q and t, producing a plain polynomial in x; both are required."""
        if q is None or t is None:
            raise ValueError("an EResult is specialized at both q and t")
        return MPoly._trusted(self.n, {
            x: {(0, 0): c} for x, value in self.coeffs.items() if (c := value.specialize(q=q, t=t))
        })

    def swap_x(self, i: int, j: int) -> "EResult":
        """Exchange the variables x_i and x_j (1-based); an index outside 1..n is refused."""
        return EResult(self.n, swapped_keys(self.coeffs, self.n, i, j))

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


def _walk_orbit(kind: str, alphas: Iterable[Sequence[int]], n: int, orbit: Orbit | None, *out) -> Diagram | None:
    """Run the compiled walk of ``kind``, "basement" or "zero", into ``out`` once per
    composition of ``alphas``, over 1..n with ``orbit``'s content plan.  The compositions
    must rearrange the parts of the first (one orbit), so that they share one increasing
    diagram: it, its walk and the plan are built once, and each composition gives only
    its basement.  Returns the diagram, None for no compositions."""
    shape = None
    for alpha in alphas:
        if shape is None:
            inc, beta, _ = composition_stats(alpha)
            shape = diagram(inc)
            walk, plan = _walk(shape, kind), content_plan(orbit, n, sum(inc))
        else:
            beta = sorting_permutation(alpha)
            if tuple(map((0, *alpha).__getitem__, beta)) != shape.heights:
                raise ShapeError(f"{tuple(alpha)} does not rearrange the parts {shape.heights}")
        walk(n, beta, plan, *out)
    return shape


def _basement_counts(alphas: Iterable[Sequence[int]], n: int, orbit: Orbit | None = None) -> tuple:
    """The basement fillings of each of ``alphas``, one orbit as in :func:`_walk_orbit`,
    whose content x over 1..n is a representative of ``orbit`` (any x without one),
    counted by (x, maj, coinv, repeat mask), and the :class:`Filling` arguments of the
    first per mask: the mask, over ``shape.steps`` of the shared diagram, fixes a weight's
    hooks."""
    counts, firsts = {}, {}
    shape = _walk_orbit("basement", alphas, n, orbit, counts, firsts)
    return counts, {mask: (shape, e, b) for mask, (e, b) in firsts.items()}


def _numerators(alphas: Iterable[Sequence[int]], n: int, orbit: Orbit | None = None) -> dict:
    """Each summed x's coefficient in :func:`_e_sum` as (numerator terms (q, t) -> c,
    sorted hooks): the hooks are those of the cells above row 1 that some key of x
    does not repeat, since the hook of a cell that every key of x repeats divides
    every weight of x and is cancelled before the sum."""
    counts, fillings = _basement_counts(alphas, n, orbit)
    always = {}  # x -> the mask of the cells that every key of x repeats
    for x, _, _, mask in counts:
        always[x] = tuple(map(and_, always.get(x, mask), mask))
    keyed = {(x, q, t, (mask, always[x])): c for (x, q, t, mask), c in counts.items()}
    stripped = {}
    for mask, (shape, e, b) in fillings.items():
        num = filling_weight(Filling(shape, e, b)).num
        q, t = min(num.qt_terms())  # q^maj t^coinv: (1 - t)^k adds higher terms
        stripped[mask] = num.mul_monomial(q=-q, t=-t)
    hooks = [shape.hooks[i] for i, _, _ in shape.steps] if fillings else []
    # over D, a weight's numerator has the hook of each cell its mask repeats: here
    # only those of the cells that are not cut
    weights = {(mask, cut): times_binomials(stripped[mask], compress(hooks, map(gt, mask, cut)))
               for mask, cut in {key[3] for key in keyed}}
    dens = {cut: tuple(sorted(QtFactor(*hook) for hook, gone in zip(hooks, cut) if not gone))
            for cut in set(always.values())}
    return {x: (acc, dens[always[x]]) for x, acc in tally_by_x(keyed, weights.__getitem__).items()}


def _e_sum(alphas: Iterable[Sequence[int]], n: int, orbit: Orbit | None = None) -> EResult:
    """The sum of :func:`e_permuted_basement` over ``alphas``, one orbit as in
    :func:`_walk_orbit`: each mask's weight, stripped of its q^maj t^coinv, weighs the
    keys of each x into one numerator over the hooks of :func:`_numerators`, and each
    distinct (numerator, hooks) is reduced once.  With an ``orbit``, only
    representatives are summed, then expanded."""
    coeffs, reduced = {}, {}
    for x, (acc, den) in _numerators(alphas, n, orbit).items():
        key = (frozenset(acc.items()), den)
        if key not in reduced:
            reduced[key] = QtRational(MPoly._trusted(0, {(): acc}), den)
        coeffs[x] = reduced[key]
    return EResult(n, coeffs if orbit is None else expand_orbits(coeffs, orbit.members))


def f_poly(alpha: Sequence[int]) -> EResult:
    """Alias: the permuted-basement value attached to alpha itself."""
    return e_permuted_basement(alpha)
