"""Permuted-basement nonsymmetric polynomials E, the F alias, and their
integral forms.

An E value is indexed by a weak composition alpha of length n (the variable
count): fillings live on the increasing rearrangement of alpha with the
maximal-length sorting permutation as basement.  Nonattacking forces row 1
to copy the basement, so enumeration assigns row 1 directly and searches the
cells above; a test cross-checks this against brute-force filtering.

Coefficients are :class:`QtRational` values: each cell whose entry differs
from the one below contributes (1-t) over (1 - q^(leg+1) t^(arm+1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Iterator, Sequence

from .polyring import (
    MPoly,
    NonPolynomialError,
    QtFactor,
    QtRational,
    one_minus_qt,
    poly_sum,
)
from .shapes import (
    Cell,
    Filling,
    arm_composition,
    coinv_comp,
    composition_stats,
    diagram,
    is_nonattacking,
    is_ordered,
    leg,
    maj,
)


@dataclass
class EResult:
    """Polynomial in x with QtRational coefficients, keyed by exponent vector."""

    n: int
    coeffs: dict[tuple[int, ...], QtRational] = field(default_factory=dict)

    def add_term(self, exps: tuple[int, ...], value: QtRational) -> None:
        if exps in self.coeffs:
            value = self.coeffs[exps] + value
        if value.is_zero():
            self.coeffs.pop(exps, None)
        else:
            self.coeffs[exps] = value

    def __add__(self, other: "EResult") -> "EResult":
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        out = EResult(self.n, dict(self.coeffs))
        for exps, value in other.coeffs.items():
            out.add_term(exps, value)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EResult):
            return NotImplemented
        if self.n != other.n:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        zero = QtRational.zero()
        return all(
            self.coeffs.get(k, zero) == other.coeffs.get(k, zero) for k in keys
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def cleared_by(self, multiplier: MPoly) -> MPoly:
        """Multiply every coefficient by a q,t-polynomial and demand that all
        denominators cancel; returns the resulting honest polynomial."""
        total = MPoly.zero(self.n)
        for exps, value in self.coeffs.items():
            coeff = (value * multiplier).to_polynomial().extended(self.n)
            total = total + coeff.mul_monomial(x=exps)
        return total

    def to_mpoly(self) -> MPoly:
        """Succeeds when every coefficient is already polynomial."""
        return self.cleared_by(MPoly.one(0))

    def specialize(self, q, t) -> MPoly:
        """Evaluate q and t, producing a plain polynomial in x."""
        total = MPoly.zero(self.n)
        for exps, value in self.coeffs.items():
            total = total + MPoly.monomial(
                self.n, x=exps, coeff=value.specialize(q=q, t=t)
            )
        return total

    def specialize_q_zero(self) -> "EResult":
        out = EResult(self.n)
        for exps, value in self.coeffs.items():
            out.add_term(exps, value.specialize(q=0))
        return out

    def swap_x(self, i: int, j: int) -> "EResult":
        out = EResult(self.n)
        for exps, value in self.coeffs.items():
            es = list(exps)
            es[i - 1], es[j - 1] = es[j - 1], es[i - 1]
            out.add_term(tuple(es), value)
        return out

    def total_x_degrees(self) -> set[int]:
        return {sum(exps) for exps in self.coeffs}

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
    maximal-length sorting permutation as basement, entries in 1..len(alpha).

    Row 1 is pinned to the basement; only the cells above row 1 are searched.
    """
    stats = composition_stats(alpha)
    shape = diagram(stats.inc)
    n = len(stats.inc)
    base: dict[Cell, int] = {}
    for col in range(1, shape.n_cols + 1):
        if shape.height(col) >= 1:
            base[Cell(col, 1)] = stats.beta[col - 1]
    free = [c for c in shape.cells() if c.row >= 2]
    for combo in iproduct(range(1, n + 1), repeat=len(free)):
        entries = dict(base)
        entries.update(zip(free, combo))
        f = Filling(shape, entries, stats.beta)
        if is_nonattacking(f):
            yield f


def filling_weight(f: Filling) -> QtRational:
    """q^maj t^coinv times the (1-t)/(1 - q^(leg+1) t^(arm+1)) cell product
    over cells whose entry differs from the entry below."""
    shape = f.shape
    num = MPoly.monomial(0, q=maj(f), t=coinv_comp(f))
    den: list[QtFactor] = []
    for cell in shape.cells():
        below = f.south(cell)
        if below is None or f[cell] == below:
            continue
        num = num * one_minus_qt(0, 1)
        den.append(QtFactor(leg(shape, cell) + 1, arm_composition(shape, cell) + 1))
    return QtRational(num, den)


def e_permuted_basement(alpha: Sequence[int]) -> EResult:
    """Sum of x^sigma wt(sigma) over the nonattacking basement fillings."""
    alpha = tuple(alpha)
    n = len(alpha)
    out = EResult(n)
    for f in iter_basement_fillings(alpha):
        out.add_term(f.x_exponents(n), filling_weight(f))
    return out


def f_poly(alpha: Sequence[int]) -> EResult:
    """Alias: the permuted-basement value attached to alpha itself."""
    return e_permuted_basement(alpha)


def integral_e(alpha: Sequence[int], verify: bool = False) -> MPoly:
    """Integral form: the Pochhammer prefactor times the per-filling products
    with denominators replaced by honest binomial factors.

    With ``verify=True`` the same value is recomputed as the multiplier-
    cleared product of :func:`e_permuted_basement`, and the two must agree.
    """
    from .integral import j_weight_poly, pochhammer_prefactor, hook_product_inc

    alpha = tuple(alpha)
    n = len(alpha)
    stats = composition_stats(alpha)
    prefactor = pochhammer_prefactor(stats.mult, n)
    fillings = list(iter_basement_fillings(alpha))
    if not all(is_ordered(f) for f in fillings):
        raise AssertionError("basement filling lost the ordered property")
    value = prefactor * poly_sum(n, (j_weight_poly(f, n) for f in fillings))
    if verify:
        cleared = e_permuted_basement(alpha).cleared_by(hook_product_inc(alpha))
        if cleared != value:
            raise NonPolynomialError(
                "integral-form routes disagree; convention bug"
            )
    return value
