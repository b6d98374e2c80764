"""Permuted-basement nonsymmetric polynomials E and the F alias.  Their
integral form, :func:`macpoly.integral.integral_e`, sums J weights over the
same basement fillings.

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
from functools import lru_cache
from typing import Iterator, Sequence

from .polyring import MPoly, QtRational, one_minus_qt, poly_sum
from .shapes import (
    Filling,
    coinv_comp,
    composition_stats,
    diagram,
    iter_nonattacking,
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
        return poly_sum(
            self.n,
            (
                (value * multiplier).to_polynomial().extended(self.n).mul_monomial(x=exps)
                for exps, value in self.coeffs.items()
            ),
        )

    def specialize(self, q, t) -> MPoly:
        """Evaluate q and t, producing a plain polynomial in x."""
        return poly_sum(
            self.n,
            (
                MPoly.monomial(self.n, x=exps, coeff=value.specialize(q=q, t=t))
                for exps, value in self.coeffs.items()
            ),
        )

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

    Row 1 is pinned to the basement; the cells above it are filled by
    backtracking in cell order, values ascending, each attacking pair checked
    as soon as both of its cells are set.  The order is that of filtering
    every assignment of the free cells, the last cell varying fastest.
    """
    stats = composition_stats(alpha)
    shape = diagram(stats.inc)
    pinned = {i: stats.beta[col] for i, col, _ in shape.bottom}
    for e in iter_nonattacking(stats.inc, len(stats.inc), pinned):
        yield Filling(shape, e, stats.beta)


@lru_cache(maxsize=64)
def _one_minus_t_power(k: int) -> MPoly:
    return one_minus_qt(0, 1) ** k


def filling_weight(f: Filling) -> QtRational:
    """q^maj t^coinv times the (1-t)/(1 - q^(leg+1) t^(arm+1)) cell product
    over cells whose entry differs from the entry below."""
    e, shape = f.flat, f.shape
    den: list[tuple[int, int]] = []
    for i, (j, hook) in enumerate(zip(shape.below, shape.hooks)):
        below = f.basement_entry(shape.cells[i].col) if j is None else e[j]
        if below is not None and e[i] != below:
            den.append(hook)
    num = _one_minus_t_power(len(den)).mul_monomial(q=maj(f), t=coinv_comp(f))
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
