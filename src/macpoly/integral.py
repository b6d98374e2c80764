"""Integral-form polynomials J by two routes, the hook normalization
products, and the symmetric P assembled from its nonsymmetric pieces."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product as iproduct
from typing import Mapping, Sequence

from .polyring import MPoly, exact_div, one_minus_qt, pochhammer_tt, poly_sum
from .nonsymmetric import EResult, f_poly
from .shapes import (
    Diagram,
    Filling,
    ShapeError,
    arm_composition,
    arm_partition,
    coinv_comp,
    composition_stats,
    conjugate,
    diagram,
    is_nonattacking,
    is_ordered,
    leg,
    maj,
)


def _as_partition(mu: Sequence[int]) -> tuple[int, ...]:
    mu = tuple(mu)
    if any(a < b for a, b in zip(mu, mu[1:])) or any(p <= 0 for p in mu):
        raise ShapeError(f"{mu} is not a partition with positive parts")
    return mu


def hook_product(mu: Sequence[int], n_ambient: int = 0) -> MPoly:
    """Normalization product of a partition: over the conjugate column diagram
    with 1 - q^arm t^(leg+1), equal by transposition to the product over the
    column diagram of mu with 1 - q^leg t^(arm+1).  Both are computed and
    must agree."""
    mu = _as_partition(mu)
    shape_a = diagram(conjugate(mu))
    form_a = MPoly.one(n_ambient)
    for cell in shape_a.cells():
        form_a = form_a * one_minus_qt(
            arm_partition(shape_a, cell), leg(shape_a, cell) + 1, n_ambient
        )
    shape_b = diagram(mu)
    form_b = MPoly.one(n_ambient)
    for cell in shape_b.cells():
        form_b = form_b * one_minus_qt(
            leg(shape_b, cell), arm_partition(shape_b, cell) + 1, n_ambient
        )
    if form_a != form_b:
        raise AssertionError("the two normalization-product forms disagree")
    return form_a


def pochhammer_prefactor(mult: Mapping[int, int], n_ambient: int = 0) -> MPoly:
    """Product of (t;t)_{m} over the positive-part multiplicities m."""
    out = MPoly.one(n_ambient)
    for m in mult.values():
        out = out * pochhammer_tt(m, n_ambient)
    return out


def hook_product_inc(alpha: Sequence[int], n_ambient: int = 0) -> MPoly:
    """Pochhammer prefactor times the above-bottom-row cell binomials of the
    increasing diagram of alpha."""
    stats = composition_stats(alpha)
    shape = diagram(stats.inc)
    out = pochhammer_prefactor(stats.mult, n_ambient)
    for cell in shape.cells():
        if cell.row >= 2:
            out = out * one_minus_qt(
                leg(shape, cell) + 1, arm_composition(shape, cell) + 1, n_ambient
            )
    return out


def j_weight_poly(f: Filling, n: int) -> MPoly:
    """x^sigma q^maj t^coinv times the above-row-1 cell factors: the binomial
    1 - q^(leg+1) t^(arm+1) where the entry repeats the one below, 1 - t
    where it differs."""
    shape = f.shape
    out = MPoly.monomial(n, x=f.x_exponents(n), q=maj(f), t=coinv_comp(f))
    for cell in shape.cells():
        if cell.row < 2:
            continue
        if f[cell] == f[(cell.col, cell.row - 1)]:
            out = out * one_minus_qt(
                leg(shape, cell) + 1, arm_composition(shape, cell) + 1, n
            )
        else:
            out = out * one_minus_qt(0, 1, n)
    return out


def _iter_nonattacking(shape: Diagram, n: int, ordered: bool):
    cells = shape.cells()
    for combo in iproduct(range(1, n + 1), repeat=len(cells)):
        f = Filling(shape, dict(zip(cells, combo)))
        if not is_nonattacking(f):
            continue
        if ordered and not is_ordered(f):
            continue
        yield f


def j_plain(mu: Sequence[int], n: int) -> MPoly:
    """(1-t)^(number of parts) times the sum over nonattacking fillings of
    the column diagram of mu, entries in 1..n, no basement."""
    mu = _as_partition(mu)
    fillings = _iter_nonattacking(diagram(mu), n, ordered=False)
    total = poly_sum(n, (j_weight_poly(f, n) for f in fillings))
    return one_minus_qt(0, 1, n) ** len(mu) * total


@dataclass(frozen=True)
class JResult:
    """Integral-form value with its Pochhammer prefactor kept on the side."""

    value: MPoly
    mult_prefactor: Mapping[int, int]

    def quotient(self) -> MPoly:
        """The integer-coefficient polynomial left after dividing the value
        by the Pochhammer prefactor; exact by construction."""
        return exact_div(
            self.value, pochhammer_prefactor(self.mult_prefactor, self.value.n)
        )


def j_compact(mu: Sequence[int], n: int) -> JResult:
    """Pochhammer prefactor times the sum over ordered nonattacking fillings
    of the increasing rearrangement of mu; equal to :func:`j_plain`."""
    mu = _as_partition(mu)
    stats = composition_stats(mu)
    fillings = _iter_nonattacking(diagram(stats.inc), n, ordered=True)
    total = poly_sum(n, (j_weight_poly(f, n) for f in fillings))
    value = pochhammer_prefactor(stats.mult, n) * total
    return JResult(value, dict(stats.mult))


def compositions_rearranging(lam: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """All weak compositions of length n whose positive parts rearrange lam."""
    lam = tuple(lam)
    if len([p for p in lam if p > 0]) > n:
        raise ValueError(f"{lam} has more than {n} positive parts")
    padded = tuple(lam) + (0,) * (n - len(lam))
    return sorted(set(permutations(padded)))


def p_poly(lam: Sequence[int], n: int) -> EResult:
    """Monic symmetric value: the sum of f_poly over all weak compositions of
    length n that sort to lam."""
    lam = _as_partition(lam)
    out = EResult(n)
    for alpha in compositions_rearranging(lam, n):
        out += f_poly(alpha)
    return out
