"""Quasisymmetric values G, the quasisymmetry checker, qs_schur (G at q = t = 0,
checked against Demazure atoms in the tests), and the tableau oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .polyring import QUASISYMMETRIC, Monomial, MPoly, tally, unit_weight
from .nonsymmetric import EResult, _basement_walk, _e_sum
from .shapes import ShapeError, as_count, as_partition


def compositions_with_support(gamma: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """Weak compositions of length n whose positive parts read gamma in order:
    none when gamma has more than n parts."""
    gamma = tuple(gamma)
    if not all(p > 0 for p in gamma):
        raise ShapeError(f"{gamma} must have positive parts only")
    return QUASISYMMETRIC.of(gamma, as_count(n))


def g_poly(gamma: Sequence[int], n: int) -> EResult:
    """Sum of f_poly over every placement of gamma's parts among n slots, 0 in
    fewer than len(gamma) variables.  G is quasisymmetric, so the sum weighs
    one exponent vector per orbit: the one with its support first."""
    return _e_sum(compositions_with_support(gamma, n), n, QUASISYMMETRIC)


@dataclass
class QSymDecomposition:
    """Outcome of the quasisymmetry check with the monomial-basis breakdown."""

    is_quasisymmetric: bool
    monomial_coeffs: dict[tuple[int, ...], object]
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None


def qsym_decompose(p: Union[MPoly, EResult]) -> QSymDecomposition:
    """Check invariance of coefficients along increasing variable supports.

    A value is quasisymmetric when, for every strong composition gamma, the
    coefficient of x_{i_1}^{g_1}..x_{i_k}^{g_k} is the same for every strictly
    increasing choice of indices.  Each x's coefficient is compared with those of
    its :data:`QUASISYMMETRIC` orbit; a witness is x and the first member that
    differs.  When there is none, the common coefficients per gamma reassemble
    the input from monomial quasisymmetric sums.
    """
    table = p.coeffs if isinstance(p, EResult) else p.qt_coefficients()
    coeffs: dict[tuple[int, ...], object] = {}
    for x, value in table.items():
        gamma = tuple(e for e in x if e)
        if gamma not in coeffs:
            for y in QUASISYMMETRIC.members(x):
                if table.get(y) != value:  # stored values are nonzero: a missing one differs
                    return QSymDecomposition(False, {}, (x, y))
            coeffs[gamma] = value
    return QSymDecomposition(True, dict(sorted(coeffs.items())))


def schur_ssyt(lam: Sequence[int], n: int) -> MPoly:
    """Classical tableau generating function: rows weakly increase, columns
    strictly increase, entries in 1..n.  Used purely as an external oracle."""
    lam, n = as_partition(lam), as_count(n)
    if not lam:
        return MPoly.one(n)
    rows = [[0] * width for width in lam]
    counts: dict[tuple[int, ...], int] = {}

    def fill(r: int, c: int) -> None:
        if r == len(lam):
            exps = [0] * n
            for row in rows:
                for v in row:
                    exps[v - 1] += 1
            key = tuple(exps)
            counts[key] = counts.get(key, 0) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r][c] = v
            fill(nr, nc)
        rows[r][c] = 0

    fill(0, 0)
    return MPoly(n, {Monomial(x, 0, 0): c for x, c in counts.items()})


def qs_schur(gamma: Sequence[int], n: int) -> MPoly:
    """The q = t = 0 specialization of :func:`g_poly`: every denominator
    1 - q^a t^b (b >= 1) is 1 there, so it counts, by content at prefix
    supports, the basement fillings with maj = coinv = 0, then expands."""
    walk = _basement_walk(compositions_with_support(gamma, n), n, QUASISYMMETRIC)
    counts = Counter((x, 0, 0, None) for (x, q, t, _), _ in walk if not q and not t)
    return tally(n, counts, unit_weight, QUASISYMMETRIC)
