"""Integral-form polynomials J by two routes, the integral form of E, the
hook normalization products, and the symmetric P assembled from its
nonsymmetric pieces."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterable, Mapping, Sequence

from .polyring import (
    SYMMETRIC, MPoly, divide_binomials, pochhammer_factors, tally, times_binomials,
)
from .nonsymmetric import EResult, _basement_counts, _e_sum
from .shapes import (
    Filling,
    as_count,
    as_partition,
    coinv_comp,
    composition_stats,
    conjugate,
    content_kernel,
    diagram,
    enumerate_fillings,
    is_nonattacking,
    iter_nonattacking,
    maj,
)


def hook_product(mu: Sequence[int]) -> MPoly:
    """Normalization product of a partition: over the conjugate column diagram
    with 1 - q^arm t^(leg+1).  By transposition it equals the product over
    the column diagram of mu with 1 - q^leg t^(arm+1); the identity battery
    checks that."""
    hooks = diagram(conjugate(as_partition(mu))).hooks
    return times_binomials(MPoly.one(0), ((arm1 - 1, leg1) for leg1, arm1 in hooks))


def pochhammer_prefactor(mult: Mapping[int, int]) -> MPoly:
    """Product of (t;t)_{m} over the positive-part multiplicities m."""
    return times_binomials(MPoly.one(0), pochhammer_factors(mult.values()))


def hook_product_inc(alpha: Sequence[int]) -> MPoly:
    """Pochhammer prefactor times the above-bottom-row cell binomials of the
    increasing diagram of alpha."""
    stats = composition_stats(alpha)
    shape = diagram(stats.inc)
    hooks = (hook for below, hook in zip(shape.below, shape.hooks) if below is not None)
    return times_binomials(pochhammer_prefactor(stats.mult), hooks)


@lru_cache(maxsize=4096)
def _j_factor_terms(heights: tuple, mask: tuple[bool, ...], pochhammer: tuple[int, ...]) -> MPoly:
    """The q,t part of a J weight: the product of (t;t)_m over ``pochhammer``,
    times, for each cell above row 1, 1 - q^(leg+1) t^(arm+1) where ``mask``
    says its entry repeats the one below and 1 - t where it differs."""
    shape = diagram(heights)
    hooks = (hook for j, hook in zip(shape.below, shape.hooks) if j is not None)
    cells = [hook if repeat else (0, 1) for repeat, hook in zip(mask, hooks)]
    return times_binomials(MPoly.one(0), pochhammer_factors(pochhammer) + cells)


def j_keys(heights: Sequence[int], n: int, fillings: Iterable[Filling]) -> Counter:
    """Fillings of the diagram of ``heights``, entries in 1..n, counted by
    (x, maj, coinv, repeat mask): a J weight is x^sigma q^maj t^coinv times
    the q,t part of :func:`_j_factor_terms`, which the mask fixes."""
    repeats, content = diagram(heights).repeats, content_kernel(None, n)
    return Counter((content(f.flat), maj(f), coinv_comp(f), repeats(f.flat)) for f in fillings)


def _j_weigh(heights: Sequence[int], pochhammer: Iterable[int]) -> Callable:
    """The q,t part of a J weight on the diagram of ``heights`` by repeat
    mask, with the product of (t;t)_m over ``pochhammer`` folded in."""
    heights, pochhammer = tuple(heights), tuple(sorted(pochhammer))
    return lambda mask: _j_factor_terms(heights, mask, pochhammer)


def j_weight_poly(f: Filling, n: int) -> MPoly:
    """The J weight of one filling (see :func:`j_keys`), its entries checked
    to lie in 1..n."""
    f.x_exponents(n)  # raises ValueError on an entry outside 1..n
    heights = f.shape.heights
    return tally(n, j_keys(heights, n, [f]), _j_weigh(heights, ()))


def j_plain(mu: Sequence[int], n: int) -> MPoly:
    """(1-t)^(number of parts) times the sum over nonattacking fillings of
    the column diagram of mu, entries in 1..n, no basement."""
    mu = as_partition(mu)
    fillings = enumerate_fillings(diagram(mu), as_count(n), predicate=is_nonattacking)
    return tally(n, j_keys(mu, n, fillings), _j_weigh(mu, (1,) * len(mu)), SYMMETRIC)


@dataclass(frozen=True)
class JResult:
    """Integral-form value with its Pochhammer prefactor kept on the side."""

    value: MPoly
    mult_prefactor: Mapping[int, int]

    def quotient(self) -> MPoly:
        """The integer-coefficient polynomial left after dividing the value
        by the Pochhammer prefactor; raises
        :class:`~macpoly.polyring.NonPolynomialError` when it does not
        divide."""
        return divide_binomials(
            self.value, pochhammer_factors(self.mult_prefactor.values())
        )


def j_compact(mu: Sequence[int], n: int) -> JResult:
    """Pochhammer prefactor times the sum over ordered nonattacking fillings
    of the increasing rearrangement of mu; equal to :func:`j_plain`."""
    stats, n = composition_stats(as_partition(mu)), as_count(n)
    shape = diagram(stats.inc)
    fillings = map(Filling, repeat(shape), iter_nonattacking(stats.inc, n, ordered=True))
    weigh = _j_weigh(stats.inc, stats.mult.values())
    return JResult(tally(n, j_keys(stats.inc, n, fillings), weigh, SYMMETRIC), dict(stats.mult))


def integral_e(alpha: Sequence[int]) -> MPoly:
    """Integral form: the Pochhammer prefactor times the per-filling products
    with denominators replaced by honest binomial factors.

    It equals ``e_permuted_basement(alpha).cleared_by(hook_product_inc(alpha))``;
    the identity battery checks that.
    """
    stats = composition_stats(alpha)
    n = len(stats.inc)
    counts, _ = _basement_counts([alpha], n)
    return tally(n, counts, _j_weigh(stats.inc, stats.mult.values()))


def compositions_rearranging(lam: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """All weak compositions of length n whose positive parts rearrange lam's:
    none when lam has more than n positive parts."""
    return SYMMETRIC.of(lam, as_count(n))


def p_poly(lam: Sequence[int], n: int) -> EResult:
    """Monic symmetric value: the sum of f_poly over all weak compositions of
    length n that sort to lam, 0 in fewer than len(lam) variables.  P is
    symmetric, so the sum weighs one exponent vector per orbit."""
    return _e_sum(compositions_rearranging(as_partition(lam), n), n, SYMMETRIC)
