"""Exact sparse arithmetic in Z[x_1..x_n, q, t] and factored q,t-fractions.

Two value types carry every computation in this package:

* :class:`MPoly` -- sparse polynomial with arbitrary-precision integer
  coefficients in the x variables plus the two parameters q and t.  A
  q,t-only value is one in n = 0, and :meth:`MPoly.extended` embeds it.
* :class:`QtRational` -- a q,t-polynomial divided by a multiset of binomial
  factors 1 - q^a t^b.  Denominators are never expanded, so cancellation is
  exact divisibility testing, not multivariate gcd.

Values are immutable once built and compare by canonical term map.  Rational
coefficients appear only after :func:`specialize` substitutes non-integer
points; the core ring stays over the integers.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import accumulate, combinations, repeat
from math import prod
from operator import ge, or_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]


class DimensionError(ValueError):
    """Two operands disagree on the ambient x-variable count."""


class NonPolynomialError(ArithmeticError):
    """A value that has to be polynomial kept a nontrivial denominator."""


class EvaluationError(ZeroDivisionError):
    """A substitution point makes a denominator factor vanish."""


def _normalize_scalar(c: Scalar) -> Scalar:
    if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Monomial(NamedTuple):
    """Exponents of one term: x exponent vector plus q and t exponents."""

    x: tuple[int, ...]
    q: int
    t: int

    def degree(self) -> int:
        return sum(self.x) + self.q + self.t

    def key(self) -> tuple:
        # graded lexicographic with x_1 > ... > x_n > q > t
        return (self.degree(), self.x, self.q, self.t)

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        return Monomial(
            tuple(a + b for a, b in zip(self.x, other.x)),
            self.q + other.q,
            self.t + other.t,
        )

    def divides(self, other: "Monomial") -> bool:
        return (
            self.q <= other.q
            and self.t <= other.t
            and all(a <= b for a, b in zip(self.x, other.x))
        )

    def quotient_by(self, other: "Monomial") -> "Monomial":
        """self / other, assuming ``other.divides(self)``."""
        return Monomial(
            tuple(a - b for a, b in zip(self.x, other.x)),
            self.q - other.q,
            self.t - other.t,
        )


class MPoly:
    """Sparse exact polynomial; ``terms`` maps Monomial -> nonzero coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono.x) != n:
                    raise DimensionError(
                        f"monomial has {len(mono.x)} x-exponents, ambient n={n}"
                    )
                if any(e < 0 for e in mono.x) or mono.q < 0 or mono.t < 0:
                    raise ValueError(f"negative exponent in {mono}")
                c = _normalize_scalar(coeff)
                if c:
                    cleaned[mono] = c
        self.n = n
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, Scalar]) -> "MPoly":
        """The polynomial whose term map is ``terms`` itself, unchecked: for maps
        built in ambient n with nonzero coefficients and nonnegative exponents."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n: int) -> "MPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: Scalar) -> "MPoly":
        return cls(n, {Monomial((0,) * n, 0, 0): c})

    @classmethod
    def one(cls, n: int) -> "MPoly":
        return cls.const(n, 1)

    @classmethod
    def monomial(
        cls,
        n: int,
        x: Sequence[int] = (),
        q: int = 0,
        t: int = 0,
        coeff: Scalar = 1,
    ) -> "MPoly":
        xs = tuple(x) if x else (0,) * n
        return cls(n, {Monomial(xs, q, t): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def degree(self) -> int:
        return max((m.degree() for m in self.terms), default=0)

    def constant_term(self) -> Scalar:
        return self.terms.get(Monomial((0,) * self.n, 0, 0), 0)

    def leading(self) -> tuple[Monomial, Scalar]:
        """Leading term in the canonical graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=Monomial.key)
        return mono, self.terms[mono]

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].key(), reverse=True)

    def _check(self, other: "MPoly") -> None:
        if self.n != other.n:
            raise DimensionError(f"ambient mismatch: {self.n} vs {other.n}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return MPoly._trusted(self.n, acc)

    def __neg__(self) -> "MPoly":
        return MPoly._trusted(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly | Scalar") -> "MPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly.zero(self.n)
            return MPoly._trusted(
                self.n, {m: _normalize_scalar(c * other) for m, c in self.terms.items()}
            )
        self._check(other)
        acc: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                c = acc.get(mono, 0) + c1 * c2
                if c:
                    acc[mono] = c
                else:
                    acc.pop(mono, None)
        return MPoly._trusted(self.n, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def mul_monomial(self, x: Sequence[int] = (), q: int = 0, t: int = 0) -> "MPoly":
        shift = Monomial(tuple(x) if x else (0,) * self.n, q, t)
        return MPoly._trusted(self.n, {m * shift: c for m, c in self.terms.items()})

    # -- structural helpers --------------------------------------------------

    def extended(self, n: int) -> "MPoly":
        """Embed into a larger ambient by padding x-exponents with zeros: the
        one way a q,t-only value (n = 0) enters x-space."""
        if n < self.n:
            raise DimensionError(f"cannot shrink ambient {self.n} -> {n}")
        if n == self.n:
            return self
        pad = (0,) * (n - self.n)
        return MPoly._trusted(n, {Monomial(m.x + pad, m.q, m.t): c for m, c in self.terms.items()})

    def swap_qt(self) -> "MPoly":
        return MPoly._trusted(self.n, {Monomial(m.x, m.t, m.q): c for m, c in self.terms.items()})

    def swap_x(self, i: int, j: int) -> "MPoly":
        """Exchange the variables x_i and x_j (1-based)."""
        acc: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            xs = list(m.x)
            xs[i - 1], xs[j - 1] = xs[j - 1], xs[i - 1]
            acc[Monomial(tuple(xs), m.q, m.t)] = c
        return MPoly._trusted(self.n, acc)

    def qt_coefficients(self) -> dict[tuple[int, ...], "MPoly"]:
        """Group terms by x-part; values are q,t-only polynomials (n = 0)."""
        acc: dict[tuple[int, ...], dict[Monomial, Scalar]] = {}
        for m, c in self.terms.items():
            acc.setdefault(m.x, {})[Monomial((), m.q, m.t)] = c
        return {x: MPoly(0, terms) for x, terms in acc.items()}

    # -- substitution --------------------------------------------------------

    def specialize(
        self,
        q: Scalar | None = None,
        t: Scalar | None = None,
        x: Mapping[int, Scalar] | None = None,
    ) -> "MPoly":
        """Substitute exact values for q, t, and/or x variables (1-based keys);
        None leaves q or t alone.

        The result keeps the same ambient n (substituted variables simply stop
        appearing); coefficients may become Fractions for non-integer points.
        """
        x = x or {}
        acc: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            coeff: Scalar = c
            if q is not None:
                coeff *= q**m.q
            if t is not None:
                coeff *= t**m.t
            xs = list(m.x)
            for idx, val in x.items():
                e = xs[idx - 1]
                if e:
                    coeff *= val**e
                xs[idx - 1] = 0
            if not coeff:
                continue
            mono = Monomial(
                tuple(xs),
                m.q if q is None else 0,
                m.t if t is None else 0,
            )
            cc = acc.get(mono, 0) + coeff
            if cc:
                acc[mono] = cc
            else:
                acc.pop(mono, None)
        return MPoly(self.n, acc)

    # -- serialization / display ----------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"x": list(m.x), "q": m.q, "t": m.t, "c": str(c)}
                for m, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "MPoly":
        n = obj["n"]
        terms = {
            Monomial(tuple(term["x"]), term["q"], term["t"]): Fraction(term["c"])
            for term in obj["terms"]
        }
        return cls(n, terms)

    @classmethod
    def from_json(cls, s: str) -> "MPoly":
        return cls.from_json_obj(json.loads(s))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(m.x):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e:
                    factors.append(f"x{i + 1}^{e}")
            if m.q == 1:
                factors.append("q")
            elif m.q:
                factors.append(f"q^{m.q}")
            if m.t == 1:
                factors.append("t")
            elif m.t:
                factors.append(f"t^{m.t}")
            body = "*".join(factors)
            if not body:
                text = str(c)
            elif c == 1:
                text = body
            elif c == -1:
                text = f"-{body}"
            else:
                text = f"{c}*{body}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def poly_sum(n: int, polys: Iterable[MPoly]) -> MPoly:
    """Sum of polynomials in ambient n, added into one term map rather than
    copying a running total once per summand."""
    acc: dict[Monomial, Scalar] = {}
    for p in polys:
        for mono, coeff in p.terms.items():
            acc[mono] = acc.get(mono, 0) + coeff
    return MPoly(n, acc)


#: a Monomial from an (x, q, t) tuple, without the Python-level ``Monomial.__new__``
_monomial = partial(tuple.__new__, Monomial)


def tally(n: int, counts: Mapping[tuple, int], weigh: Callable, orbit: Orbit | None = None) -> MPoly:
    """Sum over ((x, q, t, key), c) in ``counts`` of c x^x q^q t^t times the
    q,t-only polynomial ``weigh(key)``: a route counts its fillings by key, so
    each key weighs once.  Each x's terms are kept in one map, and its zero sums
    dropped; with an ``orbit``, only representative x are summed, and each map
    is then written under every member of its orbit, by C-level maps with no
    Python-level ``Monomial.__new__`` per term.
    Unchecked: x has length n, exponents are nonnegative and counts integers."""
    by_x: dict[tuple, dict[tuple[int, int], Scalar]] = {}
    for (x, q, t, key), c in counts.items():
        if orbit is None or orbit.is_rep(x):
            acc = by_x.setdefault(x, {})
            for (_, a, b), k in weigh(key).terms.items():
                acc[q + a, t + b] = acc.get((q + a, t + b), 0) + c * k
    columns = {}
    for x, acc in by_x.items():
        acc = {qt: c for qt, c in acc.items() if c}
        if acc:
            columns[x] = (*zip(*acc), acc.values())
    if orbit is not None:
        columns = expand_orbits(columns, orbit.members)
    terms: dict[Monomial, Scalar] = {}
    for y, (qs, ts, cs) in columns.items():
        terms.update(zip(map(_monomial, zip(repeat(y), qs, ts)), cs))
    return MPoly._trusted(n, terms)


_ONE = MPoly.one(0)


def unit_weight(_key) -> MPoly:
    """The :func:`tally` weight of a route whose keys all weigh 1."""
    return _ONE


# -- orbits of exponent vectors ---------------------------------------------------


def distinct_permutations(items: Iterable) -> Iterator[tuple]:
    """Each distinct rearrangement of ``items`` once, in lexicographic order, by
    next-permutation steps: a multinomial count, not the n! of ``permutations``."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def placements(x: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each vector of len(x) whose nonzero parts read x's in order, by combinations of positions."""
    parts = [e for e in x if e]
    for support in combinations(range(len(x)), len(parts)):
        spots = dict(zip(support, parts))
        yield tuple(spots.get(i, 0) for i in range(len(x)))


def is_dominant(x: Sequence[int]) -> bool:
    """Weakly decreasing: the representative of a symmetric orbit."""
    return all(map(ge, x, x[1:]))


def has_prefix_support(x: Sequence[int]) -> bool:
    """Nonzero parts first: the representative of a quasisymmetric orbit."""
    return 0 not in x[: len(x) - x.count(0)]


def expand_orbits(values: Mapping[tuple, object], members: Callable[[tuple], Iterable[tuple]]) -> dict:
    """Each value of ``values``, keyed by exponent vector, under each of its key's
    orbit ``members``; values are shared, as none is changed once built."""
    return {y: value for x, value in values.items() for y in members(x)}


class Orbit(NamedTuple):
    """The orbits of a symmetry of exponent vectors: ``is_rep`` picks one
    representative in each, ``members`` lists the orbit of a vector, each
    member once.  ``breaks`` is ``is_rep`` as source text for compiled
    content tests: the condition on two adjacent parts ``{prev}`` and
    ``{cur}`` under which a vector is no representative."""

    is_rep: Callable[[Sequence[int]], bool]
    members: Callable[[Sequence[int]], Iterable[tuple[int, ...]]]
    breaks: str

    def of(self, parts: Sequence[int], n: int) -> list[tuple[int, ...]]:
        """The orbit of ``parts``' positive parts padded with zeros to length n:
        empty when more than n parts are positive."""
        parts = tuple(p for p in parts if p)
        return list(self.members(parts + (0,) * (n - len(parts)))) if len(parts) <= n else []


#: symmetric values: every rearrangement of x carries the same coefficient
SYMMETRIC = Orbit(is_dominant, distinct_permutations, "{cur} > {prev}")
#: quasisymmetric values: every placement of x's nonzero parts in order does
QUASISYMMETRIC = Orbit(has_prefix_support, placements, "{cur} > 0 == {prev}")


# -- division ----------------------------------------------------------------


def divmod_poly(p: MPoly, d: MPoly) -> tuple[MPoly, MPoly]:
    """Multivariate division of p by a single divisor d (graded-lex order).

    Returns (quotient, remainder); remainder is zero iff d divides p exactly.
    Divisors used in this package have a +/-1 leading coefficient, so integer
    coefficients never force anything into the remainder spuriously.
    """
    p._check(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    lead_mono, lead_coeff = d.leading()
    quo: dict[Monomial, Scalar] = {}
    rem: dict[Monomial, Scalar] = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=Monomial.key)
        coeff = work.pop(mono)
        if lead_mono.divides(mono):
            if isinstance(coeff, int) and isinstance(lead_coeff, int):
                factor: Scalar = (
                    coeff // lead_coeff
                    if coeff % lead_coeff == 0
                    else Fraction(coeff, lead_coeff)
                )
            else:
                factor = _normalize_scalar(Fraction(coeff) / Fraction(lead_coeff))
            if isinstance(factor, Fraction):
                # divisor leading coefficient does not divide: park in remainder
                rem[mono] = coeff
                continue
            shift = mono.quotient_by(lead_mono)
            quo[shift] = quo.get(shift, 0) + factor
            for m2, c2 in d.terms.items():
                if m2 == lead_mono:
                    continue
                key = m2 * shift
                c = work.get(key, 0) - factor * c2
                if c:
                    work[key] = c
                else:
                    work.pop(key, None)
        else:
            rem[mono] = coeff
    return MPoly(p.n, quo), MPoly(p.n, rem)


# -- q,t building blocks -------------------------------------------------------


@lru_cache(maxsize=1024)
def one_minus_qt(a: int, b: int) -> MPoly:
    """The binomial 1 - q^a t^b; cached, which is safe because an MPoly is
    never changed after it is built."""
    return MPoly.one(0) - MPoly.monomial(0, q=a, t=b)


def times_binomials(poly: MPoly, factors: Iterable[tuple[int, int]]) -> MPoly:
    """poly multiplied by 1 - q^a t^b for each (a, b) in ``factors``, in turn:
    each factor copies the term map once and subtracts every term shifted by
    q^a t^b from it."""
    for a, b in factors:
        terms = dict(poly.terms)
        for (x, q, t), c in poly.terms.items():
            shifted = Monomial(x, q + a, t + b)
            c = terms.pop(shifted, 0) - c
            if c:
                terms[shifted] = c
        poly = MPoly._trusted(poly.n, terms)
    return poly


def pochhammer_tt(m: int) -> MPoly:
    """(t;t)_m = prod_{i=1..m} (1 - t^i); the empty product for m = 0."""
    if m < 0:
        raise ValueError("negative Pochhammer index")
    return times_binomials(MPoly.one(0), pochhammer_factors((m,)))


def pochhammer_factors(ms: Iterable[int]) -> list[tuple[int, int]]:
    """The binomials 1 - t^i of the product of (t;t)_m over ms, as (0, i)."""
    return [(0, i) for m in ms for i in range(1, m + 1)]


def gaussian_binomial(m: int, k: int) -> MPoly:
    """t-binomial coefficient (m choose k)_t: (t;t)_m divided along chains by
    the factors of (t;t)_k and (t;t)_(m-k)."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got ({m}, {k})")
    return divide_binomials(pochhammer_tt(m), pochhammer_factors((k, m - k)))


def t_multinomial(total: int, parts: Sequence[int]) -> MPoly:
    """Gaussian multinomial (total choose parts)_t as an honest polynomial.

    Computed as a telescoping product of Gaussian binomials, each by exact
    division; a zero remainder is guaranteed and enforced.
    """
    parts = list(parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if sum(parts) != total:
        raise ValueError(f"parts {parts} do not sum to {total}")
    tops = accumulate(parts)
    return prod((gaussian_binomial(top, p) for top, p in zip(tops, parts)), start=MPoly.one(0))


# -- factored q,t-rational functions -------------------------------------------


class QtFactor(NamedTuple):
    """Denominator factor 1 - q^a t^b with b >= 1 (never zero as a polynomial)."""

    a: int
    b: int

    def poly(self) -> MPoly:
        return one_minus_qt(self.a, self.b)


def divide_chains(p: MPoly, a: int, b: int, f: Sequence[int]) -> MPoly | None:
    """p / f(q^a t^b), for a >= 0, b >= 1, f[0] = 1 and f[-1] != 0, when exact, else None.

    The terms of p fall into chains m, m + (a, b), ... in the (q, t) exponents;
    each chain is divided as a polynomial in q^a t^b from its lowest point up,
    and the first remainder returns None.  When f(1) = 0, as for 1 - q^a t^b,
    each chain must sum to zero.  Most such divisions tried fail, so the sums
    come first, in one pass keyed by x, b*q - a*t (the line) and q mod a (which
    of its a/gcd(a, b) interleaved chains), or by x, q and t mod b when a = 0.
    """
    if not sum(f):
        sums: dict[tuple, Scalar] = {}
        for (x, q, t), c in p.terms.items():
            key = (x, b * q - a * t, q % a) if a else (x, q, t % b)
            sums[key] = sums.get(key, 0) + c
        if any(sums.values()):
            return None
    # each term's chain, keyed by its lowest point, and its step from there
    chains: dict[tuple, dict[int, Scalar]] = {}
    for (x, q, t), c in p.terms.items():
        k = min(q // a, t // b) if a else t // b
        chains.setdefault((x, q - k * a, t - k * b), {})[k] = c
    taps = [(j, fj) for j, fj in enumerate(f) if j and fj]
    quo: dict[Monomial, Scalar] = {}
    for (x, q0, t0), coeffs in chains.items():
        top = max(coeffs)
        for k in range(min(coeffs), top + 1):
            if c := coeffs.get(k):
                if k > top - len(f) + 1:
                    return None
                quo[Monomial(x, q0 + k * a, t0 + k * b)] = c
                for j, fj in taps:
                    coeffs[k + j] = coeffs.get(k + j, 0) - fj * c
    return MPoly._trusted(p.n, quo)


def divide_binomial(p: MPoly, a: int, b: int) -> MPoly | None:
    """p / (1 - q^a t^b) by :func:`divide_chains` when exact, else None; a non-integer
    coefficient (a whole number held as a Fraction is not one) counts as "does not
    divide", as it does for :func:`divmod_poly`."""
    if a < 0 or b < 1:
        raise ValueError(f"invalid binomial divisor 1 - q^{a} t^{b}")
    if all(c.denominator == 1 for c in p.terms.values()):
        return divide_chains(p, a, b, (1, -1))
    return None


def divide_binomials(p: MPoly, factors: Iterable[tuple[int, int]]) -> MPoly:
    """p divided by the product of 1 - q^a t^b over ``factors``, one binomial
    at a time by :func:`divide_binomial`.

    Raises :class:`NonPolynomialError` when the product does not divide p.
    Since Z[x, q, t] has unique factorization, that happens exactly when one
    of the successive divisions is not exact.
    """
    for a, b in factors:
        quo = divide_binomial(p, a, b)
        if quo is None:
            raise NonPolynomialError(f"1 - q^{a}*t^{b} does not divide exactly")
        p = quo
    return p


@cache
def _cyclotomic_reduced() -> Callable:
    """:func:`macpoly.cyclotomic.reduced`, imported on the first call and kept
    in this cache, so that no module attribute is rebound."""
    from .cyclotomic import reduced

    return reduced


class QtRational:
    """Element of Z[q,t] localized at the binomials 1 - q^a t^b.

    The denominator is a sorted multiset of :class:`QtFactor`, and the form is
    canonical, a function of the value alone (:mod:`macpoly.cyclotomic`): no
    cyclotomic piece Phi_d(q^a t^b) of a factor divides the numerator, and the
    pieces left are gathered into binomials largest first.  So equal values
    have equal forms and the same JSON, whatever the order of the additions
    that built them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: Iterable[QtFactor] = ()):
        if num.n != 0:
            raise DimensionError("QtRational numerators are q,t-only (n = 0)")
        den = tuple(QtFactor(*f) for f in den)
        for f in den:
            if f.b < 1 or f.a < 0:
                raise ValueError(f"invalid denominator factor {f}")
        if num and den:
            num, den = _cyclotomic_reduced()(num, den)
        self.num, self.den = num, den if num else ()

    @classmethod
    def _trusted(cls, num: MPoly, den: tuple[QtFactor, ...]) -> "QtRational":
        """The fraction num / den as given, unreduced: for a q,t-only numerator
        and a sorted tuple of factors already in the canonical form."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def sum(cls, parts: Iterable[tuple[Scalar, "QtRational"]]) -> "QtRational":
        """The sum of c u over ``parts`` (c, u), reduced once: the numerators that
        share a denominator are added, and those sums brought to the lcm of the dens."""
        if len(parts := list(parts)) == 1 and parts[0][0]:
            c, u = parts[0]
            return u if c == 1 else cls._trusted(u.num * c, u.den)  # canonical, as u is
        by_den: dict[tuple, dict[Monomial, Scalar]] = {}
        for c, u in parts:
            acc = by_den.setdefault(u.den, {})
            for mono, k in u.num.terms.items():
                acc[mono] = acc.get(mono, 0) + c * k
        if len(by_den) != 1:
            lcm = reduce(or_, map(Counter, by_den), Counter())
            nums = (times_binomials(MPoly._trusted(0, acc), (lcm - Counter(den)).elements())
                    for den, acc in by_den.items())
            by_den = {tuple(lcm.elements()): poly_sum(0, nums).terms}
        (den, acc), = by_den.items()
        return cls(MPoly._trusted(0, {m: k for m, k in acc.items() if k}), den)

    @classmethod
    def from_int(cls, c: Scalar) -> "QtRational":
        return cls(MPoly.const(0, c))

    @classmethod
    def zero(cls) -> "QtRational":
        return cls(MPoly.zero(0))

    @classmethod
    def one(cls) -> "QtRational":
        return cls.from_int(1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __mul__(self, other: "QtRational | MPoly | Scalar") -> "QtRational":
        if isinstance(other, (int, Fraction)):
            other = QtRational.from_int(other)
        elif isinstance(other, MPoly):
            other = QtRational(other)
        return QtRational(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __add__(self, other: "QtRational") -> "QtRational":
        if isinstance(other, (int, Fraction)):
            other = QtRational.from_int(other)
        return QtRational.sum([(1, self), (1, other)])

    def __neg__(self) -> "QtRational":
        return QtRational._trusted(-self.num, self.den)

    def __sub__(self, other: "QtRational") -> "QtRational":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QtRational.from_int(other)
        if not isinstance(other, QtRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        raise TypeError("QtRational is not hashable (compare by value)")

    def to_polynomial(self) -> MPoly:
        """Extract the numerator when the denominator has fully cancelled."""
        if self.den:
            raise NonPolynomialError(
                f"denominator factors {self.den} survive reduction"
            )
        return self.num

    def specialize(self, q: Scalar | None = None, t: Scalar | None = None) -> Scalar:
        """Evaluate q and t, producing an exact scalar; a partial substitution
        would break the factored-denominator form, so both are required."""
        if q is None or t is None:
            raise ValueError("a QtRational is specialized at both q and t")
        den_val: Scalar = 1
        for f in self.den:
            den_val *= 1 - Fraction(q) ** f.a * Fraction(t) ** f.b
        if den_val == 0:
            raise EvaluationError(f"denominator vanishes at q={q}, t={t}")
        num_val = self.num.specialize(q=q, t=t).constant_term()
        return _normalize_scalar(Fraction(num_val) / Fraction(den_val))

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        den = "*".join(
            f"(1-q^{f.a}*t^{f.b})".replace("q^1*", "q*").replace("t^1)", "t)").replace("q^0*", "")
            for f in sorted(self.den)
        )
        return f"({self.num}) / {den}"

    __repr__ = __str__
