"""Exact sparse arithmetic in Z[x_1..x_n, q, t] and factored q,t-fractions.

Two value types carry every computation in this package:

* :class:`MPoly` -- sparse polynomial with arbitrary-precision integer
  coefficients in the x variables plus the two parameters q and t.  A
  q,t-only value is one in n = 0, and :meth:`MPoly.extended` embeds it.
* :class:`QtRational` -- a q,t-polynomial divided by a multiset of binomial
  factors 1 - q^a t^b.  Denominators are never expanded, so cancellation is
  exact divisibility testing, not multivariate gcd.

An MPoly stores its terms grouped by x, the layout of ``EResult.coeffs``:
``by_x`` maps each exponent vector to a non-empty dict (q, t) -> nonzero
coefficient.  A symmetric output from :func:`tally` shares one such map among
all the members of an orbit, and ring operations share the maps they leave
alone, so a stored map is never mutated: an operation copies a map before it
changes it.  ``MPoly.terms`` is a read-only flat view Monomial -> coefficient,
in x order and then (q, t) order, for callers outside the package; its length
is the term count, taken without building the flat map.

Values are immutable once built and compare by canonical term map.  Rational
coefficients appear only after :func:`specialize` substitutes non-integer
points; the core ring stays over the integers.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import accumulate, combinations
from math import gcd, prod
from operator import add, ge, lt, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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


class Terms(Mapping):
    """The read-only flat view ``MPoly.terms`` of a grouped term map (see the module docstring)."""

    __slots__ = ("_by_x",)

    def __init__(self, by_x: Mapping[tuple[int, ...], Mapping[tuple[int, int], Scalar]]):
        self._by_x = by_x

    def __len__(self) -> int:
        return sum(map(len, self._by_x.values()))

    def __iter__(self) -> Iterator[Monomial]:
        return (Monomial(x, q, t) for x, acc in self._by_x.items() for q, t in acc)

    def __getitem__(self, mono: Monomial) -> Scalar:
        return self._by_x[mono[0]][mono[1:]]


#: the terms of zero, shared and never changed
_NO_TERMS: dict = {}


def check_variable(i: int, n: int) -> None:
    """Refuse a variable index outside 1..n: index 0 or -1 would wrap to x_n."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} is outside 1..{n}")


def swapped_keys(values: Mapping[tuple, object], n: int, i: int, j: int) -> dict:
    """``values`` keyed by exponent vectors of length n, with the exponents of x_i
    and x_j (1-based) exchanged in every key; the values are shared."""
    check_variable(i, n)
    check_variable(j, n)
    order = list(range(n))
    order[i - 1], order[j - 1] = j - 1, i - 1
    return {tuple(map(x.__getitem__, order)): value for x, value in values.items()}


class MPoly:
    """Sparse exact polynomial; ``by_x`` maps each exponent vector to a non-empty,
    possibly shared and never mutated dict (q, t) -> nonzero coefficient."""

    __slots__ = ("n", "by_x")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        by_x: dict[tuple[int, ...], dict[tuple[int, int], Scalar]] = {}
        for (x, q, t), coeff in (terms or {}).items():
            if len(x) != n:
                raise DimensionError(f"monomial has {len(x)} x-exponents, ambient n={n}")
            if any(e < 0 for e in x) or q < 0 or t < 0:
                raise ValueError(f"negative exponent in {Monomial(x, q, t)}")
            if c := _normalize_scalar(coeff):
                by_x.setdefault(x, {})[q, t] = c
        self.n = n
        self.by_x = by_x

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, by_x: dict[tuple[int, ...], dict[tuple[int, int], Scalar]]) -> "MPoly":
        """The polynomial whose grouped term map is ``by_x`` itself, unchecked: for
        exponent vectors of length n, nonnegative exponents and non-empty maps of
        nonzero coefficients."""
        out = cls.__new__(cls)
        out.n = n
        out.by_x = by_x
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

    @property
    def terms(self) -> Terms:
        return Terms(self.by_x)

    def qt_terms(self) -> Mapping[tuple[int, int], Scalar]:
        """The map (q, t) -> coefficient of a q,t-only value (n = 0); read only."""
        return self.by_x.get((), _NO_TERMS)

    def coefficients(self) -> Iterator[Scalar]:
        """Every coefficient, term by term."""
        return (c for acc in self.by_x.values() for c in acc.values())

    def _flat(self) -> dict[Monomial, Scalar]:
        """The terms as one new dict Monomial -> coefficient."""
        return {Monomial(x, q, t): c for x, acc in self.by_x.items() for (q, t), c in acc.items()}

    def is_zero(self) -> bool:
        return not self.by_x

    def __bool__(self) -> bool:
        return bool(self.by_x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.n == other.n and self.by_x == other.by_x

    def __hash__(self):
        return hash((self.n, frozenset((x, frozenset(acc.items())) for x, acc in self.by_x.items())))

    def degree(self) -> int:
        return max((sum(x) + q + t for x, acc in self.by_x.items() for q, t in acc), default=0)

    def constant_term(self) -> Scalar:
        return self.by_x.get((0,) * self.n, _NO_TERMS).get((0, 0), 0)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._flat().items(), key=lambda kv: kv[0].key(), reverse=True)

    def _check(self, other: "MPoly") -> None:
        if self.n != other.n:
            raise DimensionError(f"ambient mismatch: {self.n} vs {other.n}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        by_x = dict(self.by_x)
        for x, terms in other.by_x.items():
            if x not in by_x:
                by_x[x] = terms
                continue
            acc = dict(by_x[x])
            for qt, coeff in terms.items():
                if c := acc.get(qt, 0) + coeff:
                    acc[qt] = c
                else:
                    del acc[qt]
            if acc:
                by_x[x] = acc
            else:
                del by_x[x]
        return MPoly._trusted(self.n, by_x)

    def __neg__(self) -> "MPoly":
        return MPoly._trusted(self.n, {x: {qt: -c for qt, c in acc.items()} for x, acc in self.by_x.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly | Scalar") -> "MPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly.zero(self.n)
            return MPoly._trusted(self.n, {
                x: {qt: _normalize_scalar(c * other) for qt, c in acc.items()} for x, acc in self.by_x.items()
            })
        self._check(other)
        by_x: dict[tuple[int, ...], dict[tuple[int, int], Scalar]] = {}
        for x1, terms1 in self.by_x.items():
            for x2, terms2 in other.by_x.items():
                acc = by_x.setdefault(tuple(map(add, x1, x2)), {})
                for (q1, t1), c1 in terms1.items():
                    for (q2, t2), c2 in terms2.items():
                        qt = q1 + q2, t1 + t2
                        acc[qt] = acc.get(qt, 0) + c1 * c2
        return MPoly._trusted(self.n, _kept(by_x))

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
        x = tuple(x) if x else (0,) * self.n
        return MPoly._trusted(self.n, {
            tuple(map(add, y, x)): acc if not (q or t) else {(a + q, b + t): c for (a, b), c in acc.items()}
            for y, acc in self.by_x.items()
        })

    # -- structural helpers --------------------------------------------------

    def extended(self, n: int) -> "MPoly":
        """Embed into a larger ambient by padding x-exponents with zeros: the
        one way a q,t-only value (n = 0) enters x-space."""
        if n < self.n:
            raise DimensionError(f"cannot shrink ambient {self.n} -> {n}")
        if n == self.n:
            return self
        pad = (0,) * (n - self.n)
        return MPoly._trusted(n, {x + pad: acc for x, acc in self.by_x.items()})

    def swap_qt(self) -> "MPoly":
        return MPoly._trusted(self.n, {x: {(t, q): c for (q, t), c in acc.items()} for x, acc in self.by_x.items()})

    def swap_x(self, i: int, j: int) -> "MPoly":
        """Exchange the variables x_i and x_j (1-based); an index outside 1..n is refused."""
        return MPoly._trusted(self.n, swapped_keys(self.by_x, self.n, i, j))

    def qt_coefficients(self) -> dict[tuple[int, ...], "MPoly"]:
        """Group terms by x-part; values are q,t-only polynomials (n = 0)."""
        return {x: MPoly._trusted(0, {(): acc}) for x, acc in self.by_x.items()}

    # -- substitution --------------------------------------------------------

    def specialize(
        self,
        q: Scalar | None = None,
        t: Scalar | None = None,
        x: Mapping[int, Scalar] | None = None,
    ) -> "MPoly":
        """Substitute exact values for q, t, and/or x variables (1-based keys,
        each in 1..n, else ValueError); None leaves q or t alone.

        The result keeps the same ambient n (substituted variables simply stop
        appearing); coefficients may become Fractions for non-integer points.
        """
        x = x or {}
        for i in x:
            check_variable(i, self.n)
        by_x: dict[tuple[int, ...], dict[tuple[int, int], Scalar]] = {}
        for y, terms in self.by_x.items():
            ys, scale = list(y), 1
            for i, val in x.items():
                scale *= val ** ys[i - 1]
                ys[i - 1] = 0
            if not scale:
                continue
            acc = by_x.setdefault(tuple(ys), {})
            for (a, b), c in terms.items():
                qt = (a if q is None else 0, b if t is None else 0)
                value = c * scale * (1 if q is None else q**a) * (1 if t is None else t**b)
                acc[qt] = _normalize_scalar(acc.get(qt, 0) + value)
        return MPoly._trusted(self.n, _kept(by_x))

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
        if not self.by_x:
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


def _kept(by_x: dict) -> dict:
    """A grouped term map without its zero coefficients and the maps that leaves empty."""
    return {x: kept for x, acc in by_x.items() if (kept := {qt: c for qt, c in acc.items() if c})}


def poly_sum(n: int, polys: Iterable[MPoly]) -> MPoly:
    """Sum of polynomials in ambient n, added into one grouped term map rather
    than copying a running total once per summand."""
    by_x: dict[tuple[int, ...], dict[tuple[int, int], Scalar]] = {}
    for p in polys:
        if p.n != n:
            raise DimensionError(f"ambient mismatch: {p.n} vs {n}")
        for x, terms in p.by_x.items():
            acc = by_x.setdefault(x, {})
            for qt, c in terms.items():
                acc[qt] = acc.get(qt, 0) + c
    return MPoly._trusted(n, _kept(by_x))


def tally_by_x(counts: Mapping[tuple, int], weigh: Callable, orbit: Orbit | None = None) -> dict:
    """Sum over ((x, q, t, key), c) in ``counts`` of c x^x q^q t^t times the q,t-only
    polynomial ``weigh(key)`` (a route counts its fillings by key, so each key weighs
    once), as one map (q, t) -> nonzero coefficient per x that keeps a term; with an
    ``orbit``, over representative x only."""
    by_x: dict[tuple, dict[tuple[int, int], Scalar]] = {}
    for (x, q, t, key), c in counts.items():
        if orbit is None or orbit.is_rep(x):
            acc = by_x.setdefault(x, {})
            for (a, b), k in weigh(key).qt_terms().items():
                qt = q + a, t + b
                acc[qt] = acc.get(qt, 0) + c * k
    return _kept(by_x)


def tally(n: int, counts: Mapping[tuple, int], weigh: Callable, orbit: Orbit | None = None) -> MPoly:
    """The sum of :func:`tally_by_x` as a polynomial: its maps are the grouped terms as
    they are, and with an ``orbit`` every member of x's orbit shares x's map.
    Unchecked: x has length n, exponents are nonnegative and counts integers."""
    by_x = tally_by_x(counts, weigh, orbit)
    return MPoly._trusted(n, by_x if orbit is None else expand_orbits(by_x, orbit.members))


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
        y = [0] * len(x)
        for i, e in zip(support, parts):
            y[i] = e
        yield tuple(y)


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
    member once.  ``breaks(prev, cur)`` tests two adjacent parts: x is one when
    no pair of its parts breaks, and growing prev or shrinking cur never makes
    a pair break, which content plans rely on."""

    is_rep: Callable[[Sequence[int]], bool]
    members: Callable[[Sequence[int]], Iterable[tuple[int, ...]]]
    breaks: Callable[[int, int], bool]

    def of(self, parts: Sequence[int], n: int) -> list[tuple[int, ...]]:
        """The orbit of ``parts``' positive parts padded with zeros to length n:
        empty when more than n parts are positive."""
        parts = tuple(p for p in parts if p)
        return list(self.members(parts + (0,) * (n - len(parts)))) if len(parts) <= n else []


#: symmetric values: every rearrangement of x carries the same coefficient
SYMMETRIC = Orbit(is_dominant, distinct_permutations, lt)
#: quasisymmetric values: every placement of x's nonzero parts in order does
QUASISYMMETRIC = Orbit(has_prefix_support, placements, lambda prev, cur: prev == 0 < cur)


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
    tail = d._flat()
    lead_mono = max(tail, key=Monomial.key)
    lead_coeff = tail.pop(lead_mono)
    quo: dict[Monomial, Scalar] = {}
    rem: dict[Monomial, Scalar] = {}
    work = p._flat()
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
            for m2, c2 in tail.items():
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
    per x, each factor copies the (q, t) map once and subtracts every term
    shifted by q^a t^b from it."""
    factors = list(factors)
    by_x = {}
    for x, acc in poly.by_x.items():
        for a, b in factors:
            terms = dict(acc)
            for (q, t), c in acc.items():
                shifted = q + a, t + b
                if c := terms.pop(shifted, 0) - c:
                    terms[shifted] = c
            acc = terms
        if acc:  # a factor 1 - q^0 t^0 is zero
            by_x[x] = acc
    return MPoly._trusted(poly.n, by_x)


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
    Then for f = 1 - y the quotient of each chain is its running sums.
    """
    by_x = {}
    taps = [(j, fj) for j, fj in enumerate(f) if j and fj]
    for x, acc in p.by_x.items():
        if not sum(f):
            sums: dict[tuple[int, int], Scalar] = {}
            for (q, t), c in acc.items():
                key = (b * q - a * t, q % a) if a else (q, t % b)
                sums[key] = sums.get(key, 0) + c
            if any(sums.values()):
                return None
        # each term's chain, keyed by its lowest point, and its step from there
        chains: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (q, t), c in acc.items():
            k = min(q // a, t // b) if a else t // b
            chains.setdefault((q - k * a, t - k * b), {})[k] = c
        quo = by_x[x] = {}
        for (q0, t0), coeffs in chains.items():
            if len(f) == 2 and not sum(f):  # 1 - y, and the chain sums to zero: its quotient is its running sums
                run = 0
                for k in range(min(coeffs), max(coeffs)):
                    if run := run + coeffs.get(k, 0):
                        quo[q0 + k * a, t0 + k * b] = run
                continue
            top = max(coeffs)
            for k in range(min(coeffs), top + 1):
                if c := coeffs.get(k):
                    if k > top - len(f) + 1:
                        return None
                    quo[q0 + k * a, t0 + k * b] = c
                    for j, fj in taps:
                        coeffs[k + j] = coeffs.get(k + j, 0) - fj * c
    return MPoly._trusted(p.n, by_x)


def divide_binomial(p: MPoly, a: int, b: int) -> MPoly | None:
    """p / (1 - q^a t^b) by :func:`divide_binomials` when exact, else None."""
    try:
        return divide_binomials(p, [(a, b)])
    except NonPolynomialError:
        return None


def divide_binomials(p: MPoly, factors: Iterable[tuple[int, int]]) -> MPoly:
    """p divided by the product of 1 - q^a t^b over ``factors``, one
    :func:`divide_chains` per ray (a/g, b/g), g = gcd(a, b): there each binomial
    is 1 - y^g in y = q^(a/g) t^(b/g), and their product one list of coefficients.

    Raises :class:`NonPolynomialError` when the product does not divide p, or
    when p has a non-integer coefficient (a whole number held as a Fraction is
    not one), as :func:`divmod_poly` leaves one in its remainder.  Since Z[x, q, t]
    has unique factorization, the product divides p exactly when each of the
    successive divisions by one binomial is exact.
    """
    rays: dict[tuple[int, int], list[int]] = {}
    for a, b in factors:
        if a < 0 or b < 1:
            raise ValueError(f"invalid binomial divisor 1 - q^{a} t^{b}")
        g = gcd(a, b)
        f = rays.setdefault((a // g, b // g), [1])
        f += [0] * g
        for j in range(len(f) - g - 1, -1, -1):
            f[j + g] -= f[j]
    if rays and not all(c.denominator == 1 for c in p.coefficients()):
        raise NonPolynomialError("a non-integer coefficient does not divide")
    for (a, b), f in rays.items():
        if (quo := divide_chains(p, a, b, f)) is None:
            raise NonPolynomialError(f"the binomials on the ray of q^{a}*t^{b} do not divide exactly")
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
        """The sum of c u over ``parts`` (c, u): each numerator brought to the lcm of
        the dens by :func:`times_binomials`, added, and reduced once."""
        parts = list(parts)
        lcm = reduce(or_, (Counter(u.den) for _, u in parts), Counter())
        nums = (times_binomials(u.num * c, (lcm - Counter(u.den)).elements()) for c, u in parts)
        return cls(poly_sum(0, nums), lcm.elements())

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
        num_val = sum(c * Fraction(q) ** a * Fraction(t) ** b for (a, b), c in self.num.qt_terms().items())
        return _normalize_scalar(Fraction(num_val) / den_val)

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        den = "*".join(
            f"(1-q^{f.a}*t^{f.b})".replace("q^1*", "q*").replace("t^1)", "t)").replace("q^0*", "")
            for f in sorted(self.den)
        )
        return f"({self.num}) / {den}"

    __repr__ = __str__
