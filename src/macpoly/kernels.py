"""Source generation for the compiled statistics and walks of :mod:`macpoly.shapes`.

Each function here writes straight-line Python from a diagram's index tables
(or from a variable and an entry count) and compiles it; a :class:`ContentPlan`
also holds the memos of content codes that the walks read.  The contract is
stated in the :mod:`macpoly.shapes` docstring.  This module is imported with
the first kernel built, not with the package, so importing macpoly does not
compile it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from itertools import product
from typing import Callable


def _compile(
    name: str, params: str, lines: list[str], origin: str, namespace: dict | None = None
) -> Callable:
    """The function ``def name(params)`` with body ``lines``, compiled from
    source into ``namespace`` (a new one by default); callers build that
    source from integers and fixed text only."""
    body = "".join("\n    " + line for line in lines)
    namespace = {} if namespace is None else namespace
    exec(compile(f"def {name}({params}):{body}\n", origin, "exec"), namespace)
    return namespace[name]


def _kernel(shape, name: str, params: str, *lines: str) -> Callable:
    """:func:`_compile` with the entries ``e`` of a filling of ``shape``
    unpacked into the locals e0, e1, ... in cell order ahead of ``lines``."""
    unpack = [", ".join(map(_e, range(len(shape.cells)))) + ", = e"] if shape.cells else []
    return _compile(name, params, [*unpack, *lines], f"<{name} of {shape!r}>")


def _e(i: int) -> str:
    """The entry in cell position i."""
    return "e%d" % i


def _b(col: int) -> str:
    """The basement entry under 0-based column col."""
    return "b[%d]" % col


def _weighted(w: int, test: str) -> str:
    return test if w == 1 else "%d if %s else 0" % (w, test)


def _ccw(a: str, b: str, c: str) -> str:
    """Counterclockwise (a, b, c): a < b <= c, or c < a < b, or b <= c < a."""
    return f"({a} < {b} <= {c} or {c} < {a} < {b} or {b} <= {c} < {a})"


def _cw(a: str, b: str, c: str) -> str:
    """Clockwise (a, b, c): a > b > c, or c > a > b, or b > c > a."""
    return f"({a} > {b} > {c} or {c} > {a} > {b} or {b} > {c} > {a})"


def _terms(shape, stat: str, basement: bool | str | None) -> list[tuple[int, str]]:
    """(latest cell, comparison) for each term of ``stat``, "inv", "maj" or "coinv", with a
    permutation basement ``b`` when ``basement`` is True, without when False; when None, b is
    None or pins row 1, so that each term against b has two equal entries and is 0; when
    "pinned", row 1 spells a basement that pins it, and the terms against it are left out."""
    if stat == "inv":
        terms = [(j, _e(i) + " > " + _e(j)) for i, j, _ in shape.coinv_pairs]
        return terms + [(max(abc), _ccw(*map(_e, abc))) for abc in shape.coinv_triples]
    if stat == "maj":
        terms = [(i, _weighted(w, _e(i) + " > " + _e(j))) for i, j, w in shape.steps]
        low = [(i, "0", _weighted(w, _e(i) + " > " + _b(col))) for i, col, w in shape.bottom]
    else:
        terms = [(max(abc), _cw(*map(_e, abc))) for abc in shape.coinv_triples]
        low = [(j, _e(i) + " < " + _e(j), _cw(_e(j), _e(i), _b(col))) for i, j, col in shape.coinv_pairs]
        low += [(j, "0", _cw(_b(left), _e(j), _b(right))) for j, left, right in shape.coinv_bottom]
    for i, plain, based in low:
        pinned = "(%s) if b is None else 0" % plain if plain != "0" else "0"
        text = "0" if basement == "pinned" else based if basement else plain if basement is False else pinned
        terms += [(i, text)] * (text != "0")
    return terms


def stat(shape, name: str) -> Callable:
    """The flat kernel of the statistic ``name``: one sum over all its terms,
    those against the basement when b is a tuple."""
    based, plain = ("return sum((%s))" % "".join(t + ", " for _, t in _terms(shape, name, b))
                    for b in (True, False))
    return _kernel(shape, name, "e, b=None", "if isinstance(b, tuple): " + based, plain)


def repeats(shape) -> Callable:
    mask = "".join(_e(i) + " == " + _e(j) + ", " for i, j, _ in shape.steps)
    return _kernel(shape, "repeats", "e", "return (" + mask + ")")


def nonattacking(shape) -> Callable:
    tests = [_e(i) + " != " + _e(j) for i, partners in enumerate(shape.attacks) for j in partners]
    pinned = ["%s not in b[:%d]" % (_e(i), col) for i, col, _ in shape.bottom if col]
    if pinned:
        tests.append("(not isinstance(b, tuple) or " + " and ".join(pinned) + ")")
    return _kernel(shape, "nonattacking", "e, b=None", "return " + (" and ".join(tests) or "True"))


#: loops per generated function, as CPython refuses more than 20 nested blocks
_STAGE = 19

#: per kind of walk: parameters after n, statistics summed as q and t, the partial sums
#: carried ("s" is the content code), leaf lines
_KINDS = {
    "tuples": ("b=None, ordered=False", (), "", ["yield ({done})"]),
    "basement": ("b, plan, counts, firsts", ("maj", "coinv"), "sqt", [
        "k = (x, {q}, {t}, ({mask}))", "if k in counts: counts[k] += 1",
        "else: counts[k] = 1; firsts.setdefault(k[3], ({done}))",
    ]),
    "zero": ("b, plan, counts", ("maj", "coinv"), "s", ["counts[x] = counts.get(x, 0) + 1"]),
}


def walk(shape, kind: str = "tuples", order: str | tuple[int, ...] | None = None) -> Callable:
    """The loop nest of ``shape``, one ``for`` loop per cell in cell order and
    values rising, of one ``kind``:

    * "tuples", ``walk(n, b=None, ordered=False)``, yields the nonattacking
      fillings: a loop skips the entries of the cells it attacks, in row 1
      runs over (b[col],) when a basement pins it, and with ``ordered`` stops
      at the entry to its left in its block;
    * "basement", ``walk(n, b, plan, counts, firsts)``, counts those with
      basement b by (x, maj, coinv, repeat mask), for x a content that the
      :class:`ContentPlan` ``plan`` keeps, and keeps in ``firsts`` the
      entries e of the first per repeat mask;
    * "zero", ``walk(n, b, plan, counts)``, counts by x those of the
      basement walk with maj = coinv = 0: every term is 0 or more, so a
      partial sum never falls, and a loop skips a value as soon as one of the
      terms it adds is nonzero.

    Given an ``order``, the counting kinds do not read b: on a weakly increasing
    diagram of n columns, row 1 runs over 1..n with distinct entries, falling
    inside each equal-height block when ``order`` is "blocks", and rising along
    the parts of ``order`` when it is a composition gamma of the positive
    heights, ties in the order :func:`~macpoly.shapes.sorting_permutation` breaks
    them (:func:`_chains`).  Each such row 1 spells the composition with a part
    at each position its entries name, every rearrangement of the heights or
    every placement of gamma in order, whose sorting permutation as basement
    pins row 1.  So one walk counts the fillings of all those compositions,
    and every term against a basement, 0 on them, is left out.

    A loop adds to the partial sums q and t the comparisons whose latest cell
    is its own, so a prefix's sums are shared by all of its completions (in
    the "zero" walk they are 0, and only tested).  The counting loops also
    add the code of their entry to the content code s and skip a value as
    soon as the plan says s completes to no content it keeps.  Their last
    loop reads x before it sums or tests the statistics: it runs only over
    the values that ``plan.lasts`` lists for the code of the prefix, with the
    content x each completes to, or, where row 1 pins its cell, reads x off
    the plan by s and skips a value whose x the plan does not keep.
    Every 19 cells the loops go on in a chained function.  The kinds "sorted"
    and "words" loop once per column, not per cell: :func:`column_walk`."""
    if kind in ("sorted", "words"):
        return column_walk(shape, kind)
    args, stats, summed, leaf = _KINDS[kind]
    cells, cols = range(len(shape.cells)), {i: col for i, col, _ in shape.bottom} if order is None else {}
    left = {b.start: a.start for h, slices in shape.blocks if h for a, b in zip(slices, slices[1:])}
    # per row-1 cell of an order: the earlier cell its entry is above, or below, and how many
    # cells of its chain lie below and above it, which bound its values to 1 + low..n - high
    above, below, rank = {}, {}, {}
    for chain in _chains(shape, order):
        rank.update((i, (low, len(chain) - 1 - low)) for low, i in enumerate(chain))
        for lo, hi in zip(chain, chain[1:]):
            if lo < hi:
                above[hi] = lo
            else:
                below[lo] = hi
    adds: dict = {}
    for letter, name in zip("qt", stats):
        for i, text in _terms(shape, name, None if order is None else "pinned"):
            adds.setdefault((letter, i), []).append("(%s)" % text)
    adds.update((("s", i), ["w[%s]" % _e(i)]) for i in cells if "s" in summed)
    rows, pins = "".join("r%d, " % i for i in cols), "".join(_b(col) + ", " for col in cols.values())
    pin = "(%s) = [top] * %d if b is None else [(v,) if 0 < v <= n else () for v in (%s)]"
    head = ["top = range(1, n + 1)"] + ([pin % (rows, len(cols), pins)] if cols else [])
    carried = "n, top, " + args.replace("=None", "").replace("=False", "") + ", " + rows
    stages = [cells[k:k + _STAGE] for k in range(0, len(cells), _STAGE)] or [cells]
    sums, namespace = dict.fromkeys(summed, "0"), {}
    unpack = ["w, ok, xs, lasts = plan.weights, plan.fits, plan.reps, plan.lasts"] * ("s" in summed)
    # with no cells the leaf is the whole walk
    unpack += ["x = xs[0]", "if x is None: return"] * ("s" in summed and not cells)
    for k, stage in enumerate(stages):
        params = carried + done + "".join(c + ", " for c in summed) if k else "n, " + args
        lines = ([] if k else head) + unpack
        for depth, i in enumerate(stage):
            pad, e = "    " * (depth + 1), _e(i)
            attacks = [j for j in shape.attacks[i] if j not in (above.get(i), below.get(i))]
            last = "s" in summed and i + 1 == len(cells)  # reads x before the statistics
            if last and i not in cols:  # only the values that complete a content the plan keeps
                lines.append(pad[4:] + "for %s, x in lasts[%s]:" % (e, sums["s"]))
                if i in above:
                    lines.append(pad + "if %s <= %s: continue" % (e, _e(above[i])))
            elif i in rank:
                start = _e(above[i]) + " + 1" if i in above else "%d" % (rank[i][0] + 1)
                lines.append(pad[4:] + "for %s in range(%s, n%+d):" % (e, start, 1 - rank[i][1]))
            else:
                lines.append(pad[4:] + "for %s in %s:" % (e, "r%d" % i if i in cols else "top"))
            if i in below:
                lines.append(pad + "if %s >= %s: break" % (e, _e(below[i])))
            if kind == "tuples" and i in left:
                lines.append(pad + "if ordered and %s >= %s: break" % (e, _e(left[i])))
            if attacks:
                lines.append(pad + "if %s: continue" % " or ".join(e + " == " + _e(j) for j in attacks))
            if last and i in cols:
                lines += [pad + "x = xs[%s + w[%s]]" % (sums["s"], e), pad + "if x is None: continue"]
            if kind == "zero" and (terms := adds.get(("q", i), []) + adds.get(("t", i), [])):
                lines.append(pad + "if %s: continue" % " or ".join(terms))
            for letter in summed:
                if letter == "s" and last:
                    continue
                if (letter, i) in adds:
                    lines.append(pad + "%s%d = " % (letter, i) + " + ".join([sums[letter], *adds[letter, i]]))
                    sums[letter] = "%s%d" % (letter, i)
                if letter == "s":
                    lines.append(pad + "if not ok[s%d]: continue" % i)
        pad, done = "    " * len(stage), "".join(_e(i) + ", " for i in cells[:stage.stop])
        if k + 1 == len(stages):
            mask = "".join(_e(i) + " == " + _e(j) + ", " for i, j, _ in shape.steps)
            lines += [pad + line.format(done=done, mask=mask, **sums) for line in leaf]
        else:
            call = "walk%d(%s%s%s)" % (k + 1, carried, done, "".join(sums[c] + ", " for c in summed))
            lines.append(pad + "yield from " * (kind == "tuples") + call)
        origin = "<%s walk%d of %r>" % (kind, k, shape)
        _compile("walk%d" % k, params, lines, origin, namespace)
        sums = {c: c for c in summed}
    return namespace["walk0"]


def _chains(shape, order: str | tuple[int, ...] | None) -> list[tuple[int, ...]]:
    """The chains of row-1 cells along which the entries of a walk in ``order`` rise:
    each block's from right to left ("blocks"), or all in the order of gamma's parts."""
    if order is None:
        return []
    if order == "blocks":
        return [tuple(s.start for s in slices[::-1]) for h, slices in shape.blocks if h]
    from .shapes import sorting_permutation

    cells, rank = [i for i, _, _ in shape.bottom], sorting_permutation(order)
    return [tuple(cells[c] for c in sorted(range(len(order)), key=rank.__getitem__))]


def column_walk(shape, kind: str) -> Callable:
    """The column walk of ``shape``, one ``for`` loop per column, left to right,
    over the indices into its alphabet, of one ``kind``:

    * "sorted", ``walk(n, plan)``, on a partition shape, over its height block's
      alphabet (:func:`_alphabet`), from the index of the column to its left
      after a block's first: it meets every sorted tableau over 1..n once, in
      the lexicographic order of the index tuples, and yields (e, x, runs) for
      x = ``plan.reps[s]`` not None, else (None, None, None), e the flat entries
      and runs the run signature that ``R`` reads off the equal indices;
    * "words", ``walk(n, plan, counts)``, over the columns of its height whose
      own code fits ``plan`` (:func:`_columns`; no loop for height 0): counts
      by (x, inv, maj) the words over 1..n of a content x the plan keeps,
      adding its column's maj and its inv against each column to its left
      from the rows of :func:`_pair_inv` that those columns' loops fetched.

    A loop adds its column's code to the content code s of the prefix; a words
    loop leaves an s that completes to no content the plan keeps, and the last
    runs only over the (index, x) pairs its alphabet's memo lists for s.
    Every 19 columns the loops go on in a chained function."""
    words = kind == "words"
    if words:
        keys = [h for h in shape.heights if h]
        pairs = sorted({(keys[u], keys[v]) for v in range(len(keys)) for u in range(v)})
        head = ["xs, ok = plan.reps, plan.fits"]
        head += ["W%d, M%d, N%d, L%d = columns(%d, n, plan)[1:]" % ((h,) * 5) for h in sorted(set(keys))]
        head += ["I%d_%d = pair_inv(%d, %d, n, plan)" % (pair * 2) for pair in pairs]
        namespace = {"columns": _columns, "pair_inv": _pair_inv}
    else:
        keys = [b for b, (_, slices) in enumerate(shape.blocks) for _ in slices]
        head = ["xs = plan.reps"]
        head += ["A%d, W%d, N%d = alphabet(%d, n, plan.weights)" % (b, b, b, h) for b, (h, _) in enumerate(shape.blocks)]
        runs = _Memo(partial(_runs, [len(slices) for _, slices in shape.blocks]))
        namespace = {"alphabet": _alphabet, "SKIP": (None, None, None), "R": runs}
    tables = "".join(line.split(" = ")[0] + ", " for line in head) + "counts, " * words
    columns, summed = range(len(keys)), "sqt" if words else "s"
    follows = [] if words else [c for c in columns if c and keys[c - 1] == keys[c]]
    later = [sorted(set(keys[c + 1:])) for c in columns]  # the heights right of each column
    stages = [columns[k:k + _STAGE] for k in range(0, len(columns), _STAGE)] or [columns]

    def state(stop: int) -> str:
        """The indices before column ``stop`` and, in a words walk, their inv rows for the heights to come."""
        rows = ["r%d_%d, " % (u, h) for u in columns[:stop] for h in later[stop - 1]] if words else []
        return "".join(["j%d, " % c for c in columns[:stop]] + rows)

    sums = dict.fromkeys(summed, "0")
    for k, stage in enumerate(stages):
        params = tables + state(stage.start) + ", ".join(summed) if k else "n, plan" + ", counts" * words
        lines = [] if k else head
        for depth, c in enumerate(stage):
            pad, key, last = "    " * (depth + 1), keys[c], words and c + 1 == len(keys)
            if last:
                lines.append(pad[4:] + "for j%d, x in L%d[%s]:" % (c, key, sums["s"]))
            else:
                lines.append(pad[4:] + "for j%d in range(%sN%d):" % (c, "j%d, " % (c - 1) if c in follows else "", key))
            # a column of height 1 has maj 0
            adds = {"s": ["W%d[j%d]" % (key, c)] * (not last), "t": ["M%d[j%d]" % (key, c)] * (key > 1),
                    "q": ["r%d_%d[j%d]" % (u, key, c) for u in range(c)]}
            for letter in summed:
                if adds[letter]:
                    terms = [sums[letter]] * (sums[letter] != "0") + adds[letter]
                    lines.append(pad + "%s%d = %s" % (letter, c, " + ".join(terms)))
                    sums[letter] = "%s%d" % (letter, c)
                if letter == "s" and words and c and not last:
                    lines.append(pad + "if not ok[s%d]: continue" % c)
            lines += [pad + "r%d_%d = I%d_%d[j%d]" % (c, h, key, h, c) for h in later[c] if words]
        pad = "    " * len(stage)
        if k + 1 < len(stages):
            call = "walk%d(%s%s%s)" % (k + 1, tables, state(stage.stop), ", ".join(sums[c] for c in summed))
            lines.append(pad + "yield from " * (not words) + call)
        elif words:  # with no columns, the empty word is the whole walk
            lines += ["x = xs[0]", "if x is None: return"] * (not keys)
            lines += [pad + "k = (x, %s, %s)" % (sums["q"], sums["t"]), pad + "counts[k] = counts.get(k, 0) + 1"]
        else:
            e = "".join("*A%d[j%d], " % (b, c) for c, b in enumerate(keys))
            equal = "".join("j%d == j%d, " % (c - 1, c) for c in follows)
            lines += [pad + "x = xs[%s]" % sums["s"], pad + "yield SKIP if x is None else ((%s), x, R[%s])" % (e, equal or "()")]
        _compile("walk%d" % k, params, lines, "<%s walk%d of %r>" % (kind, k, shape), namespace)
        sums = {c: c for c in summed}
    return namespace["walk0"]


@lru_cache(maxsize=256)
def _alphabet(h: int, n: int, weights: tuple[int, ...]) -> tuple[tuple, tuple[int, ...], int]:
    """The columns of h entries in 1..n sorted by
    :func:`macpoly.modified.column_sort_key`, the content code of each under
    ``weights`` (those of a :class:`ContentPlan`), and their number."""
    from .modified import column_sort_key  # the caller of the sorted walk, so loaded

    columns = tuple(sorted(product(range(1, n + 1), repeat=h), key=column_sort_key))
    return columns, tuple(sum(map(weights.__getitem__, col)) for col in columns), len(columns)


@lru_cache(maxsize=256)
def _columns(h: int, n: int, plan: ContentPlan) -> tuple[tuple, tuple[int, ...], tuple[int, ...], int, _Memo]:
    """The alphabet of a words walk: the columns of h entries in 1..n whose own
    content code fits ``plan``, built cell by cell, never as all n^h tuples; the
    code and maj of each, their number, and a memo of the (index, x) pairs whose
    column completes the code s of a prefix to a content x the plan keeps."""
    from .shapes import diagram  # the caller of the walks, so loaded

    level, fits, weights = [((), 0)], plan.fits, plan.weights[1:n + 1]
    for _ in range(h):
        level = [(col + (v,), s + w) for col, s in level for v, w in enumerate(weights, 1) if fits[s + w]]
    columns, codes = tuple(col for col, _ in level), tuple(s for _, s in level)
    lasts = _Memo(lambda s: tuple((j, x) for j, w in enumerate(codes) if (x := plan.reps[s + w]) is not None))
    return columns, codes, tuple(map(diagram((h,)).maj, columns)), len(columns), lasts


@lru_cache(maxsize=256)
def _pair_inv(hu: int, hv: int, n: int, plan: ContentPlan) -> _Memo:
    """inv between columns of heights hu and hv, left to right, which depends on
    nothing else: per index into the :func:`_columns` alphabet of hu, a memo of
    the inv kernel of the diagram (hu, hv) per index into that of hv."""
    from .shapes import diagram

    inv, left, right = diagram((hu, hv)).inv, _columns(hu, n, plan)[0], _columns(hv, n, plan)[0]
    return _Memo(lambda ju: _Memo(lambda jv: inv(left[ju] + right[jv])))


def _runs(sizes: list[int], equal: tuple[bool, ...]) -> tuple[tuple[int, ...], ...]:
    """The run signature of a sorted tableau whose blocks hold ``sizes`` columns,
    from whether each column after a block's first equals the one to its left."""
    signature, equal = [], iter(equal)
    for k in sizes:
        runs = [1]
        for _ in range(k - 1):
            if next(equal):
                runs[-1] += 1
            else:
                runs.append(1)
        signature.append(tuple(runs))
    return tuple(signature)


class ContentPlan:
    """The content of a flat entry tuple e of m entries in 1..n as one integer, the code
    sum(weights[v] for v in e), weights[v] = (m + 1)^(v - 1), whose base-(m + 1) digits
    are x_v = e.count(v); cached per (orbit, n, m) by :func:`macpoly.shapes.content_plan`.
    ``fits[s]`` says whether the code s of a prefix of e completes to a representative
    content of m entries, ``reps[s]`` is the content x of code s when x is a
    representative (any x without an orbit), else None, ``lasts[s]`` lists, for the
    code s of m - 1 entries, each (v, x) whose last entry v completes it to a
    representative x, and ``content(e)`` is ``reps`` at the code of e.  Each memo
    fills on a miss from the code's digits, so it holds only the codes looked up; one
    memo serves every depth, as a code's digit sum is its depth."""

    def __init__(self, orbit, n: int, m: int):
        self.orbit, self.n, self.m = orbit, n, m
        self.weights = (0, *((m + 1) ** v for v in range(n)))
        self.fits, self.reps, self.lasts = _Memo(self._fits), _Memo(self._rep), _Memo(self._lasts)

    def _digits(self, code: int) -> list[int]:
        x, base = [], self.m + 1
        for _ in range(self.n):
            code, d = divmod(code, base)
            x.append(d)
        return x

    def _fits(self, code: int) -> bool:
        # the least representative above the counts, partwise, from the right;
        # adding the entries left over to its first part keeps it one
        if self.orbit is None:
            return True
        x, breaks = self._digits(code), self.orbit.breaks
        for v in range(self.n - 2, -1, -1):
            while breaks(x[v], x[v + 1]):
                x[v] += 1
        return sum(x) <= self.m

    def _rep(self, code: int) -> tuple[int, ...] | None:
        x = tuple(self._digits(code))
        return x if self.orbit is None or self.orbit.is_rep(x) else None

    def _lasts(self, code: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        # not through reps, which then holds only the codes that pinned leaves read
        return tuple((v, x) for v in range(1, self.n + 1) if (x := self._rep(code + self.weights[v])) is not None)

    @cached_property
    def content(self) -> Callable:
        """``content(e)``: ``reps`` at the code of e, one compiled sum, built on first use."""
        m, namespace = self.m, {"w": self.weights, "reps": self.reps}
        lines = ["".join(_e(i) + ", " for i in range(m)) + "= e"] * bool(m)
        lines.append("return reps[%s]" % (" + ".join("w[%s]" % _e(i) for i in range(m)) or "0"))
        return _compile("content", "e", lines, "<content of %d entries over 1..%d>" % (m, self.n), namespace)


class _Memo(dict):
    """A dict that fills a missing key by ``fill(key)``."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value
