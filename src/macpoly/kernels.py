"""Source generation for the compiled statistics and walks of :mod:`macpoly.shapes`.

Each function here writes straight-line Python from a diagram's index tables
(or from a variable count) and compiles it.  The contract is stated in the
:mod:`macpoly.shapes` docstring.  This module is imported with the first
kernel built, not with the package, so importing macpoly does not compile it.
"""

from __future__ import annotations

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


def _sum(terms: list[str]) -> str:
    return "sum((" + "".join(term + ", " for term in terms) + "))"


def _ccw(a: str, b: str, c: str) -> str:
    """Counterclockwise (a, b, c): a < b <= c, or c < a < b, or b <= c < a."""
    return f"({a} < {b} <= {c} or {c} < {a} < {b} or {b} <= {c} < {a})"


def _cw(a: str, b: str, c: str) -> str:
    """Clockwise (a, b, c): a > b > c, or c > a > b, or b > c > a."""
    return f"({a} > {b} > {c} or {c} > {a} > {b} or {b} > {c} > {a})"


def inv(shape) -> Callable:
    terms = [_e(i) + " > " + _e(j) for i, j, _ in shape.coinv_pairs]
    terms += [_ccw(_e(a), _e(b), _e(c)) for a, b, c in shape.coinv_triples]
    return _kernel(shape, "inv", "e", "return " + _sum(terms))


def maj(shape) -> Callable:
    terms = [_weighted(w, _e(i) + " > " + _e(j)) for i, j, w in shape.steps]
    rest = [_weighted(w, _e(i) + " > " + _b(col)) for i, col, w in shape.bottom]
    return _kernel(
        shape, "maj", "e, b=None",
        "if isinstance(b, tuple): return " + _sum(terms + rest),
        "return " + _sum(terms),
    )


def coinv(shape) -> Callable:
    terms = [_cw(_e(a), _e(b), _e(c)) for a, b, c in shape.coinv_triples]
    rest = [_cw(_e(j), _e(i), _b(col)) for i, j, col in shape.coinv_pairs]
    rest += [_cw(_b(left), _e(j), _b(right)) for j, left, right in shape.coinv_bottom]
    pairs = [_e(i) + " < " + _e(j) for i, j, _ in shape.coinv_pairs]
    return _kernel(
        shape, "coinv", "e, b=None",
        "if isinstance(b, tuple): return " + _sum(terms + rest),
        "return " + _sum(terms + pairs),
    )


def repeats(shape) -> Callable:
    mask = "".join(_e(i) + " == " + _e(j) + ", " for i, j, _ in shape.steps)
    return _kernel(shape, "repeats", "e", "return (" + mask + ")")


def nonattacking(shape) -> Callable:
    tests = [_e(i) + " != " + _e(j) for i, j in shape.attack_pairs]
    pinned = ["%s not in b[:%d]" % (_e(i), col) for i, col, _ in shape.bottom if col]
    if pinned:
        tests.append("(not isinstance(b, tuple) or " + " and ".join(pinned) + ")")
    return _kernel(shape, "nonattacking", "e, b=None", "return " + (" and ".join(tests) or "True"))


#: loops per generated function, as CPython refuses more than 20 nested blocks
_STAGE = 19


def walk(shape) -> Callable:
    """``walk(n, b=None, ordered=False)`` of :meth:`~macpoly.shapes.Diagram.walk`:
    one ``for`` loop per cell in cell order, values rising, that skips a value
    equal to the entry of a cell it attacks.  A row-1 loop runs over (b[col],)
    when a basement pins row 1, and with ``ordered`` stops at the entry to its
    left in its block.  Every 19 cells the loops go on in a chained function."""
    cells, cols = range(len(shape.cells)), {i: col for i, col, _ in shape.bottom}
    left = {b.start: a.start for h, slices in shape.blocks if h for a, b in zip(slices, slices[1:])}
    rows, pins = "".join("r%d, " % i for i in cols), "".join(_b(col) + ", " for col in cols.values())
    pin = "(%s) = [top] * %d if b is None else [(v,) if 0 < v <= n else () for v in (%s)]"
    head = ["top = range(1, n + 1)", pin % (rows, len(cols), pins)]
    stages = [cells[k:k + _STAGE] for k in range(0, len(cells), _STAGE)] or [cells]
    namespace: dict = {}
    for k, stage in enumerate(stages):
        lines = [] if k else head
        for depth, i in enumerate(stage):
            pad = "    " * depth
            lines.append(pad + "for %s in %s:" % (_e(i), "r%d" % i if i in cols else "top"))
            if i in left:
                lines.append(pad + "    if ordered and %s >= %s: break" % (_e(i), _e(left[i])))
            tests = " or ".join(_e(i) + " == " + _e(j) for j in shape.attacks[i])
            lines.append(pad + "    if %s: continue" % (tests or "False"))
        done = "".join(_e(i) + ", " for i in cells[:stage.stop])
        chain = "yield from walk%d(top, ordered, %s%s)" % (k + 1, rows, done)
        lines.append("    " * len(stage) + (chain if k + 1 < len(stages) else "yield (%s)" % done))
        params = "top, ordered, " + rows + "".join(_e(i) + ", " for i in cells[:stage.start])
        _compile("walk%d" % k, params if k else "n, b=None, ordered=False", lines,
                 "<walk%d of %r>" % (k, shape), namespace)
    return namespace["walk0"]


def content(breaks: str | None, n: int) -> Callable:
    """The content test of :func:`~macpoly.shapes.content_kernel`, with
    ``breaks`` the orbit's condition on adjacent counts, or None."""
    lines = ["count = e.count"]
    for v in range(1, n + 1):
        lines.append("c%d = count(%d)" % (v, v))
        if breaks is not None and v > 1:
            lines.append("if " + breaks.format(prev="c%d" % (v - 1), cur="c%d" % v) + ": return None")
    lines.append("return (" + "".join("c%d, " % v for v in range(1, n + 1)) + ")")
    return _compile("content", "e", lines, "<content over 1..%d>" % n)
