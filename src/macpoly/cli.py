"""Command-line surface: compute any polynomial family, or run the identity
battery.

Shapes are comma-separated part lists.  Families indexed by partitions reject
unsorted input instead of sorting it; the increasing/decreasing distinction
is meaningful everywhere in this package.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial

from .integral import hook_product_inc, integral_e, j_compact, j_plain, p_poly
from .modified import htilde_compact, htilde_plain
from .nonsymmetric import e_permuted_basement, f_poly
from .polyring import DimensionError, EvaluationError, MPoly, NonPolynomialError
from .quasisym import g_poly, qs_schur, schur_ssyt
from .shapes import ShapeError, as_partition
from .verify import SUITES, run_suite


class UsageError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def parse_shape(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise UsageError(f"shape {text!r} is not a comma-separated integer list")
    if any(p < 0 for p in parts):
        raise UsageError("shape parts must be nonnegative")
    return parts


def parse_count(text: str, name: str = "--n") -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{name} {text!r} is not an integer")
    if value < 0:
        raise UsageError(f"{name} must be nonnegative, got {value}")
    if value > sys.maxsize:
        raise UsageError(f"{name} must be at most {sys.maxsize}, got {value}")
    return value


def parse_value(text: str) -> int | Fraction:
    try:
        return Fraction(text) if "/" in text else int(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"value {text!r} is not an integer or a fraction a/b with b != 0") from None


def require_partition(shape: tuple[int, ...]) -> tuple[int, ...]:
    try:
        return as_partition(shape)
    except ShapeError:
        raise UsageError(
            f"{shape} is not a partition (weakly decreasing, positive parts); "
            "input is not sorted for you"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macpoly",
        description="Exact Macdonald-polynomial families from combinatorial formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(name, aliases=(), partition=False, needs_n=True):
        p = sub.add_parser(name, aliases=list(aliases))
        p.add_argument("--shape", required=True, type=parse_shape)
        if needs_n:
            p.add_argument("--n", required=True, type=parse_count)
        p.add_argument("--q", type=parse_value, default=None)
        p.add_argument("--t", type=parse_value, default=None)
        p.add_argument("--json", action="store_true")
        p.set_defaults(family=name, partition=partition)
        return p

    ht = add_family("htilde", partition=True)
    ht.add_argument("--formula", choices=["plain", "hhl", "compact"], default="compact",
                    help="hhl is a compatibility alias for plain")
    jp = add_family("j", partition=True)
    jp.add_argument("--formula", choices=["plain", "hhl", "compact"], default="compact",
                    help="hhl is a compatibility alias for plain")
    for name in ("e", "f"):
        p = add_family(name, needs_n=False)
        p.add_argument("--integral", action="store_true")
        p.add_argument("--verify", action="store_true",
                       help="with --integral: also run the multiplier-cleared route")
    add_family("p", partition=True)
    add_family("g", aliases=("gpoly",))
    add_family("qschur")
    add_family("schur", partition=True)

    v = sub.add_parser("verify")
    v.add_argument("suite", choices=list(SUITES))
    v.add_argument("--max-size", type=partial(parse_count, name="--max-size"), default=None)
    v.add_argument("--max-n", type=partial(parse_count, name="--max-n"), default=None)
    return parser


def _emit_mpoly(poly: MPoly, args) -> None:
    if args.json:
        print(json.dumps(poly.to_json_obj(), separators=(",", ":")))
    else:
        print(poly)


def _emit_eresult(result, args) -> None:
    if args.q is not None or args.t is not None:
        if args.q is None or args.t is None:
            raise UsageError("this family needs both --q and --t for substitution")
        _emit_mpoly(result.specialize(q=args.q, t=args.t), args)
        return
    if args.json:
        print(json.dumps(result.to_json_obj(), separators=(",", ":")))
    else:
        for exps in sorted(result.coeffs, reverse=True):
            mono = MPoly.monomial(result.n, x=exps)
            print(f"{mono}  *  {result.coeffs[exps]}")
        if not result.coeffs:
            print("0")


def run_family(args) -> int:
    family = args.family
    shape = require_partition(args.shape) if args.partition else args.shape
    if family == "htilde":
        value = (htilde_compact if args.formula == "compact" else htilde_plain)(shape, args.n)
    elif family == "j":
        value = j_compact(shape, args.n).value if args.formula == "compact" else j_plain(shape, args.n)
    elif family in ("e", "f") and args.integral:
        value = integral_e(shape)
        if args.verify:
            cleared = e_permuted_basement(shape).cleared_by(hook_product_inc(shape))
            if cleared != value:
                raise NonPolynomialError("integral-form routes disagree; convention bug")
    elif family in ("e", "f"):
        value = (e_permuted_basement if family == "e" else f_poly)(shape)
    else:
        fn = {"p": p_poly, "g": g_poly, "qschur": qs_schur, "schur": schur_ssyt}[family]
        value = fn(shape, args.n)
    if isinstance(value, MPoly):
        _emit_mpoly(value.specialize(q=args.q, t=args.t), args)
    else:
        _emit_eresult(value, args)
    return 0


def run_verify(args) -> int:
    results = run_suite(args.suite, args.max_size, args.max_n)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args)
        return run_family(args)
    except (
        ShapeError, DimensionError, EvaluationError, NonPolynomialError, ValueError, OverflowError
    ) as exc:
        raise UsageError(str(exc))


if __name__ == "__main__":
    sys.exit(main())
