"""Per-layer tracing from outside the library.

Wrappers are installed only for a traced run and removed afterwards.  A
wrapper replaces every binding of a target function inside the ``macpoly``
package: routes import their helpers by name (``from .shapes import inv``),
so the name bound in the consumer module (``macpoly.modified.inv``) is
wrapped as well as the defining one.  A target that no longer exists is
skipped and the metrics built on it are reported as absent.

Each wrapped call is a span: name, start, end, parent span and case id.
Spans are kept in memory, up to ``SPAN_CAP`` of them, and written out at the
end with the number dropped past the cap; counts and times are aggregated
for every call whether or not its span is kept.
``Monomial.__mul__`` is deliberately not wrapped: it is too hot to trace.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.qualname``, recorded as span ``span``.

    ``extra`` returns ``(counter_name, amount)`` from the call's arguments and
    result, for counts beyond the number of calls.
    """

    span: str
    module: str
    qualname: str
    extra: Callable | None = None


def _terms_copied(args, result):
    return "terms_copied", len(args[0].terms)


def _term_pairs(args, result):
    other = args[1]
    return "term_pairs", len(args[0].terms) * len(getattr(other, "terms", (0,)))


def _exact(args, result):
    return "exact", int(result[1].is_zero())


def _merge_copied(args, result):
    return "terms_copied", len(args[0].coeffs)


TARGETS = (
    Target("shapes.filling", "macpoly.shapes", "Filling.__post_init__"),
    Target("shapes.is_nonattacking", "macpoly.shapes", "is_nonattacking"),
    Target("shapes.is_ordered", "macpoly.shapes", "is_ordered"),
    Target("shapes.is_sorted_tableau", "macpoly.modified", "is_sorted_tableau"),
    Target("shapes.inv", "macpoly.shapes", "inv"),
    Target("shapes.maj", "macpoly.shapes", "maj"),
    Target("shapes.coinv_comp", "macpoly.shapes", "coinv_comp"),
    Target("modified.tableaux", "macpoly.modified", "iter_sorted_tableaux"),
    Target("modified.multiplicity", "macpoly.modified", "SortedTableau.multiplicity_t"),
    Target("polyring.multinomial", "macpoly.polyring", "t_multinomial"),
    Target("polyring.gaussian", "macpoly.polyring", "gaussian_binomial"),
    Target("polyring.add", "macpoly.polyring", "MPoly.__add__", _terms_copied),
    Target("polyring.mul", "macpoly.polyring", "MPoly.__mul__", _term_pairs),
    Target("polyring.divmod", "macpoly.polyring", "divmod_poly", _exact),
    Target("polyring.rational_build", "macpoly.polyring", "QtRational.__init__"),
    Target("polyring.rational_add", "macpoly.polyring", "QtRational.__add__"),
    Target("nonsymmetric.weight", "macpoly.nonsymmetric", "filling_weight"),
    Target("nonsymmetric.merge", "macpoly.nonsymmetric", "EResult.__add__", _merge_copied),
    Target("integral.weight", "macpoly.integral", "j_weight_poly"),
    Target("quasisym.schur", "macpoly.quasisym", "schur_ssyt"),
    Target("quasisym.decompose", "macpoly.quasisym", "qsym_decompose"),
)

#: spans kept in memory for the trace file; later calls are aggregated only
SPAN_CAP = 200_000

PREDICATES = ("shapes.is_nonattacking", "shapes.is_ordered", "shapes.is_sorted_tableau")
STATISTICS = ("shapes.inv", "shapes.maj", "shapes.coinv_comp")


class Recorder:
    """Spans and aggregates of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cases: list[str] = []
        self._case_ids: dict[str, int] = {}
        self.case = -1
        # kept spans, as parallel arrays
        self.span_name = array("i")
        self.span_case = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        # aggregates over every call
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.case_calls: Counter = Counter()  # (case, span name) -> calls
        # open spans: [start, child time, kept-span index]
        self.stack: list[list] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_case(self, case_id: str) -> None:
        if case_id not in self._case_ids:
            self._case_ids[case_id] = len(self.cases)
            self.cases.append(case_id)
        self.case = self._case_ids[case_id]

    def call(self, name: str, fn, args=(), kwargs=None, extra=None):
        """Run ``fn(*args, **kwargs)`` as one span called ``name``."""
        stack = self.stack
        start = perf_counter()
        index = -1
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            self.span_name.append(self.name_id(name))
            self.span_case.append(self.case)
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_start.append(start)
            self.span_end.append(start)
        else:
            self.dropped += 1
        frame = [start, 0.0, index]
        stack.append(frame)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.case_calls[self.case, name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if index >= 0:
                self.span_end[index] = end
        if extra is not None:
            counter, amount = extra(args, result)
            self.extra[f"{name}.{counter}"] += amount
        return result

    def count(self, name: str) -> None:
        self.calls[name] += 1
        self.case_calls[self.case, name] += 1

    def calls_in(self, case_id: str, name: str) -> int:
        """Calls of span ``name`` made while case ``case_id`` ran."""
        return self.case_calls[self._case_ids[case_id], name]

    def dump(self) -> dict:
        """Spans and aggregates in JSON-ready form."""
        return {
            "names": self.names,
            "cases": self.cases,
            "spans": {
                "name": list(self.span_name),
                "case": list(self.span_case),
                "parent": list(self.span_parent),
                "start": list(self.span_start),
                "end": list(self.span_end),
            },
            "dropped_spans": self.dropped,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "extra": dict(self.extra),
            "case_calls": [
                [self.cases[case], name, n] for (case, name), n in sorted(self.case_calls.items())
            ],
        }


def _wrap(recorder: Recorder, target: Target, fn):
    name = target.span
    if inspect.isgeneratorfunction(fn):
        # a generator is counted per item yielded, not timed

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                recorder.count(name)
                yield item

        return counted

    extra = target.extra

    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, extra)

    return wrapper


def _package_modules() -> list:
    root = importlib.import_module("macpoly")
    modules = [root]
    for info in pkgutil.iter_modules(root.__path__, "macpoly."):
        modules.append(importlib.import_module(info.name))
    return modules


def _lookup(target: Target):
    """(owner, attribute, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *outer, attr = target.qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = inspect.getattr_static(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Installs the wrappers; ``restore`` puts every original binding back."""

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _package_modules()
        for target in self.targets:
            found = _lookup(target)
            if found is None:
                self.missing.append(target.span)
                continue
            owner, attr, fn = found
            wrapper = _wrap(self.recorder, target, fn)
            if inspect.isclass(owner):
                # rebind aliases too, e.g. __rmul__ = __mul__
                holders = [(owner, name) for name, value in vars(owner).items() if value is fn]
            else:
                holders = [
                    (module, name)
                    for module in modules
                    for name, value in vars(module).items()
                    if value is fn
                ]
            for holder, name in holders:
                self._saved.append((holder, name, fn))
                setattr(holder, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            holder, name, fn = self._saved.pop()
            setattr(holder, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- per-layer metrics ---------------------------------------------------------------

#: metric -> (unit, spans it needs, which end-to-end metric it should move)
LAYER_METRICS = {
    "shapes.fillings_built": ("count", ("shapes.filling",), "plain_s and compact_s on integral; construction cost of plain_s on htilde"),
    "shapes.accepted": ("count", ("shapes.maj",), "plain_s and compact_s on integral"),
    "shapes.accept_ratio": ("ratio", ("shapes.filling", "shapes.maj"), "plain_s and compact_s on integral (base: shapes.fillings_built)"),
    "shapes.predicate_s": ("s", PREDICATES, "plain_s and compact_s on integral"),
    "shapes.stat_calls": ("count", STATISTICS, "plain_s on htilde"),
    "shapes.stat_s": ("s", STATISTICS, "plain_s on htilde"),
    "modified.tableaux": ("count", ("modified.tableaux",), "compact_s and largest_case_s on htilde; nothing on integral"),
    "modified.multiplicity_calls": ("count", ("modified.multiplicity",), "compact_s and largest_case_s on htilde; nothing on integral"),
    "modified.multiplicity_s": ("s", ("modified.multiplicity",), "compact_s and largest_case_s on htilde; nothing on integral"),
    "polyring.multinomial_calls": ("count", ("polyring.multinomial",), "compact_s and largest_case_s on htilde; nothing on integral"),
    "polyring.gaussian_calls": ("count", ("polyring.gaussian",), "compact_s and largest_case_s on htilde; nothing on integral"),
    "polyring.multinomial_s": ("s", ("polyring.multinomial",), "compact_s and largest_case_s on htilde; nothing on integral"),
    "polyring.add_calls": ("count", ("polyring.add",), "compact_s on htilde, wall_s on integral; not plain_s on htilde"),
    "polyring.add_terms_copied": ("count", ("polyring.add",), "compact_s on htilde, wall_s on integral; not plain_s on htilde"),
    "polyring.add_s": ("s", ("polyring.add",), "compact_s on htilde, wall_s on integral; not plain_s on htilde"),
    "polyring.mul_calls": ("count", ("polyring.mul",), "compact_s on htilde, wall_s on integral; not plain_s on htilde"),
    "polyring.mul_term_pairs": ("count", ("polyring.mul",), "compact_s on htilde, wall_s on integral; not plain_s on htilde"),
    "polyring.mul_s": ("s", ("polyring.mul",), "compact_s on htilde, wall_s on integral; not plain_s on htilde"),
    "polyring.divmod_calls": ("count", ("polyring.divmod",), "wall_s on symmetric"),
    "polyring.divmod_exact": ("count", ("polyring.divmod",), "wall_s on symmetric"),
    "polyring.divmod_exact_ratio": ("ratio", ("polyring.divmod",), "wall_s on symmetric (base: polyring.divmod_calls)"),
    "polyring.divmod_s": ("s", ("polyring.divmod",), "wall_s on symmetric"),
    "polyring.rational_builds": ("count", ("polyring.rational_build",), "wall_s on symmetric"),
    "polyring.rational_add_s": ("s", ("polyring.rational_add",), "wall_s on symmetric"),
    "nonsymmetric.weight_calls": ("count", ("nonsymmetric.weight",), "wall_s on symmetric"),
    "nonsymmetric.weight_s": ("s", ("nonsymmetric.weight",), "wall_s on symmetric"),
    "nonsymmetric.merge_calls": ("count", ("nonsymmetric.merge",), "wall_s on symmetric"),
    "nonsymmetric.merge_terms_copied": ("count", ("nonsymmetric.merge",), "wall_s on symmetric"),
    "nonsymmetric.merge_s": ("s", ("nonsymmetric.merge",), "wall_s on symmetric"),
    "integral.weight_calls": ("count", ("integral.weight",), "wall_s on integral"),
    "integral.weight_s": ("s", ("integral.weight",), "wall_s on integral"),
    "quasisym.schur_s": ("s", ("quasisym.schur",), "wall_s on symmetric and battery"),
    "quasisym.decompose_s": ("s", ("quasisym.decompose",), "wall_s on symmetric and battery"),
    "verify.instances": ("count", (), "wall_s on battery"),
    "route.self_s": ("s", (), "setup moved in front of the loops shows in setup_s and in wall_s on battery"),
    "out.terms": ("count", (), "none: output size, fixed by the cases"),
    "trace.overhead_s": ("s", (), "none: traced minus untraced wall_s of the pinned cases"),
}


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(recorder: Recorder, missing, route_names, extras) -> tuple[dict, list[str]]:
    """Per-layer metric values and the names reported absent.

    ``extras`` carries the values measured by the benchmark itself:
    ``verify.instances``, ``out.terms`` and ``trace.overhead_s``.  A metric is
    absent when a span it needs was not installed, or when it is a ratio
    whose base is zero.
    """
    c, tot, ex = recorder.calls, recorder.total, recorder.extra

    def calls(*names):
        return sum(c[n] for n in names)

    def secs(*names):
        return sum(tot[n] for n in names)

    values = {
        "shapes.fillings_built": calls("shapes.filling"),
        "shapes.accepted": calls("shapes.maj"),
        "shapes.accept_ratio": _ratio(calls("shapes.maj"), calls("shapes.filling")),
        "shapes.predicate_s": secs(*PREDICATES),
        "shapes.stat_calls": calls(*STATISTICS),
        "shapes.stat_s": secs(*STATISTICS),
        "modified.tableaux": calls("modified.tableaux"),
        "modified.multiplicity_calls": calls("modified.multiplicity"),
        "modified.multiplicity_s": secs("modified.multiplicity"),
        "polyring.multinomial_calls": calls("polyring.multinomial"),
        "polyring.gaussian_calls": calls("polyring.gaussian"),
        "polyring.multinomial_s": secs("polyring.multinomial"),
        "polyring.add_calls": calls("polyring.add"),
        "polyring.add_terms_copied": ex["polyring.add.terms_copied"],
        "polyring.add_s": secs("polyring.add"),
        "polyring.mul_calls": calls("polyring.mul"),
        "polyring.mul_term_pairs": ex["polyring.mul.term_pairs"],
        "polyring.mul_s": secs("polyring.mul"),
        "polyring.divmod_calls": calls("polyring.divmod"),
        "polyring.divmod_exact": ex["polyring.divmod.exact"],
        "polyring.divmod_exact_ratio": _ratio(ex["polyring.divmod.exact"], calls("polyring.divmod")),
        "polyring.divmod_s": secs("polyring.divmod"),
        "polyring.rational_builds": calls("polyring.rational_build"),
        "polyring.rational_add_s": secs("polyring.rational_add"),
        "nonsymmetric.weight_calls": calls("nonsymmetric.weight"),
        "nonsymmetric.weight_s": secs("nonsymmetric.weight"),
        "nonsymmetric.merge_calls": calls("nonsymmetric.merge"),
        "nonsymmetric.merge_terms_copied": ex["nonsymmetric.merge.terms_copied"],
        "nonsymmetric.merge_s": secs("nonsymmetric.merge"),
        "integral.weight_calls": calls("integral.weight"),
        "integral.weight_s": secs("integral.weight"),
        "quasisym.schur_s": secs("quasisym.schur"),
        "quasisym.decompose_s": secs("quasisym.decompose"),
        "route.self_s": sum(recorder.self_time[n] for n in route_names),
        **extras,
    }
    absent = sorted(
        name
        for name, (_, needs, _) in LAYER_METRICS.items()
        if values.get(name) is None or any(span in missing for span in needs)
    )
    return {k: v for k, v in values.items() if k not in absent}, absent
