"""One workload in one fresh process.

Run by ``run.py``; not meant to be started by hand.  The process imports
the library from ``src/``, builds its case list and loads the reference
digests, then prints ``ready`` and, from the calibration loop timed by a
signal handler during set-up, the seconds the handler took and the mean
time of the loop.  With ``--setup-only`` it exits there; it is started several times
so that ``run.py`` can time set-up.

Otherwise it runs passes over the pinned cases, one call at a time, until
``--seconds`` have been spent in them (at least one pass), and then the
drawn cases once, with the calibration loop timed every few milliseconds
during the passes.  With ``--trace 1`` it instead
runs one traced pass over every case, after an untraced pass over the
pinned cases, and repeats such pairs over the pinned cases to time the
tracing overhead.
Outputs are checked after each pass, outside the timed region.  The last
line of output is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = ROOT / ".perfbench"

#: steps of the calibration loop, and what one run of it takes at the
#: reference speed the timings are scaled to
KERNEL_STEPS = 600
KERNEL_REF_S = 0.000215

#: seconds between two runs of the calibration loop during a timed pass
SAMPLE_PERIOD_S = 0.0025


def kernel_once() -> float:
    """Seconds one run of a fixed pure-Python loop takes now.

    The loop adds big-int products into a dict keyed by small int tuples,
    like the library's term maps and their coefficients, and calls no
    library code: it measures the speed of the machine at that moment, which
    on a shared host swings by tens of percent from one second to the next.
    """
    start = time.perf_counter()
    acc = {}
    coeff = 3**40
    for i in range(KERNEL_STEPS):
        key = (i % 53, i % 7)
        acc[key] = acc.get(key, 0) + coeff * i
    return time.perf_counter() - start


class Sampler:
    """Runs the calibration loop every ``SAMPLE_PERIOD_S`` while active.

    The loop runs in a SIGALRM handler, so in the one thread there is, in
    the middle of the library call being timed.  Each run is kept as (start,
    seconds in the handler, seconds of the loop): the handler's time is taken
    out of the call's time, and the loop's mean time over the call is the
    speed of the machine during that call.
    """

    def __init__(self):
        self.runs: list[tuple[float, float, float]] = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        loop = kernel_once()
        self.runs.append((start, time.perf_counter() - start, loop))

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self) -> float:
        """Mean time of the loop over the runs so far, or of one run now if none."""
        return statistics.fmean([r[2] for r in self.runs] or [kernel_once()])


def _setup(workload: str, seed: int):
    src = ROOT / "src"
    if not (src / "macpoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {src}")
    sys.path.insert(0, str(src))
    import macpoly
    import workloads

    cases = workloads.case_list(workload, seed)
    reference = workloads.load_reference()
    return macpoly, workloads, cases, reference


def _run_pass(macpoly, workloads, cases, recorder=None, sampler=None):
    """Call every case once; returns (outputs, seconds by case id, loop time by case id).

    A call that raises is reported on stderr and leaves None as its output,
    which the checks count as a failure.  With a ``sampler`` running, the
    time of its handler runs is taken out of each case's seconds, and the
    third value holds the mean time of the calibration loop during each case,
    or None for a case too short to be sampled; otherwise it is empty.
    """
    outputs, seconds, loop_s = {}, {}, {}
    for case in cases:
        fn = workloads.resolve(macpoly, case)
        if recorder is not None:
            recorder.set_case(case.id)
        first = len(sampler.runs) if sampler else 0
        start = time.perf_counter()
        try:
            if recorder is None:
                outputs[case.id] = fn(*case.args)
            else:
                outputs[case.id] = recorder.call(f"route.{case.fn}", fn, case.args)
        except Exception:
            traceback.print_exc()
            outputs[case.id] = None
        end = time.perf_counter()
        seconds[case.id] = end - start
        if sampler is not None:
            # a handler runs between two bytecodes, so wholly inside or outside
            runs = [r for r in sampler.runs[first:] if start <= r[0] and r[0] + r[1] <= end]
            seconds[case.id] -= sum(r[1] for r in runs)
            loop_s[case.id] = statistics.fmean(r[2] for r in runs) if runs else None
    return outputs, seconds, loop_s


class Checker:
    """Counts attempted and failed checks over a run."""

    def __init__(self, macpoly, workloads, reference):
        self.macpoly, self.workloads, self.reference = macpoly, workloads, reference
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, cases, outputs, identities: bool) -> None:
        self.attempted += len(cases)
        self.failures += self.workloads.check_outputs(cases, outputs, self.reference)
        if identities:
            checked, bad = self.workloads.check_identities(self.macpoly, cases, outputs)
            self.attempted += checked
            self.failures += bad


def measure(macpoly, workloads, cases, reference, seconds: float) -> dict:
    """Timed passes over the pinned cases, then the drawn cases once.

    Each case's time is also scaled to the reference speed by the mean time
    of the calibration loop during it, or during its pass when the case was
    too short to be sampled.
    """
    checker = Checker(macpoly, workloads, reference)
    pinned = [c for c in cases if c.pinned]
    passes, scaled, pass_loop_s = [], [], []
    while not passes or sum(sum(p.values()) for p in passes) < seconds:
        gc.collect()
        with Sampler() as sampler:
            outputs, times, loop_s = _run_pass(macpoly, workloads, pinned, sampler=sampler)
        mean_loop_s = sampler.loop_s()
        if not passes:
            # read before the first check, which builds the JSON of every
            # output: later passes make the same calls, so this is the peak of
            # the library's work, and the drawn cases do not move it
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker.check(pinned, outputs, identities=not passes)
        if not passes:
            instances = sum(
                r.instances for c in pinned if c.fn == "run_suite" for r in outputs[c.id] or ()
            )
        passes.append(times)
        scaled.append({
            cid: t * KERNEL_REF_S / (loop_s[cid] or mean_loop_s) for cid, t in times.items()
        })
        pass_loop_s.append(mean_loop_s)
        del outputs
    drawn_cases = [c for c in cases if not c.pinned]
    outputs, drawn, _ = _run_pass(macpoly, workloads, drawn_cases)
    checker.check(drawn_cases, outputs, identities=True)
    return {
        "passes": passes,
        "scaled": scaled,
        "loop_s": pass_loop_s,
        "drawn": drawn,
        "instances": instances,
        "peak_rss_mib": peak_rss_mib,
        "attempted": checker.attempted,
        "failures": checker.failures,
    }


def _traced_pass(macpoly, workloads, cases, recorder):
    import tracing

    gc.collect()
    with tracing.Tracer(recorder) as tracer:
        outputs, seconds, _ = _run_pass(macpoly, workloads, cases, recorder)
    return outputs, seconds, tracer.missing


def measure_traced(macpoly, workloads, cases, reference, seconds: float, label: str) -> dict:
    """One traced pass over every case gives the per-layer metrics.

    The overhead is the median traced minus the median untraced time of the
    pinned cases, over alternating untraced and traced passes repeated until
    ``seconds`` have been spent (at least one pair).
    """
    import tracing

    checker = Checker(macpoly, workloads, reference)
    pinned = [c for c in cases if c.pinned]
    recorder = tracing.Recorder()
    untraced_walls, traced_walls = [], []
    while not traced_walls or sum(untraced_walls) + sum(traced_walls) < seconds:
        gc.collect()
        _, times, _ = _run_pass(macpoly, workloads, pinned)
        untraced_walls.append(sum(times.values()))
        if traced_walls:
            _, again, _ = _traced_pass(macpoly, workloads, pinned, tracing.Recorder())
            traced_walls.append(sum(again.values()))
        else:
            untraced = times
            outputs, traced, missing = _traced_pass(macpoly, workloads, cases, recorder)
            traced_walls.append(sum(traced[c.id] for c in pinned))
    checker.check(cases, outputs, identities=True)
    extras = {
        "verify.instances": sum(
            r.instances for c in cases if c.fn == "run_suite" for r in outputs[c.id] or ()
        ),
        "out.terms": sum(workloads.output_terms(outputs[c.id]) for c in cases),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    routes = [f"route.{c.fn}" for c in cases]
    metrics, absent = tracing.layer_metrics(recorder, missing, set(routes), extras)
    TRACE_DIR.mkdir(exist_ok=True)
    trace = {**recorder.dump(), "layer_metrics": metrics, "absent": absent}
    (TRACE_DIR / f"trace-{label}.json").write_text(json.dumps(trace))
    per_case = {
        c.id: {
            "untraced_s": untraced.get(c.id),
            "traced_s": traced[c.id],
            "summed_terms": recorder.calls_in(c.id, "shapes.maj"),
            "fillings_built": recorder.calls_in(c.id, "shapes.filling"),
            "out_terms": workloads.output_terms(outputs[c.id]),
        }
        for c in cases
    }
    return {
        "layer": metrics,
        "absent": absent,
        "dropped_spans": recorder.dropped,
        "per_case": per_case,
        "wall_untraced_s": statistics.median(untraced_walls),
        "attempted": checker.attempted,
        "failures": checker.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with Sampler() as sampler:
        macpoly, workloads, cases, reference = _setup(args.workload, args.seed)
    print("ready", flush=True)
    print(f"sampled {sum(r[1] for r in sampler.runs)!r} {sampler.loop_s()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = measure_traced(
            macpoly, workloads, cases, reference, args.seconds, f"{args.workload}-{args.seed}"
        )
    else:
        result = measure(macpoly, workloads, cases, reference, args.seconds)
    result["cases"] = [c.id for c in cases]
    result["routes"] = {c.id: c.route for c in cases}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
