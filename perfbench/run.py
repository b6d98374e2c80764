"""The macpoly benchmark: one workload per invocation, from the repository root.

Usage::

    python3 perfbench/run.py --workload htilde --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for the cases):

* ``htilde``    -- modified family, compact and plain routes, n = 4;
* ``integral``  -- integral form J by both routes, n = 4, and integral_e;
* ``symmetric`` -- P, G and the quasisymmetric Schur pieces, n = 5;
* ``battery``   -- the library's own identity battery, ``run_suite("all")``.

The workload runs in a fresh worker process, one call at a time, with no
threads: a closed loop with one client.  Set-up (interpreter start, import,
case list, reference load) is timed in several such processes and the
median is reported.  The machine's speed is sampled by a fixed pure-Python
loop every few milliseconds during the timed calls, and the end-to-end
times are scaled to a reference speed, since on a shared host it swings by
tens of percent from one second to the next; the unscaled times are printed
too.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` a separate traced pass gives the per-layer
metrics and the tracing overhead, and the spans are written under
``.perfbench/``.  Human-readable lines come first; the last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from worker import KERNEL_REF_S  # noqa: E402
from workloads import LARGEST, WORKLOADS  # noqa: E402

#: number of set-up-only processes timed in addition to the measuring one
SETUP_PROBES = 10

#: the metrics of the result line, with their units: ``end_to_end`` for an
#: untraced run, ``per_layer`` for a traced one.  Of the per-layer metrics it
#: lists every one that has a measured value on every workload: all counts (a
#: zero count is a real reading), the ratios whose base is never zero, and the
#: times of layers that every workload calls.  The time of a layer that a
#: workload never calls reads exactly 0 on every run of it, and a ratio over a
#: zero base has no value; those are in the report lines and the trace file.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spawn(args: list[str]):
    """Start a worker; returns (process, its set-up time at the reference speed).

    The set-up time runs until the worker is ready, less the time of the
    calibration loop it ran meanwhile, and is scaled to the speed at which
    the loop takes KERNEL_REF_S.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    sampled = proc.stdout.readline().split()
    if line.strip() != "ready" or len(sampled) != 3 or sampled[0] != "sampled":
        proc.communicate()
        raise RuntimeError(f"worker did not become ready (exit {proc.returncode})")
    handler_s, loop_s = float(sampled[1]), float(sampled[2])
    return proc, (ready - handler_s) * KERNEL_REF_S / loop_s


def _finish(proc) -> str:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _summary(samples: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def _line(name: str, unit: str, s: dict, note: str = "") -> str:
    return (
        f"  {name:<22} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
        f"n={s['n']}){'  ' + note if note else ''}"
    )


def end_to_end(workload: str, raw: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end values from a worker's raw measurements, and report lines.

    Every time is at the reference speed, scaled by the calibration loop
    timed during it: the set-up times of the processes by ``_spawn``, each
    case by the worker.
    """
    routes, largest, passes = raw["routes"], LARGEST[workload], raw["scaled"]

    def route_total(route):
        return [sum(t for cid, t in p.items() if routes[cid] == route) for p in passes]

    summaries = {
        "setup_s": _summary(setup),
        "wall_s": _summary([sum(p.values()) for p in passes]),
        "largest_case_s": _summary([p[largest] for p in passes]),
    }
    lines = [_line(name, "s", s) for name, s in summaries.items()]
    lines[-1] += f"  [{largest}]"
    values = {name: s["median"] for name, s in summaries.items()}
    values["peak_rss_mib"] = raw["peak_rss_mib"]
    lines.append(f"  {'peak_rss_mib':<22} {raw['peak_rss_mib']:.6g} MiB")
    if workload in ("htilde", "integral"):
        compact, plain = _summary(route_total("compact")), _summary(route_total("plain"))
        lines.append(_line("compact_s", "s", compact))
        lines.append(_line("plain_s", "s", plain))
        lines.append(
            f"  {'compact/plain':<22} {compact['median'] / plain['median']:.4g}  "
            "(derived: ratio of the medians, base plain_s)"
        )
    if workload == "battery":
        rate = _summary([raw["instances"] / p[largest] for p in passes])
        lines.append(_line("instances_per_s", "1/s", rate, f"({raw['instances']} instances)"))
    unscaled = statistics.median(sum(times.values()) for times in raw["passes"])
    loop = statistics.median(raw["loop_s"])
    lines.append(
        f"  times above are at the reference speed; unscaled wall_s {unscaled:.6g} s, "
        f"calibration loop {loop * 1000:.4g} ms (reference {KERNEL_REF_S * 1000:.4g} ms)"
    )
    if raw["drawn"]:
        drawn = ", ".join(f"{cid} {t:.4g}s" for cid, t in sorted(raw["drawn"].items()))
        lines.append(f"  {'drawn_s':<22} {sum(raw['drawn'].values()):.6g} s  (unscaled, not in wall_s: {drawn})")
    return values, lines


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    layer, absent = raw["layer"], raw["absent"]
    lines = []
    for name, (unit, _, moves) in tracing.LAYER_METRICS.items():
        shown = "absent" if name in absent else f"{layer[name]:.6g} {unit}"
        lines.append(f"  {name:<34} {shown:<22} moves: {moves}")
    lines.append(f"  untraced wall_s of the pinned cases: {raw['wall_untraced_s']:.6g} s")
    lines.append(
        f"  spans dropped past the cap of {tracing.SPAN_CAP}: {raw['dropped_spans']}"
        + ("  (the trace file is partial; the metrics above count every call)"
           if raw["dropped_spans"] else "")
    )
    for cid, c in sorted(raw["per_case"].items()):
        lines.append(
            f"  case {cid}: summed terms {c['summed_terms']}, fillings built "
            f"{c['fillings_built']}, output terms {c['out_terms']}, traced {c['traced_s']:.4g}s"
        )
    return layer, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "macpoly" / "__init__.py").is_file():
        print(f"perfbench: no macpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            proc, setup_s = _spawn([*common, "--setup-only"])
            _finish(proc)
            setup.append(setup_s)
        proc, setup_s = _spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        setup.append(setup_s)
        raw = json.loads(_finish(proc).splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, lines = per_layer(raw)
        wanted = SPEC["per_layer"]
    else:
        values, lines = end_to_end(args.workload, raw, setup)
        wanted = SPEC["end_to_end"]
    failures = raw["failures"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cases={len(raw['cases'])}")
    print("\n".join(lines))
    print(f"  {'fail_ratio':<22} {len(failures)}/{raw['attempted']}"
          + (f"  failed: {', '.join(failures)}" if failures else ""))
    if args.trace and raw["absent"]:
        print(f"  absent: {', '.join(raw['absent'])}")
    result = {
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
