#!/usr/bin/env python3
"""Layered benchmark: five workloads, end-to-end and per-layer metrics.

Three ways to call it (see README.md next to this file):

``run.py``
    The whole suite: ``--repeats`` interleaved passes over the five
    workloads (each pass x workload in a fresh subprocess, one at a
    time), then one traced pass.  Prints every metric with its unit,
    runs the output checks and writes ``out/result.json``.
``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process -- what the suite spawns and what the
    benchmark driver calls.  Repeats the workload's unit for ``S`` seconds
    and prints, as the last line, one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.
``run.py --compare A.json B.json``
    Applies the regression bounds to two suite results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

DEFAULT_SEED = 20050830
DEFAULT_SECONDS = 20
SMOKE_SECONDS = 0.2
SCHEMA = "layered-bench/v1"


def load_workloads():
    """Import the workload definitions (and with them the program)."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"error: the program under test is missing: {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# -- one workload in this process ----------------------------------------------


#: Rounds every run completes before its time budget is consulted; peak
#: memory is read right after them, so it does not depend on how many
#: more units a fast machine fits in.
MIN_UNITS = 3


def measure(run_units: Sequence[Callable], seconds: float, after_min=None) -> List[list]:
    """Run rounds -- every callable of ``run_units`` once -- until the next
    round would overrun ``seconds``; returns one list of results per
    callable.

    Successive rounds run pinned to successive CPUs of the process's
    affinity set: on a shared host each virtual CPU is slowed by its own
    neighbour for tens of seconds at a time, and a run that sits on one
    CPU throughout can be slow from its first unit to its last.  The
    fastest unit is then the fastest over every CPU the process may use.
    """
    pinnable = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else []
    results: List[list] = [[] for _ in run_units]
    rounds = 0
    start = perf_counter()
    try:
        while True:
            if cpus:
                os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
            began = perf_counter()
            for done, run_unit in zip(results, run_units):
                gc.collect()
                done.append(run_unit())
            now = perf_counter()
            rounds += 1
            if rounds == MIN_UNITS and after_min is not None:
                after_min()
            if rounds >= MIN_UNITS and (now - start) + (now - began) > seconds:
                return results
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def run_workload(args) -> int:
    workloads = load_workloads()
    import tracing

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    run_units = [workload.unit]
    if args.trace:
        tracer = tracing.Tracer()

        def traced_unit():
            # Wrappers are on only while a traced unit runs, so traced and
            # untraced units alternate and see the same moments of the host.
            tracing.install(tracer)
            try:
                return workload.unit(tracer)
            finally:
                tracer.uninstall()

        run_units.append(traced_unit)
    peak_rss = []

    def read_peak_rss():
        peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    try:
        units, *rest = measure(run_units, args.seconds, read_peak_rss)
    except workloads.CheckFailed as exc:
        print(f"output check failed on {workload.name}: {exc}", file=sys.stderr)
        return 1
    traced = rest[0] if rest else []

    first = units[0]
    problems = []
    if len({u.digest for u in units + traced}) != 1:
        problems.append("output digest differs between units of one run")
    for unit in units[1:] + traced:
        for name, value in unit.exact.items():
            if value != first.exact[name]:
                problems.append(f"exact metric {name} differs between units")

    # Host times: the fastest unit of the run.  Interference from a shared
    # host only ever adds time, in bursts shorter than a run but longer
    # than a unit, so the minimum over 20-40 identical units is far
    # steadier than their median (quartile spread over ten runs: 4-9%
    # against 12-18%).
    fastest = min(units, key=lambda u: u.wall_s)
    values: Dict[str, Optional[float]] = dict(first.exact)
    values.update(
        setup_s=min(u.setup_s for u in units),
        wall_s=fastest.wall_s,
        ops_per_s=fastest.ops / fastest.wall_s,
        peak_rss_mb=peak_rss[0],
    )
    for name in first.host:
        values[name] = max(u.host[name] for u in units)  # rates: higher is faster
    values.update(workload.host_summary())
    if traced:
        # One coherent set of spans: the fastest traced unit's.
        fastest_traced = min(traced, key=lambda u: u.wall_s)
        values.update(fastest_traced.layers)
        values["trace.overhead_ratio"] = fastest_traced.wall_s / fastest.wall_s
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace_{workload.name}.json").write_text(json.dumps(fastest_traced.trace))

    declared = M.manifest_per_layer() if args.trace else M.END_TO_END
    for metric in declared:
        value = values.get(metric.name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{metric.name:<36} {shown:>14} {metric.unit}")
    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)

    everything = units + traced
    result = {
        "correct": not problems,
        "attempted": sum(u.ops for u in everything),
        "failed": sum(u.failed for u in everything),
        # A metric the workload does not have reads 0 on the driver's line
        # (it wants a number); the detail file keeps it as null.
        "metrics": {
            m.name: {"value": values.get(m.name) or 0.0, "unit": m.unit}
            for m in declared
        },
    }
    if args.detail:
        detail = dict(
            correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
            workload=workload.name, seed=args.seed, seconds=args.seconds,
            trace=args.trace, smoke=args.smoke, problems=problems,
            digest=first.digest, units=len(units), traced_units=len(traced),
            values=values,
            samples={
                "setup_s": [u.setup_s for u in units],
                "wall_s": [u.wall_s for u in units],
            },
            traced_wall_s=(
                fastest_traced.setup_s + fastest_traced.wall_s if traced else None
            ),
        )
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the suite -------------------------------------------------------------------


def environment() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    model = platform.processor() or "unknown"
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
    }


def run_child(name: str, args, trace: int, detail: Path) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail", str(detail),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0 or not detail.exists():
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"error: {name} (trace={trace}) exited with {done.returncode}")
    return json.loads(detail.read_text())


def run_suite(args) -> int:
    workloads = load_workloads().WORKLOADS
    env = environment()
    OUT.mkdir(exist_ok=True)
    runs: Dict[str, List[dict]] = {name: [] for name in workloads}
    passes = []
    plan = [(str(i), 0) for i in range(1, args.repeats + 1)] + [("traced", 1)]
    for label, trace in plan:
        load_start = os.getloadavg()[0]
        for name in workloads:
            began = perf_counter()
            runs[name].append(run_child(name, args, trace, OUT / f"pass{label}_{name}.json"))
            print(f"pass {label:>6}  {name:<14} {perf_counter() - began:6.1f} s", flush=True)
        noisy = load_start > env["nproc"]
        passes.append({"pass": label, "load_start": load_start,
                       "load_end": os.getloadavg()[0], "noisy": noisy})
        if noisy:
            print(f"pass {label} started with load {load_start:.2f} > "
                  f"{env['nproc']} cores: noisy")

    problems = []
    result = {
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "smoke": args.smoke, "environment": env,
        "passes": passes, "workloads": {},
    }
    for name, cls in workloads.items():
        *untraced, traced = runs[name]
        if len({run["digest"] for run in runs[name]}) != 1:
            problems.append(f"{name}: output digest differs between passes")
        end_to_end = {}
        for metric in M.gated(name):
            series = [run["values"].get(metric.name) for run in untraced]
            present = [v for v in series if v is not None]
            if metric.exact and len(set(series)) != 1:
                problems.append(f"{name}: exact metric {metric.name} differs between passes")
            end_to_end[metric.name] = {
                "unit": metric.unit, "better": metric.better, "bound": metric.bound,
                "values": series, "n": len(present),
                "median": statistics.median(present) if present else None,
                "min": min(present, default=None), "max": max(present, default=None),
            }
        per_layer = {
            m.name: {"unit": m.unit, "value": traced["values"].get(m.name)}
            for m in M.PER_LAYER
        }
        result["workloads"][name] = {
            "why": cls.why,
            "attempted": sum(run["attempted"] for run in runs[name]),
            "failed": sum(run["failed"] for run in runs[name]),
            "correct": all(run["correct"] for run in runs[name]),
            "digest": traced["digest"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "trace": {
                "self_sum_s": traced["values"]["trace.self_sum_s"],
                "wall_s": traced["traced_wall_s"],
            },
        }
        print_workload(name, result["workloads"][name])
    result["problems"] = problems
    output = Path(args.output) if args.output else OUT / "result.json"
    output.write_text(json.dumps(result, indent=1))
    print(f"\nenvironment: python {env['python']}, {env['nproc']} cores, {env['cpu_model']}")
    print(f"result written to {output}")
    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    return 1 if problems else 0


def print_workload(name: str, entry: dict) -> None:
    fmt = lambda v: "n/a" if v is None else f"{v:.6g}"  # noqa: E731
    print(f"\n== {name}: {entry['why']}")
    print(f"   attempted {entry['attempted']}, failed {entry['failed']}, "
          f"outputs {'correct' if entry['correct'] else 'WRONG'}")
    print(f"   {'end-to-end':<22} {'median':>12} {'min':>12} {'max':>12}  n  unit (bound)")
    for metric, row in entry["end_to_end"].items():
        bound = f"{row['bound']:g}" if row["bound"] is not None else "-"
        print(f"   {metric:<22} {fmt(row['median']):>12} {fmt(row['min']):>12} "
              f"{fmt(row['max']):>12} {row['n']:>2}  {row['unit']} ({bound})")
    print(f"   {'per-layer (traced pass)':<36} {'value':>14}  unit")
    for metric, row in entry["per_layer"].items():
        if row["value"] is not None:
            print(f"   {metric:<36} {fmt(row['value']):>14}  {row['unit']}")


# -- comparing two suite results ---------------------------------------------------


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: M.Metric, base: List[float], cand: List[float]) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one (workload, metric)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    med_base, med_cand = statistics.median(base), statistics.median(cand)
    worsening = sign * (med_cand - med_base)
    if not metric.absolute:
        worsening /= abs(med_base) if med_base else 1.0
    limit = metric.bound
    if not metric.exact and max(spread(base), spread(cand)) > limit:
        # Too noisy to tell by medians: decided only when every pass of
        # one side beats every pass of the other.
        if max(sign * v for v in cand) <= min(sign * v for v in base):
            return "ok"
        if min(sign * v for v in cand) > max(sign * v for v in base):
            return "regressed" if worsening > limit else "ok"
        return "unresolved"
    return "regressed" if worsening > limit else "ok"


def compare(path_a: str, path_b: str) -> int:
    base, cand = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for side in (base, cand):
        if side.get("schema") != SCHEMA:
            sys.exit(f"error: not a {SCHEMA} result")
    if base["seed"] != cand["seed"]:
        print(f"note: seeds differ ({base['seed']} vs {cand['seed']}): exact metrics "
              "then compare two inputs, not two versions of the program")
    regressed = False
    print(f"{'workload':<14} {'ok':>3} {'regressed':>9} {'unresolved':>10}  details")
    for name, entry in base["workloads"].items():
        other = cand["workloads"].get(name)
        if other is None:
            sys.exit(f"error: {path_b} has no workload {name}")
        tally = {"ok": [], "regressed": [], "unresolved": []}
        for metric in M.gated(name):
            a = [v for v in entry["end_to_end"][metric.name]["values"] if v is not None]
            b = [v for v in other["end_to_end"][metric.name]["values"] if v is not None]
            if not a or not b:
                continue  # undefined on this size (too few samples)
            outcome = verdict(metric, a, b)
            note = f"{metric.name} {statistics.median(a):.6g}->{statistics.median(b):.6g}"
            tally[outcome].append(note)
        regressed = regressed or bool(tally["regressed"])
        details = "; ".join(
            f"{kind}: {', '.join(notes)}"
            for kind, notes in tally.items() if kind != "ok" and notes
        )
        print(f"{name:<14} {len(tally['ok']):>3} {len(tally['regressed']):>9} "
              f"{len(tally['unresolved']):>10}  {details}")
    return 1 if regressed else 0


# -- command line --------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload-generator seed (held-out seed for claims: 11)")
    parser.add_argument("--seconds", type=float,
                        help=f"measuring time per run (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = add a traced pass and print the per-layer metrics")
    parser.add_argument("--detail", help="also write the run's full values to this file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds of total time")
    parser.add_argument("--repeats", type=int,
                        help="suite: interleaved passes (default 5, 1 with --smoke)")
    parser.add_argument("--output", help="suite: result file (default out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two suite results under the regression bounds")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 5
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
