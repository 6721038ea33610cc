#!/usr/bin/env python
"""Scale bench: the ``scale`` section of ``BENCH_core.json``.

Measures how far the message backend reaches on one kernel, in one run:

* **Throughput cells** -- events/sec, wall-clock and peak RSS for the
  uniform-baseline scenario at N in {4096, 16384, 65536}, each one
  overlay on one :class:`~repro.simnet.engine.Simulator`.  These host
  numbers are recorded, not gated: host time is judged by
  ``benchmarks/layered/run.py``.  ``peak_rss_mb`` is the process's
  ``ru_maxrss`` high-water mark; cells run in ascending N, so each
  reading is the largest cell so far, i.e. that cell's own.
* **Heap-health audit** -- every cell records the pending-event peak
  of the kernel, and the bench fails if it exceeds a generous per-peer
  bound -- the guard against an unbounded-heap regression hiding inside
  a wall-clock win.

Usage::

    python benchmarks/bench_scale.py             # N = 4096, 16,384, 65,536

The section is merged into the snapshot alongside the scenario
sections (same idiom as ``bench_scenarios.py``), and
``check_regression.scale_bounds_gate`` gates its pending bounds.
``benchmarks/profile_kernel.py`` profiles the same cell.

Decision: one kernel (ROADMAP items 3 and 10)
---------------------------------------------
Two other scale paths were measured and deleted (uniform-baseline,
seed 20050830, 2-core x86-64 Linux host):

* An in-process conservative-PDES kernel (per-shard heaps, barrier
  windows of one lookahead; best of 6 interleaved runs).  At N=2048,
  ``duration_scale=0.3`` (165,116 events) the plain kernel took 3.37 s
  against 3.91 / 4.04 / 3.91 s at 2 / 4 / 8 shards, over 10,519
  barriers of 15.7 events (~293 us of work) each.  A pipe round-trip
  between forked processes costs 12.3-13.0 us and a staged message
  1.9 us to pickle, which caps a cross-process kernel on 2 cores at
  1.4x before the global ``seq`` counter and transport RNG are
  serialised.  At N=16,384, ``duration_scale=0.05`` a window holds 2.6
  events and ``run_until`` is 27% of the cell.
* Worker mode: independent keyspace slices in forked processes, an
  ensemble of overlays rather than one.  In this bench's cells (best of
  3) it was never more than 3% faster than the plain kernel: 0.466 s
  against 0.515 / 0.532 s with 4 / 8 workers at N=4096, 2.442 s against
  2.464 / 2.367 s at N=16,384.  The plain kernel holds N=65,536 in
  13.7-15.2 s with 698 MiB peak RSS.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_scenarios import merge_into_snapshot  # noqa: E402

from repro.scenarios import scenario  # noqa: E402
from repro.scenarios.message_runner import MessageScenarioRunner  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"

#: The matrix scenario and its knobs.  duration_scale 0.05 keeps the
#: simulated window short enough that the N=65,536 cell completes in one
#: bench run while still exercising churn, queries and maintenance.
SCENARIO = "uniform-baseline"
SEED = 20050830
DURATION_SCALE = 0.05

#: Populations, one cell each, in ascending order (see ``peak_rss_mb``).
CELLS = (4096, 16384, 65536)

#: Pending-heap bound: no kernel may ever hold more than this many
#: events per resident peer (plus slack for control timers).  Measured
#: peaks sit well under 0.1/peer, so 4/peer is an order of magnitude of
#: headroom while still catching a leak that schedules one event per
#: attempt instead of re-arming a timer.
PENDING_PER_PEER = 4
PENDING_SLACK = 1024


def run_cell(n_peers: int, *, seed: int, duration_scale: float) -> dict:
    """One throughput cell: run, time, and audit heap health."""
    spec = scenario(
        SCENARIO, n_peers=n_peers, seed=seed, duration_scale=duration_scale
    )
    start = time.perf_counter()
    runner = MessageScenarioRunner(spec)
    report = runner.run()
    wall_s = time.perf_counter() - start
    events = runner.simulator.events_processed
    pending_peak = runner.simulator.pending_peak
    queries = report.totals["queries"]
    pending_bound = PENDING_PER_PEER * n_peers + PENDING_SLACK
    return {
        "n_peers": n_peers,
        "wall_s": round(wall_s, 3),
        "events": events,
        "events_per_s": round(events / wall_s, 1) if wall_s > 0 else None,
        "queries": queries,
        "success_rate": report.totals["successes"] / queries if queries else None,
        "n_peers_end": report.n_peers_end,
        "pending_peak": pending_peak,
        "pending_bound": pending_bound,
        "pending_bound_ok": pending_peak <= pending_bound,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--scale", type=float, default=DURATION_SCALE,
        help=f"duration scale for every cell (default: {DURATION_SCALE})",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"snapshot to update (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    failures = []
    bench_start = time.perf_counter()
    results = []
    for n_peers in CELLS:
        entry = run_cell(n_peers, seed=args.seed, duration_scale=args.scale)
        results.append(entry)
        success = entry["success_rate"]
        print(
            f"  N={n_peers:6d}  "
            f"wall {entry['wall_s']:8.2f}s  "
            f"events {entry['events']:9d}  "
            f"ev/s {entry['events_per_s']:10.1f}  "
            f"queries {entry['queries']:6d}  "
            f"success {'n/a' if success is None else format(success, '.4f')}  "
            f"pend-peak {entry['pending_peak']}  "
            f"rss {entry['peak_rss_mb']:.0f} MiB"
        )
        if not entry["pending_bound_ok"]:
            failures.append(
                f"N={n_peers}: pending peak "
                f"{entry['pending_peak']} exceeds bound "
                f"{entry['pending_bound']} "
                f"({PENDING_PER_PEER}/peer + {PENDING_SLACK})"
            )
    total_wall = time.perf_counter() - bench_start

    section = {
        "generated_by": "benchmarks/bench_scale.py",
        "schema": "scale/v1",
        "scenario": SCENARIO,
        "seed": args.seed,
        "duration_scale": args.scale,
        "total_wall_s": round(total_wall, 3),
        "cells": results,
    }
    path = merge_into_snapshot(section, args.output, "scale")
    print(f"updated {path} (scale, total wall {total_wall:.1f}s)")

    if failures:
        print("\nscale bench failures:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
