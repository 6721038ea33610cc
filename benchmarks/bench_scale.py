#!/usr/bin/env python
"""Scale bench: the ``scale`` section of ``BENCH_core.json``.

Measures how far the message backend reaches, in one run:

* **Throughput matrix** -- events/sec and wall-clock for the
  uniform-baseline scenario at N in {4096, 16384, 65536} crossed with
  slice counts {1, 4, 8}.  ``shards=1`` runs the single-process
  :class:`~repro.simnet.engine.Simulator`; ``shards>1`` runs worker
  mode (:func:`~repro.scenarios.message_runner.run_sliced_ensemble`):
  the keyspace sliced into independent per-process populations, whose
  per-slice reports the cell sums.  This is the path that makes
  N=65,536 reachable in one bench run.  (The cells keep the
  ``shards``/``mode`` keys so ``check_regression.scale_cells_gate``
  matches them across snapshots.)
* **Heap-health audit** -- every cell records the pending-event peak
  of :class:`~repro.simnet.engine.Simulator`, and the bench fails if any
  kernel's pending peak exceeds a generous per-peer bound -- the guard
  against an unbounded-heap regression hiding inside a wall-clock win.

Modes::

    python benchmarks/bench_scale.py             # full matrix, incl. N=65,536
    python benchmarks/bench_scale.py --nightly   # N=16,384 x shards {1,4,8}
    python benchmarks/bench_scale.py --smoke     # CI: N=8192, shards=4, budgeted

``--smoke`` is the CI ``scale-smoke`` job's workload: one worker-mode
cell with a hard wall-clock budget (``--budget-s``, default 480)
enforced in-script on top of the job's ``timeout-minutes``.

The section is merged into the snapshot alongside the perf and
scenario sections (same idiom as ``bench_scenarios.py``), and
``check_regression.py`` gates it: intra-snapshot pending bounds, plus
events/sec and wall-clock ratios against the committed numbers when
the populations are comparable.

Decision: one kernel, one scale mechanism (ROADMAP item 3)
---------------------------------------------------------
Until PR 12 a second path existed: an in-process conservative-PDES
kernel (per-shard heaps, cross-shard staging inboxes, barrier windows
of one lookahead) selected by ``MessageNetConfig.shards``.  It executed
the byte-identical ``(time, seq)`` order of the plain kernel on one
core, so it could only cost; the question was whether carrying its
barrier protocol across processes could beat ``shards=1`` by the
ROADMAP's >=1.5x on 2-4 cores.  Measured at the last commit that had
it, on the 2-core builder box (uniform-baseline, seed 20050830, best
of 6 interleaved runs):

* N=2048, ``duration_scale=0.3`` (165,116 events): ``shards=1`` 3.37 s
  vs 3.91 / 4.04 / 3.91 s at ``shards=2/4/8`` -- the barrier kernel is
  16-20% slower.  All three shard counts cross the same 10,519 barriers
  (10 ms windows) and stage 26,579 / 44,112 / 57,585 events, i.e.
  15.7 events (~293 us of ``run_until`` work at 18.7 us/event) and
  2.5 / 4.2 / 5.5 staged messages per window.
* A pipe round-trip between two forked processes costs 12.3-13.0 us
  and one staged message 1.9 us to pickle and unpickle.  A
  cross-process kernel pays at least one round-trip per worker per
  barrier plus the staged traffic: on 2 cores a perfectly balanced
  window is 147 us of work + ~26 us of synchronisation + ~10 us of
  pickling, a 1.6x ceiling on ``run_until`` (91% of this run, so
  1.5x on the whole run) before any load imbalance.  With 15.7 events
  per window the busier of two shards carries ~60% of them (binomial
  spread), which already lowers the ceiling to 1.4x / 1.3x.
* At the committed scale knobs (N=16,384, ``duration_scale=0.05``:
  15,456 events, 5,896 barriers) a window holds 2.6 events (~50 us of
  work, less than two round-trips), and ``run_until`` is 1.03 s of a
  3.83 s cell (27%), so even a free 2x on the event loop caps the cell
  at 1.16x.
* Determinism rests on one global ``seq`` counter assigned at schedule
  time and one shared transport RNG drawn in global event order.  Two
  processes cannot both advance them without serialising every
  schedule and every send, which is the single-core kernel again.

No configuration clears 1.5x even before the ``seq``/RNG
serialisation is paid for, so the barrier kernel, its config fields
and its hooks in the plain kernel were deleted.  Worker mode stays: its
slices share nothing, so it needs no barrier at all -- at the price
stated in :func:`~repro.scenarios.message_runner.run_sliced_ensemble`
(an ensemble of independent overlays, not one overlay).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_scenarios import merge_into_snapshot  # noqa: E402
from profile_kernel import format_profile  # noqa: E402

from repro.scenarios import run_sliced_ensemble, scenario  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"

#: The matrix scenario and its knobs.  duration_scale 0.05 keeps the
#: simulated window short enough that the N=65,536 cell completes in one
#: bench run while still exercising churn, queries and maintenance.
SCENARIO = "uniform-baseline"
SEED = 20050830
DURATION_SCALE = 0.05

#: (n_peers, shards) cells per profile.  shards=1 -> single process;
#: shards>1 -> worker mode.  The full profile records at least one
#: N=65,536 run (worker mode only: the point of sharding is that the
#: single-process path need not carry that population).
FULL_CELLS = (
    (4096, 1), (4096, 4), (4096, 8),
    (16384, 1), (16384, 4), (16384, 8),
    (65536, 8),
)
NIGHTLY_CELLS = ((16384, 1), (16384, 4), (16384, 8))
SMOKE_CELLS = ((8192, 4),)

#: Pending-heap bound: no kernel may ever hold more than this many
#: events per resident peer (plus slack for control timers).  Measured
#: peaks sit well under 0.1/peer, so 4/peer is an order of magnitude of
#: headroom while still catching a leak that schedules one event per
#: attempt instead of re-arming a timer.
PENDING_PER_PEER = 4
PENDING_SLACK = 1024


def run_cell_best(
    n_peers: int,
    shards: int,
    *,
    seed: int,
    duration_scale: float,
    repeats: int = 1,
) -> dict:
    """Best-of-``repeats`` runs of one cell (min wall clock kept).

    The workload is deterministic -- every repeat processes the same
    events and produces the same report -- so repeats differ only in
    wall clock, and the minimum is the least-noise measurement.  The
    smoke profile defaults to best-of-2 so a single host-level timing
    spike cannot trip the CI events/sec ratio gate.
    """
    best = None
    for _ in range(max(1, repeats)):
        entry = run_cell(
            n_peers, shards, seed=seed, duration_scale=duration_scale
        )
        if best is None or entry["wall_s"] < best["wall_s"]:
            best = entry
    best["repeats"] = max(1, repeats)
    return best


def run_cell(n_peers: int, shards: int, *, seed: int, duration_scale: float) -> dict:
    """One throughput cell: run, time, and audit heap health."""
    spec = scenario(
        SCENARIO, n_peers=n_peers, seed=seed, duration_scale=duration_scale
    )
    kernels = []
    start = time.perf_counter()
    reports = run_sliced_ensemble(spec, shards=shards, kernel_stats=kernels)
    wall_s = time.perf_counter() - start
    events = sum(k["events_processed"] for k in kernels)
    queries = sum(r.totals["queries"] for r in reports)
    successes = sum(r.totals["successes"] for r in reports)
    pending_peak = max(k["pending_peak"] for k in kernels)
    # The bound applies per kernel: each worker hosts ~n/shards peers.
    resident = -(-n_peers // shards)
    pending_bound = PENDING_PER_PEER * resident + PENDING_SLACK
    return {
        "n_peers": n_peers,
        "shards": shards,
        "mode": "single" if shards == 1 else "workers",
        "wall_s": round(wall_s, 3),
        "worker_wall_s": round(max(k["wall_s"] for k in kernels), 3),
        "events": events,
        "events_per_s": round(events / wall_s, 1) if wall_s > 0 else None,
        "queries": queries,
        "success_rate": successes / queries if queries else None,
        "n_peers_end": sum(r.n_peers_end for r in reports),
        "pending_peak": pending_peak,
        "pending_bound": pending_bound,
        "pending_bound_ok": pending_peak <= pending_bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    profile_group = parser.add_mutually_exclusive_group()
    profile_group.add_argument(
        "--smoke", action="store_true",
        help=f"CI mode: one worker-mode cell at N={SMOKE_CELLS[0][0]}, "
             f"shards={SMOKE_CELLS[0][1]}, hard wall-clock budget",
    )
    profile_group.add_argument(
        "--nightly", action="store_true",
        help="nightly mode: the N=16,384 row of the matrix (shards 1/4/8)",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="fail if the bench's total wall time exceeds this many "
             "seconds (default: 480 in --smoke mode, unlimited otherwise)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--scale", type=float, default=DURATION_SCALE,
        help=f"duration scale for every cell (default: {DURATION_SCALE})",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="run each cell this many times and keep the fastest wall "
             "clock (default: 2 in --smoke mode, 1 otherwise); the "
             "workload is deterministic, so repeats only de-noise the "
             "timing",
    )
    parser.add_argument(
        "--profile", type=Path, nargs="?", metavar="PATH",
        const=REPO_ROOT / "bench_scale_profile.txt", default=None,
        help="run the throughput cells under cProfile and write the "
             "top-40 cumulative table to PATH (default: "
             "bench_scale_profile.txt); profiler overhead inflates the "
             "recorded walls, so don't commit a snapshot from a "
             "profiled run",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"perf snapshot to update (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        profile, cells = "smoke", SMOKE_CELLS
    elif args.nightly:
        profile, cells = "nightly", NIGHTLY_CELLS
    else:
        profile, cells = "full", FULL_CELLS
    budget_s = args.budget_s
    if budget_s is None and args.smoke:
        budget_s = 480.0
    repeats = args.repeats
    if repeats is None:
        repeats = 2 if args.smoke else 1

    failures = []
    bench_start = time.perf_counter()

    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    results = []
    for n_peers, shards in cells:
        entry = run_cell_best(
            n_peers, shards, seed=args.seed, duration_scale=args.scale,
            repeats=repeats,
        )
        results.append(entry)
        success = entry["success_rate"]
        print(
            f"  N={n_peers:6d} shards={shards}  [{entry['mode']:7s}]  "
            f"wall {entry['wall_s']:8.2f}s  "
            f"events {entry['events']:9d}  "
            f"ev/s {entry['events_per_s']:10.1f}  "
            f"queries {entry['queries']:6d}  "
            f"success {'n/a' if success is None else format(success, '.4f')}  "
            f"pend-peak {entry['pending_peak']}"
        )
        if not entry["pending_bound_ok"]:
            failures.append(
                f"N={n_peers} shards={shards}: pending peak "
                f"{entry['pending_peak']} exceeds bound "
                f"{entry['pending_bound']} "
                f"({PENDING_PER_PEER}/peer + {PENDING_SLACK})"
            )

    if profiler is not None:
        profiler.disable()
        table = format_profile(profiler, top=40, sort="cumulative")
        args.profile.write_text(table)
        print(f"wrote cProfile table to {args.profile}")

    total_wall = time.perf_counter() - bench_start
    if budget_s is not None and total_wall > budget_s:
        failures.append(
            f"bench wall time {total_wall:.1f}s exceeds the "
            f"{budget_s:g}s budget"
        )

    section = {
        "generated_by": "benchmarks/bench_scale.py",
        "schema": "scale/v1",
        "profile": profile,
        "scenario": SCENARIO,
        "seed": args.seed,
        "duration_scale": args.scale,
        "total_wall_s": round(total_wall, 3),
        "cells": results,
    }
    path = merge_into_snapshot(section, args.output, "scale")
    print(f"updated {path} (scale @ {profile}, total wall {total_wall:.1f}s)")

    if failures:
        print("\nscale bench failures:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
