#!/usr/bin/env python
"""cProfile the wire-kernel hot path, or the overlay construction.

Runs the scale bench's canonical workload (``uniform-baseline``, same
seed and duration scale as ``bench_scale.py``) on the single-process
message backend under :mod:`cProfile` and prints the top-N functions as
a table -- the first stop when chasing an events/sec regression, and
the nightly workflow uploads its output as an artifact so the hot-path
shape is on record next to every full-scale snapshot.

Usage::

    python benchmarks/profile_kernel.py                  # N=4096, top 30
    python benchmarks/profile_kernel.py --sort tottime   # self-time view
    python benchmarks/profile_kernel.py --output prof.txt --budget-s 300
    python benchmarks/profile_kernel.py --target build --n-peers 4096

The profiled interval covers scenario construction *and* the event
loop -- the same window ``bench_scale.py`` times -- so the table's
shares line up with the recorded wall-clock cells.  ``--budget-s``
bounds the (profiler-inflated) run so a pathological kernel fails fast
instead of eating the CI job's timeout.

``--target build`` profiles :func:`build_overlay` instead -- the
decentralized construction plus its anti-entropy sweeps, on the perf
suite's scale-point input (``perf_harness.construction_keys``, 25 keys
per peer, the seeds ``bench_construction`` uses) -- with the same
``--sort`` / ``--top`` / ``--output`` / ``--budget-s`` flags; the
nightly workflow uploads it as ``build_profile.txt``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_harness import construction_keys  # noqa: E402
from repro.pgrid.network import build_overlay  # noqa: E402
from repro.scenarios import MessageScenarioRunner, scenario  # noqa: E402

#: Mirror bench_scale.py's canonical knobs so profile shares line up
#: with the recorded scale cells.
SCENARIO = "uniform-baseline"
SEED = 20050830
DURATION_SCALE = 0.05
#: The perf suite's ~100k-key scale point uses 25 keys per peer.
BUILD_KEYS_PER_PEER = 25


def format_profile(profiler: cProfile.Profile, *, top: int, sort: str) -> str:
    """The profiler's top-``top`` functions as a plain-text table."""
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort).print_stats(top)
    return buf.getvalue()


def profile_run(
    n_peers: int, *, seed: int, duration_scale: float
) -> tuple[cProfile.Profile, float, int]:
    """Run one profiled cell; returns (profiler, wall_s, events)."""
    spec = scenario(
        SCENARIO, n_peers=n_peers, seed=seed, duration_scale=duration_scale
    )
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    runner = MessageScenarioRunner(spec)
    runner.run()
    profiler.disable()
    wall_s = time.perf_counter() - start
    return profiler, wall_s, runner.simulator.events_processed


def profile_build(n_peers: int) -> tuple[cProfile.Profile, float, int]:
    """Profile one ``build_overlay``; returns (profiler, wall_s, partitions)."""
    peer_keys = construction_keys(n_peers, BUILD_KEYS_PER_PEER)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    net = build_overlay(peer_keys, rng=11)
    profiler.disable()
    wall_s = time.perf_counter() - start
    return profiler, wall_s, len(net.partitions())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--target", choices=("kernel", "build"), default="kernel",
        help="what to profile: the wire kernel over a scenario run "
        "(default) or build_overlay on the perf suite's construction input",
    )
    parser.add_argument(
        "--n-peers", type=int, default=4096,
        help="population for the profiled run (default: 4096)",
    )
    parser.add_argument("--seed", type=int, default=SEED, help="kernel target only")
    parser.add_argument(
        "--scale", type=float, default=DURATION_SCALE,
        help=f"duration scale, kernel target only (default: {DURATION_SCALE})",
    )
    parser.add_argument(
        "--top", type=int, default=30,
        help="number of functions to print (default: 30)",
    )
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort order (default: cumulative)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the table to this file instead of stdout",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="fail if the profiled run exceeds this many wall seconds",
    )
    args = parser.parse_args(argv)

    if args.target == "build":
        profiler, wall_s, partitions = profile_build(args.n_peers)
        what = (
            f"build profile: build_overlay N={args.n_peers} x "
            f"{BUILD_KEYS_PER_PEER} keys"
        )
        work = f"{partitions} partitions"
    else:
        profiler, wall_s, events = profile_run(
            args.n_peers, seed=args.seed, duration_scale=args.scale
        )
        what = (
            f"kernel profile: {SCENARIO} N={args.n_peers} seed={args.seed} "
            f"scale={args.scale:g}"
        )
        work = f"{events} events"
    header = (
        f"{what}\n"
        f"wall {wall_s:.2f}s (profiler overhead included), "
        f"{work}, top {args.top} by {args.sort}\n\n"
    )
    table = header + format_profile(profiler, top=args.top, sort=args.sort)

    if args.output is not None:
        args.output.write_text(table)
        print(f"wrote profile to {args.output} (wall {wall_s:.2f}s)")
    else:
        print(table, end="")

    if args.budget_s is not None and wall_s > args.budget_s:
        print(
            f"profile_kernel: run took {wall_s:.1f}s, over the "
            f"{args.budget_s:g}s budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
