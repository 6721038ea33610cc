#!/usr/bin/env python
"""cProfile the wire-kernel hot path, or the overlay construction.

Runs the scale bench's canonical workload (``uniform-baseline``, same
seed and duration scale as ``bench_scale.py``) on the single-process
message backend under :mod:`cProfile` and prints the top-N functions as
a table -- the first stop when chasing a host-time regression that
``benchmarks/layered/run.py`` reports, and the nightly workflow uploads
its output as an artifact so the hot-path shape is on record next to
every full-scale snapshot.

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
decentralized construction plus its anti-entropy sweeps, on seeded
uniform keys (:func:`construction_keys`, 25 keys per peer, ~100k keys
at N=4096) -- with the same ``--sort`` / ``--top`` / ``--output`` /
``--budget-s`` flags; the nightly workflow uploads it as
``build_profile.txt``.

Both targets print the process's peak RSS (``ru_maxrss``, import floor
included) next to the wall time, so the build profile records
construction memory at N=4096 too.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import random
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.pgrid.keyspace import float_to_key  # noqa: E402
from repro.pgrid.network import build_overlay  # noqa: E402
from repro.scenarios import MessageScenarioRunner, scenario  # noqa: E402

#: Mirror bench_scale.py's canonical knobs so profile shares line up
#: with the recorded scale cells.
SCENARIO = "uniform-baseline"
SEED = 20050830
DURATION_SCALE = 0.05
#: ~100k keys at N=4096, the ROADMAP's scale point.
BUILD_KEYS_PER_PEER = 25


def format_profile(profiler: cProfile.Profile, *, top: int, sort: str) -> str:
    """The profiler's top-``top`` functions as a plain-text table."""
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort).print_stats(top)
    return buf.getvalue()


def construction_keys(n_peers: int, keys_per_peer: int) -> list:
    """The construction input: seeded uniform keys per peer."""
    rand = random.Random(7)
    return [
        [float_to_key(rand.random()) for _ in range(keys_per_peer)]
        for _ in range(n_peers)
    ]


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
        "(default) or build_overlay on seeded uniform keys",
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
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    header = (
        f"{what}\n"
        f"wall {wall_s:.2f}s (profiler overhead included), "
        f"peak RSS {peak_rss_mb:.1f} MiB, "
        f"{work}, top {args.top} by {args.sort}\n\n"
    )
    table = header + format_profile(profiler, top=args.top, sort=args.sort)

    if args.output is not None:
        args.output.write_text(table)
        print(
            f"wrote profile to {args.output} "
            f"(wall {wall_s:.2f}s, peak RSS {peak_rss_mb:.1f} MiB)"
        )
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
