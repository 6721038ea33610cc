#!/usr/bin/env python
"""Regenerate ``BENCH_core.json`` -- the repo's perf trajectory snapshot.

Guards the data-plane constant factors behind the paper's complexity
claims (Secs. 2.1, 2.3, 4.3): per-operation lookup/range latency on
ideal overlays and end-to-end decentralized construction time, at
N ∈ {256, 1024, 4096} peers.  Run it after any change near the hot
paths; CI runs ``--quick`` on every PR so regressions surface as a diff
of the committed numbers, not as an anecdote.

Usage::

    python benchmarks/bench_perf_suite.py            # full suite
    python benchmarks/bench_perf_suite.py --quick    # CI smoke (N<=1024)
    python benchmarks/bench_perf_suite.py --sizes 256 512
    python benchmarks/bench_perf_suite.py --output /tmp/bench.json
    python benchmarks/bench_perf_suite.py --scale  # + scale matrix

See ``benchmarks/perf_harness.py`` for the methodology and the pinned
seed baseline the emitted ``speedup_vs_seed`` section compares against.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_harness import DEFAULT_OUTPUT, emit, run_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: N in {256, 1024} and fewer query repetitions",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="peer-population sizes to benchmark (default: 256 1024 4096; "
        "--quick default: 256 1024)",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="also run the scale bench (bench_scale.py): the N x "
        "slice-count throughput matrix (single kernel vs sliced-ensemble "
        "worker mode) and heap-health bounds, merged into the same "
        "snapshot's 'scale' section",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON snapshot (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    sizes = args.sizes
    if sizes is None:
        sizes = (256, 1024) if args.quick else (256, 1024, 4096)

    payload = run_suite(sizes, quick=args.quick)
    path = emit(payload, args.output)

    results = payload["results"]
    print(f"wrote {path}")
    for n in payload["sizes"]:
        n = str(n)
        speed = payload["speedup_vs_seed"]
        notes = []
        for metric, unit in (("lookup_us", "us"), ("range_us", "us"), ("build_s", "s")):
            value = results[metric].get(n)
            if value is None:
                continue
            ratio = speed.get(metric, {}).get(n)
            suffix = f" ({ratio}x vs seed)" if ratio else ""
            notes.append(f"{metric.split('_')[0]} {value}{unit}{suffix}")
        print(f"  N={n}: " + ", ".join(notes))

    if args.scale:
        from bench_scale import main as scale_main

        scale_args = ["--output", str(args.output)]
        if args.quick:
            scale_args.append("--smoke")
        return scale_main(scale_args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
