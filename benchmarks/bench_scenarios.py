#!/usr/bin/env python
"""Run the named scenario library and record results in ``BENCH_core.json``.

Executes every scenario registered in :mod:`repro.scenarios.library`
(uniform-baseline, pareto-hotspot, flash-crowd, mass-join, mass-leave,
paper-sec51-churn, regional-outage, correlated-churn, the write
workloads read-write-balanced, write-hotspot-adversarial and
asymmetric-partition-writes, plus the persistence/restart scenarios
restart-storm, rolling-deploy and datacenter-power-cycle -- the latter
run twice, once with durability on and once as the cold-rejoin
baseline, recorded inline under ``recovery.cold``, plus the
serving-layer scenarios zipf-serving and cache-coherence-storm --
likewise run twice, once with caches on and once with
``CachePolicy(enabled=False)``, recorded inline under
``serving.off`` -- plus the multi-dimensional scenarios
geo-box-serving and correlated-hotspot-2d, whose entries carry the
box-recall audit and z-order decomposition stats under ``mdim``) on
one or both execution backends and
merges the results into the repo's snapshot of deterministic, gated
numbers:

* ``--backend dataplane`` (default) -> the ``scenarios`` section:
  synchronous data-plane queries, nominal byte model.
* ``--backend message`` -> the ``scenarios_message`` section: the same
  specs over message-passing nodes with latency/loss; entries carry the
  wire-level extras (latency percentiles, timeouts/retries, drops).
* ``--backend both`` -> both sections in one run.

The Sec. 5.1 churn entry additionally carries the query success rate
and bandwidth timelines (per report bin), mirroring the paper's
Figs. 7-9 churn window.

Sections are *merged* into the existing snapshot -- running this before
or after ``bench_scale.py`` yields the same file (both preserve each
other's sections).

Usage::

    python benchmarks/bench_scenarios.py            # full: N=4096
    python benchmarks/bench_scenarios.py --quick    # CI smoke: N=256, 4x compressed
    python benchmarks/bench_scenarios.py --backend both --n 1024 --scale 0.5
    python benchmarks/bench_scenarios.py --output /tmp/bench.json

Guards: query success under churn/membership waves, message/bandwidth
totals and per-peer load imbalance at the ROADMAP's N=4096 scale point;
plus wire-level latency/timeout behavior on the message backend;
regressions surface as a diff of the committed numbers.  Determinism of
the underlying reports is enforced separately by
``tests/test_scenario_determinism.py`` and
``tests/test_message_scenarios.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.scenarios import (  # noqa: E402
    SCENARIOS,
    DurabilityPolicy,
    MessageNetConfig,
    runner_for,
    scenario,
)

#: Default location of the shared snapshot.
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"

#: The ROADMAP scale point (full mode) and the CI smoke population.
FULL_N = 4096
QUICK_N = 256

#: Snapshot section per backend.
SECTION_KEYS = {"dataplane": "scenarios", "message": "scenarios_message"}


def _cold_kwargs(backend: str) -> dict:
    """Runner kwargs for the durability-off (cold-rejoin) baseline pass."""
    cold = DurabilityPolicy(enabled=False)
    if backend == "message":
        return {"net_config": MessageNetConfig(durability=cold)}
    return {"durability": cold}


def run_all(n_peers: int, *, seed: int, duration_scale: float, backend: str) -> dict:
    """Execute every library scenario on ``backend``; returns the payload."""
    runner_cls = runner_for(backend)
    results = {}
    for name in sorted(SCENARIOS):
        spec = scenario(name, n_peers=n_peers, seed=seed, duration_scale=duration_scale)
        t0 = time.perf_counter()
        report = runner_cls(spec).run()
        wall = time.perf_counter() - t0
        totals = report.totals
        entry = {
            "wall_s": round(wall, 3),
            "sim_minutes": round(report.duration_s / 60.0, 3),
            "n_peers_end": report.n_peers_end,
            "queries": totals["queries"],
            "success_rate": totals["success_rate"],
            "mean_hops": totals["mean_hops"],
            "messages": totals["messages"],
            "bytes_query": totals["bytes_query"],
            "bytes_maintenance": totals["bytes_maintenance"],
            "load_cv": report.load["cv"],
            "load_max_over_mean": report.load["max_over_mean"],
            "churn_transitions": totals["churn_transitions"],
            "joins": totals["joins"],
            "leaves": totals["leaves"],
            "final_partition_availability": totals["final_partition_availability"],
            "final_coverage": totals["final_coverage"],
        }
        if report.writes is not None:
            # Write-path metrics (gated by check_regression.py alongside
            # success_rate): mutation throughput, write success, the
            # update side of the Fig. 8 bandwidth split, and replica
            # divergence at scenario end.
            w = report.writes
            entry["writes"] = w["writes"]
            entry["write_success_rate"] = w["success_rate"]
            entry["bytes_update"] = w["bytes_update"]
            entry["update_Bps_mean"] = round(
                w["bytes_update"] / report.duration_s, 3
            )
            entry["divergence_final"] = w["divergence"]["mean"]
            entry["stale_replicas_final"] = w["divergence"]["stale_replicas"]
        if report.recovery is not None:
            # Persistence & recovery metrics (gated by
            # check_regression.py): the warm (durability-on) run is the
            # headline entry; a second durability-off pass of the same
            # spec records the cold sponsored-join baseline inline, so
            # the snapshot itself proves warm rejoin beats cold.
            rec = report.recovery
            entry["recovery_time_s"] = rec["time_to_converged_divergence_s"]
            entry["recovery_maint_bytes"] = rec["recovery_maint_bytes"]
            entry["lost_acked_writes"] = rec["lost_acked_writes"]
            entry["tombstone_resurrections"] = rec["tombstone_resurrections"]
            t0 = time.perf_counter()
            cold_report = runner_cls(spec, **_cold_kwargs(backend)).run()
            cold_wall = time.perf_counter() - t0
            cold = cold_report.recovery
            entry["recovery"] = {
                "durability_enabled": rec["durability_enabled"],
                "snapshot_interval_s": rec["snapshot_interval_s"],
                "restarts": rec["restarts"],
                "clean_shutdowns": rec["clean_shutdowns"],
                "crashes": rec["crashes"],
                "warm_rejoins": rec["warm_rejoins"],
                "cold_rejoins": rec["cold_rejoins"],
                "checkpoints": rec["checkpoints"],
                "converged": rec["converged"],
                "acked_writes_tracked": rec["acked_writes_tracked"],
                "cold": {
                    "wall_s": round(cold_wall, 3),
                    "cold_rejoins": cold["cold_rejoins"],
                    "converged": cold["converged"],
                    "time_to_converged_divergence_s":
                        cold["time_to_converged_divergence_s"],
                    "recovery_maint_bytes": cold["recovery_maint_bytes"],
                    "lost_acked_writes": cold["lost_acked_writes"],
                    "tombstone_resurrections": cold["tombstone_resurrections"],
                },
            }
        if report.serving is not None:
            # Query-serving front-end metrics (gated by
            # check_regression.py): cache effectiveness, coherence cost
            # (measured stale reads against the authoritative key view)
            # and per-peer load spread.  A second pass of the same spec
            # with ``CachePolicy(enabled=False)`` records the cache-off
            # baseline inline under ``serving.off``, so the snapshot
            # itself proves the caches improve tail latency and load
            # balance rather than merely adding machinery.
            srv = report.serving
            entry["cache_hit_rate"] = srv["cache_hit_rate"]
            entry["stale_read_rate"] = srv["stale_read_rate"]
            entry["serving_p99_s"] = srv["latency_s"].get("p99")
            entry["load_gini"] = srv["load_gini"]
            off_spec = dataclasses.replace(
                spec, cache=dataclasses.replace(spec.cache, enabled=False)
            )
            t0 = time.perf_counter()
            off_report = runner_cls(off_spec).run()
            off_wall = time.perf_counter() - t0
            off = off_report.serving
            entry["serving"] = {
                "enabled": srv["enabled"],
                "policy": srv["policy"],
                "cache_hits": srv["cache_hits"],
                "cache_misses": srv["cache_misses"],
                "audited_hits": srv["audited_hits"],
                "stale_reads": srv["stale_reads"],
                "dedup_joined": srv["dedup_joined"],
                "invalidations": srv["invalidations"],
                "route_uses": srv["route_uses"],
                "route_invalidations": srv["route_invalidations"],
                "grants": srv["grants"],
                "revokes": srv["revokes"],
                "grant_hits": srv["grant_hits"],
                "helpers_final": srv["helpers_final"],
                "latency_s": srv["latency_s"],
                "off": {
                    "wall_s": round(off_wall, 3),
                    "success_rate": off_report.totals["success_rate"],
                    "serving_p99_s": off["latency_s"].get("p99"),
                    "load_gini": off["load_gini"],
                    "latency_s": off["latency_s"],
                },
            }
        if report.mdim is not None:
            # Multi-dimensional box-query metrics (gated by
            # check_regression.py): recall against the brute-force
            # oracle and the partitions a box's shower reaches.
            md = report.mdim
            entry["box_recall"] = md["box_recall"]
            entry["partitions_per_box"] = md["partitions_per_box_mean"]
            entry["mdim"] = {
                "dims": md["dims"],
                "bits_per_dim": md["bits_per_dim"],
                "boxes": md["boxes"],
                "box_success_rate": md["box_success_rate"],
                "partitions_per_box_p90": md["partitions_per_box_p90"],
                "recall_expected": md["recall_expected"],
                "recall_found": md["recall_found"],
                "selectivity_per_dim": md["selectivity_per_dim"],
            }
        if report.message_level is not None:
            ml = report.message_level
            entry["message_level"] = {
                "latency_s": ml["latency_s"],
                "range_latency_s": ml["range_latency_s"],
                "timeouts": ml["timeouts"],
                "retries": ml["retries"],
                "messages_dropped": ml["messages_dropped"],
                "drops": ml["drops"],
                "inflight_peak": ml["inflight_peak"],
                "links_used": ml["links"]["used"],
                # Ground-truth audits of what the probe budget leaves
                # behind (see ``message_level.repair``).
                "dead_refs_final": ml["repair"]["dead_refs_final"],
                "dark_levels_final": ml["repair"]["dark_levels_final"],
            }
        if name == "paper-sec51-churn":
            # Acceptance series: success rate and bandwidth over time.
            entry["success_rate_over_time"] = [
                [round(minute, 3), round(rate, 4)]
                for minute, rate in report.success_rate_series()
            ]
            entry["bandwidth_Bps_over_time"] = [
                [round(minute, 3), round(query_bps + maint_bps, 2)]
                for minute, query_bps, maint_bps in report.bandwidth_series()
            ]
        results[name] = entry
    return results


def merge_into_snapshot(section: dict, output: Path, key: str = "scenarios") -> Path:
    """Merge one backend's section into ``BENCH_core.json``, preserving
    every other section, so the bench scripts may run in any order."""
    if output.exists():
        payload = json.loads(output.read_text())
    else:
        payload = {"schema": "bench-core/v1"}
    payload[key] = section
    output.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: N={QUICK_N} peers, 4x compressed timelines",
    )
    parser.add_argument(
        "--backend",
        choices=("dataplane", "message", "both"),
        default="dataplane",
        help="scenario execution backend(s) to run (default: dataplane)",
    )
    parser.add_argument(
        "--n", type=int, default=None,
        help=f"peer population (default: {FULL_N}; --quick default: {QUICK_N})",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="duration scale for every scenario (default: 1.0; --quick: 0.25)",
    )
    parser.add_argument("--seed", type=int, default=20050830)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"snapshot to update (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    n_peers = args.n if args.n is not None else (QUICK_N if args.quick else FULL_N)
    scale = args.scale if args.scale is not None else (0.25 if args.quick else 1.0)
    backends = ("dataplane", "message") if args.backend == "both" else (args.backend,)

    for backend in backends:
        section = {
            "generated_by": "benchmarks/bench_scenarios.py",
            "backend": backend,
            "quick": args.quick,
            "n_peers": n_peers,
            "duration_scale": scale,
            "seed": args.seed,
            "results": run_all(
                n_peers, seed=args.seed, duration_scale=scale, backend=backend
            ),
        }
        path = merge_into_snapshot(section, args.output, SECTION_KEYS[backend])

        print(f"updated {path} ({SECTION_KEYS[backend]} @ N={n_peers}, scale={scale})")
        for name, entry in section["results"].items():
            # success_rate/mean_hops are None when a run saw no (point) queries.
            success = entry["success_rate"]
            hops = entry["mean_hops"]
            line = (
                f"  {name:18s} wall {entry['wall_s']:7.2f}s  "
                f"queries {entry['queries']:6d}  "
                f"success {'n/a' if success is None else format(success, '.4f')}  "
                f"hops {'n/a' if hops is None else format(hops, '.2f')}  "
                f"load-cv {entry['load_cv']:.3f}"
            )
            ml = entry.get("message_level")
            if ml:
                p50 = ml["latency_s"].get("p50")
                line += (
                    f"  p50 {'n/a' if p50 is None else format(p50, '.3f')}s  "
                    f"timeouts {ml['timeouts']}"
                )
            if "writes" in entry:
                wsr = entry["write_success_rate"]
                line += (
                    f"  writes {entry['writes']:6d}  "
                    f"w-success {'n/a' if wsr is None else format(wsr, '.4f')}  "
                    f"div {entry['divergence_final']:.4f}"
                )
            srv = entry.get("serving")
            if srv:
                hit = entry["cache_hit_rate"]
                stale = entry["stale_read_rate"]
                p99_on = entry["serving_p99_s"]
                p99_off = srv["off"]["serving_p99_s"]
                line += (
                    f"  hit {'n/a' if hit is None else format(hit, '.3f')}  "
                    f"stale {'n/a' if stale is None else format(stale, '.3f')}  "
                    f"p99 {'n/a' if p99_on is None else format(p99_on, '.2f')}s"
                    f"/off {'n/a' if p99_off is None else format(p99_off, '.2f')}s  "
                    f"gini {entry['load_gini']:.3f}/off {srv['off']['load_gini']:.3f}"
                )
            md = entry.get("mdim")
            if md:
                recall = entry["box_recall"]
                ppb = entry["partitions_per_box"]
                line += (
                    f"  boxes {md['boxes']:5d}  "
                    f"recall {'n/a' if recall is None else format(recall, '.4f')}  "
                    f"ppb {'n/a' if ppb is None else format(ppb, '.2f')}"
                    f"/p90 {md['partitions_per_box_p90']}"
                )
            rec = entry.get("recovery")
            if rec:
                warm_t = entry["recovery_time_s"]
                cold_t = rec["cold"]["time_to_converged_divergence_s"]
                line += (
                    f"  warm {'n/a' if warm_t is None else format(warm_t, '.1f')}s/"
                    f"{entry['recovery_maint_bytes']}B  "
                    f"cold {'n/a' if cold_t is None else format(cold_t, '.1f')}s/"
                    f"{rec['cold']['recovery_maint_bytes']}B  "
                    f"lost {entry['lost_acked_writes']}  "
                    f"resurrected {entry['tombstone_resurrections']}"
                )
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
