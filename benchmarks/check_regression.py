#!/usr/bin/env python
"""Perf-regression gate: fail when fresh numbers regress vs a baseline.

Compares a freshly generated ``BENCH_core.json`` (the *candidate*,
typically ``bench_perf_suite.py --quick`` output) against a committed
snapshot (the *baseline*) and exits non-zero when ``lookup_us``,
``range_us`` or ``build_s`` regressed beyond ``--tolerance`` (default
1.5x -- wide enough to absorb shared-runner noise, tight enough to
catch a lost fast path) at any overlapping overlay size.

CI usage (the ``perf-smoke`` job)::

    cp BENCH_core.json /tmp/BENCH_baseline.json   # committed numbers
    python benchmarks/bench_perf_suite.py --quick # regenerate in place
    python benchmarks/check_regression.py \\
        --baseline /tmp/BENCH_baseline.json --candidate BENCH_core.json

Only sizes present in *both* snapshots are compared (the quick suite
skips N=4096), so the committed full-suite snapshot doubles as the
baseline.  Improvements are reported but never fail the gate.  Exit
codes: 0 ok, 1 regression, 2 unusable input (no overlapping metrics --
a misconfigured gate must not pass silently).

Besides the perf metrics, the gate also guards the **scenario
sections** of both execution backends (``scenarios`` /
``scenarios_message``, written by ``bench_scenarios.py``).  Per
scenario entry it compares every metric it knows the direction of,
instead of silently ignoring unknown keys:

* ``success_rate`` and ``write_success_rate`` -- an absolute drop
  beyond ``--scenario-tolerance`` (default 0.05) fails: e.g.
  ``mass-leave`` sliding back toward the unrepaired ~0.64, or the write
  path losing mutations it used to land;
* ``divergence_final`` -- an absolute *rise* beyond the same tolerance
  fails: replica staleness regressing means replica sync/anti-entropy
  stopped keeping up with the write stream;
* ``bytes_update`` -- growth beyond the ratio ``--tolerance`` fails: a
  write-path bandwidth blowup is a regression even when success holds;
* ``bytes_maintenance`` -- likewise: the probe, gossip and exchange tax
  creeping back is a regression even when every query still succeeds;
* ``recovery_time_s`` / ``recovery_maint_bytes`` -- ratio growth fails:
  warm rejoin getting slower or chattier than its committed numbers;
* ``lost_acked_writes`` / ``tombstone_resurrections`` -- any rise fails;
* ``cache_hit_rate`` -- an absolute drop beyond the scenario tolerance
  fails: the serving front end losing its hits means caching stopped
  absorbing the Zipf head;
* ``stale_read_rate`` -- an absolute *rise* beyond the same tolerance
  fails: coherence (write invalidation + TTL) regressing silently;
* ``serving_p99_s`` -- ratio growth fails: the cached tail latency is
  the headline serving win and must not drift back to the uncached
  timeout band;
* ``box_recall`` -- an absolute drop beyond the scenario tolerance
  fails: the z-order box decomposition losing keys it used to find
  means multi-dimensional queries silently under-cover;
* ``ranges_per_box`` -- growth beyond the ratio ``--tolerance`` fails:
  the litmax/bigmin splitter fragmenting boxes it used to cover
  cheaply is a routing-cost regression even when recall holds.

Restart scenarios additionally get an **intra-snapshot** recovery gate
(:func:`check_recovery`, candidate only, no baseline needed): warm
rejoin must beat the inline ``recovery.cold`` baseline on
time-to-converged-divergence and recovery maintenance bytes, and a
clean-shutdown run with durability enabled must report zero lost acked
writes and zero tombstone resurrections.  Because it needs no
baseline, this gate runs in the perf-smoke quick job too.

Serving scenarios get the analogous **intra-snapshot** serving gate
(:func:`check_serving`): with caches on, serving p99 latency and the
per-peer load Gini must be strictly better than the inline
``serving.off`` baseline pass (same spec, ``CachePolicy(enabled=
False)``) recorded by ``bench_scenarios.py``, and end-to-end query
success must not drop -- a cache that serves stale garbage fast would
otherwise look like a win.

Multi-dimensional scenarios get their own **intra-snapshot** gate
(:func:`check_mdim`): the box-recall audit must stay within the
scenario tolerance of 1.0 (exactly 1.0 on maintenance-free specs like
``geo-box-serving``), and both the mean and max ranges-per-box must
respect the codec's pinned ``split_budget`` -- the litmax/bigmin
decomposition is defined to stop splitting at the budget, so a breach
means the knob stopped being wired through.

The ``scale`` section (written by ``bench_scale.py``) gets both kinds
of gate: cells matched on ``(n_peers, shards, mode)`` compare
``wall_s`` growth and ``events_per_s`` shrinkage against the committed
matrix at the ratio tolerance (:func:`compare_scale`), and one
intra-snapshot invariant holds on the candidate alone
(:func:`check_scale`) -- every cell's pending-event peak must sit
under its recorded bound.

Scenario sections are only compared when both snapshots ran the same
population and duration scale (the quick CI candidate at N=256 is
incomparable to the committed N=4096 section and is skipped with a
note; the nightly full run compares for real).

When ``$GITHUB_STEP_SUMMARY`` is set (every GitHub Actions step) -- or
``--summary PATH`` is passed -- the gate also appends a markdown
verdict table per metric per size, so a failure is readable from the
run's summary page instead of raw logs.

Guards: the PR-1 data-plane speedups (sorted key stores, memoized
inversions, query fast paths), the PR-4 message-level route-repair
success floor, the PR-5 write-path success/divergence floors, the
PR-6 persistence/recovery floors (warm-beats-cold, zero loss on clean
shutdown), the PR-7 serving-layer floors (cache-on beats cache-off
on tail latency and load spread, bounded staleness), the PR-8 scale
floors (bounded event heaps, N=16,384/65,536 throughput), and the
PR-10 multi-dimensional
floors (box recall, budget-bounded z-order decomposition), as
committed in ``BENCH_core.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Gated metrics: per-operation query latencies and end-to-end build time.
METRICS = ("lookup_us", "range_us", "build_s")

#: Default regression tolerance (candidate/baseline ratio).
DEFAULT_TOLERANCE = 1.5

#: Max allowed absolute drop in a scenario success rate (and rise in
#: replica divergence).
DEFAULT_SCENARIO_TOLERANCE = 0.05

#: Gated scenario sections, one per execution backend.
SCENARIO_SECTIONS = ("scenarios", "scenarios_message")


def compare(
    baseline: dict, candidate: dict, tolerance: float
) -> Tuple[List[Tuple[str, str, float, float, float]], List[str]]:
    """Compare the gated metrics; returns ``(rows, failures)``.

    Each row is ``(metric, size, baseline_value, candidate_value,
    ratio)``; ``failures`` holds one message per breached tolerance.
    """
    rows: List[Tuple[str, str, float, float, float]] = []
    failures: List[str] = []
    for metric in METRICS:
        base: Dict[str, float] = baseline.get("results", {}).get(metric, {})
        cand: Dict[str, float] = candidate.get("results", {}).get(metric, {})
        for size in sorted(set(base) & set(cand), key=int):
            base_value = float(base[size])
            cand_value = float(cand[size])
            ratio = cand_value / base_value if base_value > 0 else float("inf")
            rows.append((metric, size, base_value, cand_value, ratio))
            if ratio > tolerance:
                failures.append(
                    f"{metric} @ N={size}: {cand_value:g} vs baseline "
                    f"{base_value:g} ({ratio:.2f}x > {tolerance:g}x tolerance)"
                )
    return rows, failures


#: Gated per-scenario metrics, as ``(key, direction)``:
#: ``"drop"`` -- an absolute drop beyond the scenario tolerance fails;
#: ``"rise"`` -- an absolute rise beyond the scenario tolerance fails;
#: ``"ratio"`` -- growth beyond the perf ratio tolerance fails.
SCENARIO_METRICS = (
    ("success_rate", "drop"),
    ("write_success_rate", "drop"),
    ("divergence_final", "rise"),
    ("bytes_update", "ratio"),
    ("bytes_maintenance", "ratio"),
    # Persistence/recovery metrics (restart scenarios only; written by
    # bench_scenarios.py from the report's ``recovery`` section).
    ("recovery_time_s", "ratio"),
    ("recovery_maint_bytes", "ratio"),
    ("lost_acked_writes", "rise"),
    ("tombstone_resurrections", "rise"),
    # Serving front-end metrics (serving scenarios only; written by
    # bench_scenarios.py from the report's ``serving`` section).
    ("cache_hit_rate", "drop"),
    ("stale_read_rate", "rise"),
    ("serving_p99_s", "ratio"),
    # Multi-dimensional box-query metrics (mdim scenarios only; written
    # by bench_scenarios.py from the report's ``mdim`` section).  Box
    # recall sliding means the z-order decomposition stopped covering
    # the boxes it claims to serve; ranges-per-box growing means the
    # litmax/bigmin splitter fragments boxes it used to cover cheaply.
    ("box_recall", "drop"),
    ("ranges_per_box", "ratio"),
)


def _metric_breach(
    direction: str, base: float, cand: float, abs_tol: float, ratio_tol: float
) -> bool:
    if direction == "drop":
        return cand < base - abs_tol
    if direction == "rise":
        return cand > base + abs_tol
    # ratio: only growth regresses (shrinking write bytes is a win).
    return base > 0 and cand / base > ratio_tol


def compare_scenarios(
    baseline: dict,
    candidate: dict,
    tolerance: float,
    section: str = "scenarios_message",
    ratio_tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[Tuple[str, str, float, float, bool]], List[str], Optional[str]]:
    """Compare one backend's scenario section metric by metric.

    Returns ``(rows, failures, skip_reason)``: ``rows`` are
    ``(scenario, metric, baseline, candidate, breached)`` for every
    comparable metric of every comparable scenario, ``failures`` one
    message per breach, and ``skip_reason`` a human-readable note when
    the sections are absent or incomparable (different population /
    duration scale), in which case the scenario gate is a no-op rather
    than an error -- the perf-smoke job's quick candidate legitimately
    cannot be compared to the committed full run.
    """
    base = baseline.get(section)
    cand = candidate.get(section)
    if not base or not cand:
        return [], [], f"no {section} section in both snapshots"
    for knob in ("n_peers", "duration_scale", "seed"):
        if base.get(knob) != cand.get(knob):
            return [], [], (
                f"scenario sections incomparable: {knob} "
                f"{base.get(knob)} vs {cand.get(knob)}"
            )
    rows: List[Tuple[str, str, float, float, bool]] = []
    failures: List[str] = []
    base_results = base.get("results", {})
    cand_results = cand.get("results", {})
    # A scenario the baseline gated but the candidate never ran is a
    # gate failure, not a silent skip -- a partial bench run must not
    # pass by omitting exactly the scenario that regressed.  (Scenarios
    # new in the candidate are fine: nothing pins them yet.)
    for name in sorted(set(base_results) - set(cand_results)):
        if any(
            base_results[name].get(metric) is not None
            for metric, _ in SCENARIO_METRICS
        ):
            failures.append(
                f"{name} present in baseline but missing from candidate "
                f"{section} results"
            )
    for name in sorted(set(base_results) & set(cand_results)):
        for metric, direction in SCENARIO_METRICS:
            base_value = base_results[name].get(metric)
            cand_value = cand_results[name].get(metric)
            if base_value is None or cand_value is None:
                continue  # metric absent (read-only scenario) pins nothing
            base_value, cand_value = float(base_value), float(cand_value)
            breached = _metric_breach(
                direction, base_value, cand_value, tolerance, ratio_tolerance
            )
            rows.append((name, metric, base_value, cand_value, breached))
            if breached:
                bound = (
                    f"ratio > {ratio_tolerance:g}x"
                    if direction == "ratio"
                    else f"{direction} > {tolerance:g}"
                )
                failures.append(
                    f"{section}/{name} {metric}: {cand_value:g} vs baseline "
                    f"{base_value:g} ({bound})"
                )
    return rows, failures, None


def check_recovery(candidate: dict) -> Tuple[List[Tuple[str, str, str]], List[str]]:
    """Intra-snapshot recovery gates on the *candidate* alone.

    Two invariants the persistence subsystem must always satisfy,
    checkable without a baseline because ``bench_scenarios.py`` records
    the durability-off cold pass inline under ``recovery.cold``:

    * **warm beats cold** -- with durability on, time-to-converged-
      divergence must not exceed the cold pass's, and recovery
      maintenance bytes must be strictly lower (the whole point of
      checkpoint restore vs a from-scratch rejoin);
    * **clean shutdowns lose nothing** -- a restart scenario with zero
      crashes and durability enabled must report zero lost acked writes
      and zero tombstone resurrections.

    Returns ``(rows, failures)``; rows are ``(section/scenario, check,
    detail, breached)`` for printing.
    """
    rows: List[Tuple[str, str, str, bool]] = []
    failures: List[str] = []
    for section in SCENARIO_SECTIONS:
        results = (candidate.get(section) or {}).get("results", {})
        for name in sorted(results):
            entry = results[name]
            rec = entry.get("recovery")
            if not rec:
                continue
            where = f"{section}/{name}"
            cold = rec.get("cold") or {}
            warm_time = entry.get("recovery_time_s")
            cold_time = cold.get("time_to_converged_divergence_s")
            if warm_time is not None and cold_time is not None:
                ok = warm_time <= cold_time
                rows.append(
                    (where, "warm_time<=cold_time",
                     f"{warm_time:g} vs {cold_time:g}", not ok)
                )
                if not ok:
                    failures.append(
                        f"{where}: warm time-to-converged-divergence "
                        f"{warm_time:g}s exceeds cold baseline {cold_time:g}s"
                    )
            warm_bytes = entry.get("recovery_maint_bytes")
            cold_bytes = cold.get("recovery_maint_bytes")
            if warm_bytes is not None and cold_bytes is not None:
                ok = warm_bytes < cold_bytes
                rows.append(
                    (where, "warm_bytes<cold_bytes",
                     f"{warm_bytes:g} vs {cold_bytes:g}", not ok)
                )
                if not ok:
                    failures.append(
                        f"{where}: warm recovery maintenance bytes "
                        f"{warm_bytes:g} not strictly below cold baseline "
                        f"{cold_bytes:g}"
                    )
            if rec.get("durability_enabled") and not rec.get("crashes"):
                for metric in ("lost_acked_writes", "tombstone_resurrections"):
                    value = entry.get(metric, 0)
                    rows.append((where, f"{metric}==0", f"{value:g}", bool(value)))
                    if value:
                        failures.append(
                            f"{where}: {metric} must be 0 for a clean-shutdown "
                            f"run with durability enabled, got {value:g}"
                        )
    return rows, failures


def check_serving(
    candidate: dict, tolerance: float = DEFAULT_SCENARIO_TOLERANCE
) -> Tuple[List[Tuple[str, str, str, bool]], List[str]]:
    """Intra-snapshot serving gates on the *candidate* alone.

    The serving front end must *earn* its machinery, checkable without
    a baseline because ``bench_scenarios.py`` records a cache-off pass
    of the same spec inline under ``serving.off``:

    * **caches cut the tail** -- with caches on, serving p99 latency
      must be strictly below the cache-off pass's (the ISSUE's headline
      acceptance: cached hot keys answer locally instead of riding the
      wire into the timeout band);
    * **caches flatten the load** -- the per-peer load Gini with caches
      on must be strictly below cache-off: hits absorbed at the front
      end plus direct-routed misses must relieve the trie-top peers;
    * **no success regression** -- end-to-end query success with caches
      on must not drop more than ``tolerance`` below cache-off; a cache
      serving wrong answers fast must not pass the latency gate.

    Latency rows only exist on the message backend (the dataplane has
    no wire and reports no serving percentiles); the Gini and success
    rows gate both backends.  Returns ``(rows, failures)``; rows are
    ``(section/scenario, check, detail, breached)`` for printing.
    """
    rows: List[Tuple[str, str, str, bool]] = []
    failures: List[str] = []
    for section in SCENARIO_SECTIONS:
        results = (candidate.get(section) or {}).get("results", {})
        for name in sorted(results):
            entry = results[name]
            srv = entry.get("serving")
            if not srv or not srv.get("enabled"):
                continue
            off = srv.get("off")
            if not off:
                continue
            where = f"{section}/{name}"
            p99_on = entry.get("serving_p99_s")
            p99_off = off.get("serving_p99_s")
            if p99_on is not None and p99_off is not None:
                ok = p99_on < p99_off
                rows.append(
                    (where, "p99_on<p99_off",
                     f"{p99_on:g} vs {p99_off:g}", not ok)
                )
                if not ok:
                    failures.append(
                        f"{where}: serving p99 with caches on {p99_on:g}s "
                        f"not strictly below cache-off baseline {p99_off:g}s"
                    )
            gini_on = entry.get("load_gini")
            gini_off = off.get("load_gini")
            if gini_on is not None and gini_off is not None:
                ok = gini_on < gini_off
                rows.append(
                    (where, "gini_on<gini_off",
                     f"{gini_on:g} vs {gini_off:g}", not ok)
                )
                if not ok:
                    failures.append(
                        f"{where}: per-peer load Gini with caches on "
                        f"{gini_on:g} not strictly below cache-off baseline "
                        f"{gini_off:g}"
                    )
            succ_on = entry.get("success_rate")
            succ_off = off.get("success_rate")
            if succ_on is not None and succ_off is not None:
                ok = succ_on >= succ_off - tolerance
                rows.append(
                    (where, "success_on>=off",
                     f"{succ_on:g} vs {succ_off:g}", not ok)
                )
                if not ok:
                    failures.append(
                        f"{where}: query success with caches on {succ_on:g} "
                        f"dropped more than {tolerance:g} below cache-off "
                        f"baseline {succ_off:g}"
                    )
    return rows, failures


def check_mdim(
    candidate: dict, tolerance: float = DEFAULT_SCENARIO_TOLERANCE
) -> Tuple[List[Tuple[str, str, str, bool]], List[str]]:
    """Intra-snapshot multi-dimensional gates on the *candidate* alone.

    Two invariants the z-order box-query layer must always satisfy,
    checkable without a baseline because ``bench_scenarios.py`` records
    the codec geometry (dims, split budget) inline under ``mdim``:

    * **boxes stay covered** -- the recall audit (keys the issued
      ranges were obligated to find vs keys actually found) must not
      drop more than ``tolerance`` below 1.0; on maintenance-free specs
      like ``geo-box-serving`` it is exactly 1.0, and anything below
      the floor means the decomposition under-covers or the range
      plumbing drops sub-ranges;
    * **decomposition honors its budget** -- both the mean and the max
      ranges-per-box must sit within the codec's ``split_budget``; the
      litmax/bigmin splitter is *defined* to stop splitting at the
      budget, so a breach means the budget knob stopped being wired
      through.

    Returns ``(rows, failures)``; rows are ``(section/scenario, check,
    detail, breached)`` for printing.
    """
    rows: List[Tuple[str, str, str, bool]] = []
    failures: List[str] = []
    floor = 1.0 - tolerance
    for section in SCENARIO_SECTIONS:
        results = (candidate.get(section) or {}).get("results", {})
        for name in sorted(results):
            entry = results[name]
            md = entry.get("mdim")
            if not md or not md.get("boxes"):
                continue
            where = f"{section}/{name}"
            recall = entry.get("box_recall")
            if recall is not None:
                ok = recall >= floor
                rows.append(
                    (where, f"recall>={floor:g}", f"{recall:g}", not ok)
                )
                if not ok:
                    failures.append(
                        f"{where}: box recall {recall:g} below floor "
                        f"{floor:g} -- z-order decomposition no longer "
                        f"covers its boxes"
                    )
            budget = md.get("split_budget")
            for metric, value in (
                ("ranges_per_box", entry.get("ranges_per_box")),
                ("ranges_per_box_max", md.get("ranges_per_box_max")),
            ):
                if budget is None or value is None:
                    continue
                ok = value <= budget
                rows.append(
                    (where, f"{metric}<=budget",
                     f"{value:g} vs {budget:g}", not ok)
                )
                if not ok:
                    failures.append(
                        f"{where}: {metric} {value:g} exceeds the codec "
                        f"split budget {budget:g}"
                    )
    return rows, failures


def compare_scale(
    baseline: dict,
    candidate: dict,
    tolerance: float,
) -> Tuple[List[Tuple[str, str, float, float, float, bool]], List[str], Optional[str]]:
    """Compare the ``scale`` sections cell by cell.

    Cells are matched on ``(n_peers, shards, mode)`` -- only cells
    present in both snapshots are compared, so the committed full
    matrix doubles as the baseline for the nightly's N=16,384 row
    while the CI smoke cell (N=8192) simply has no counterpart and
    pins nothing.  Per overlapping cell:

    * ``wall_s`` growth beyond ``tolerance`` fails;
    * ``events_per_s`` dropping below ``baseline / tolerance`` fails.

    Returns ``(rows, failures, skip_reason)``; rows are ``(cell,
    metric, baseline, candidate, ratio, breached)``.
    """
    base = baseline.get("scale")
    cand = candidate.get("scale")
    if not base or not cand:
        return [], [], "no scale section in both snapshots"
    for knob in ("scenario", "seed", "duration_scale"):
        if base.get(knob) != cand.get(knob):
            return [], [], (
                f"scale sections incomparable: {knob} "
                f"{base.get(knob)} vs {cand.get(knob)}"
            )

    def by_cell(section: dict) -> Dict[tuple, dict]:
        return {
            (cell["n_peers"], cell["shards"], cell["mode"]): cell
            for cell in section.get("cells", [])
        }

    base_cells, cand_cells = by_cell(base), by_cell(cand)
    rows: List[Tuple[str, str, float, float, float, bool]] = []
    failures: List[str] = []
    for key in sorted(set(base_cells) & set(cand_cells)):
        n_peers, shards, mode = key
        label = f"N={n_peers}/shards={shards}"
        for metric, direction in (("wall_s", "ratio"), ("events_per_s", "floor")):
            base_value = base_cells[key].get(metric)
            cand_value = cand_cells[key].get(metric)
            if base_value is None or cand_value is None:
                continue
            base_value, cand_value = float(base_value), float(cand_value)
            if direction == "ratio":  # growth regresses
                ratio = cand_value / base_value if base_value > 0 else float("inf")
            else:  # floor: shrinkage regresses
                ratio = base_value / cand_value if cand_value > 0 else float("inf")
            breached = ratio > tolerance
            rows.append((label, metric, base_value, cand_value, ratio, breached))
            if breached:
                failures.append(
                    f"scale/{label} {metric}: {cand_value:g} vs baseline "
                    f"{base_value:g} ({ratio:.2f}x > {tolerance:g}x tolerance)"
                )
    return rows, failures, None


def check_scale(candidate: dict) -> Tuple[List[Tuple[str, str, str, bool]], List[str]]:
    """Intra-snapshot scale gate on the *candidate* alone.

    **Heaps stay bounded**, checkable without a baseline because
    ``bench_scale.py`` records it inline: every cell's pending-event
    peak must sit under its recorded per-peer bound
    (``pending_bound_ok``), so a wall-clock win can't smuggle in an
    unbounded event heap.

    Returns ``(rows, failures)``; rows are ``(cell, check, detail,
    breached)`` for printing.
    """
    rows: List[Tuple[str, str, str, bool]] = []
    failures: List[str] = []
    scale = candidate.get("scale")
    if not scale:
        return rows, failures
    for cell in scale.get("cells", []):
        where = f"scale/N={cell.get('n_peers')}/shards={cell.get('shards')}"
        ok = bool(cell.get("pending_bound_ok", True))
        rows.append(
            (where, "pending_peak<=bound",
             f"{cell.get('pending_peak')} vs {cell.get('pending_bound')}",
             not ok)
        )
        if not ok:
            failures.append(
                f"{where}: pending peak {cell.get('pending_peak')} exceeds "
                f"bound {cell.get('pending_bound')} -- event heap no longer "
                f"bounded"
            )
    return rows, failures


def build_step_summary(
    perf_rows: List[Tuple[str, str, float, float, float]],
    tolerance: float,
    scenario_results: Dict[str, tuple],
    scenario_tolerance: float,
    failures: List[str],
    recovery_rows: Optional[List[Tuple[str, str, str, bool]]] = None,
    serving_rows: Optional[List[Tuple[str, str, str, bool]]] = None,
    mdim_rows: Optional[List[Tuple[str, str, str, bool]]] = None,
    scale_rows: Optional[List[Tuple[str, str, float, float, float, bool]]] = None,
    scale_skip: Optional[str] = None,
    scale_intra_rows: Optional[List[Tuple[str, str, str, bool]]] = None,
) -> str:
    """The gate verdicts as a GitHub-flavored markdown fragment.

    One table per gate: perf metrics (per size, old vs new vs ratio) and
    each backend's scenario section (per scenario per metric).  Appended
    to ``$GITHUB_STEP_SUMMARY`` so a gate failure is readable from the
    Actions summary page instead of raw logs.
    """
    lines = [
        "## Regression gates" + (" — ❌ FAIL" if failures else " — ✅ pass"),
        "",
        f"### Perf (tolerance {tolerance:g}x)",
        "",
        "| metric | N | baseline | candidate | ratio | verdict |",
        "| --- | ---: | ---: | ---: | ---: | :---: |",
    ]
    for metric, size, base_value, cand_value, ratio in perf_rows:
        verdict = "❌ fail" if ratio > tolerance else (
            "✅ ok" if ratio >= 1.0 else "✅ faster"
        )
        lines.append(
            f"| {metric} | {size} | {base_value:.3f} | {cand_value:.3f} "
            f"| {ratio:.2f}x | {verdict} |"
        )
    for section, (rows, skip) in scenario_results.items():
        lines += ["", f"### Scenarios — `{section}` "
                      f"(tolerance ±{scenario_tolerance:g} abs, {tolerance:g}x bytes)", ""]
        if skip is not None:
            lines.append(f"_skipped: {skip}_")
            continue
        lines += [
            "| scenario | metric | baseline | candidate | verdict |",
            "| --- | --- | ---: | ---: | :---: |",
        ]
        for name, metric, base_value, cand_value, breached in rows:
            verdict = "❌ fail" if breached else "✅ ok"
            lines.append(
                f"| {name} | {metric} | {base_value:g} | {cand_value:g} "
                f"| {verdict} |"
            )
    if recovery_rows:
        lines += [
            "",
            "### Recovery (intra-snapshot: warm vs cold, clean-shutdown audit)",
            "",
            "| scenario | check | values | verdict |",
            "| --- | --- | ---: | :---: |",
        ]
        for where, check, detail, breached in recovery_rows:
            verdict = "❌ fail" if breached else "✅ ok"
            lines.append(f"| {where} | `{check}` | {detail} | {verdict} |")
    if serving_rows:
        lines += [
            "",
            "### Serving (intra-snapshot: caches on vs off)",
            "",
            "| scenario | check | values | verdict |",
            "| --- | --- | ---: | :---: |",
        ]
        for where, check, detail, breached in serving_rows:
            verdict = "❌ fail" if breached else "✅ ok"
            lines.append(f"| {where} | `{check}` | {detail} | {verdict} |")
    if mdim_rows:
        lines += [
            "",
            "### Mdim (intra-snapshot: box recall floor, split budget)",
            "",
            "| scenario | check | values | verdict |",
            "| --- | --- | ---: | :---: |",
        ]
        for where, check, detail, breached in mdim_rows:
            verdict = "❌ fail" if breached else "✅ ok"
            lines.append(f"| {where} | `{check}` | {detail} | {verdict} |")
    if scale_rows or scale_skip or scale_intra_rows:
        lines += ["", f"### Scale (tolerance {tolerance:g}x)", ""]
        if scale_skip is not None:
            lines.append(f"_cell comparison skipped: {scale_skip}_")
        if scale_rows:
            lines += [
                "| cell | metric | baseline | candidate | ratio | verdict |",
                "| --- | --- | ---: | ---: | ---: | :---: |",
            ]
            for cell, metric, base_value, cand_value, ratio, breached in scale_rows:
                verdict = "❌ fail" if breached else (
                    "✅ ok" if ratio >= 1.0 else "✅ faster"
                )
                lines.append(
                    f"| {cell} | {metric} | {base_value:g} | {cand_value:g} "
                    f"| {ratio:.2f}x | {verdict} |"
                )
        if scale_intra_rows:
            lines += [
                "",
                "| cell | check | values | verdict |",
                "| --- | --- | ---: | :---: |",
            ]
            for where, check, detail, breached in scale_intra_rows:
                verdict = "❌ fail" if breached else "✅ ok"
                lines.append(f"| {where} | `{check}` | {detail} | {verdict} |")
    if failures:
        lines += ["", "**Regressions beyond tolerance:**", ""]
        lines += [f"- {failure}" for failure in failures]
    return "\n".join(lines) + "\n"


def write_step_summary(markdown: str, path: Optional[str]) -> None:
    """Append ``markdown`` to the step-summary file, if one is known."""
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(markdown)
    except OSError as exc:  # never fail the gate over a summary file
        print(f"check_regression: cannot write summary: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="committed BENCH_core.json to compare against",
    )
    parser.add_argument(
        "--candidate", type=Path, required=True,
        help="freshly generated BENCH_core.json to check",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"max allowed candidate/baseline ratio (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--scenario-tolerance", type=float, default=DEFAULT_SCENARIO_TOLERANCE,
        help="max allowed absolute drop in scenario success rates / rise "
        f"in replica divergence (default {DEFAULT_SCENARIO_TOLERANCE})",
    )
    parser.add_argument(
        "--summary", default=None,
        help="markdown summary file to append the verdict tables to "
        "(default: $GITHUB_STEP_SUMMARY when set)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        candidate = json.loads(args.candidate.read_text())
    except (OSError, ValueError) as exc:
        print(f"check_regression: cannot load snapshots: {exc}", file=sys.stderr)
        return 2

    rows, failures = compare(baseline, candidate, args.tolerance)
    if not rows:
        print(
            "check_regression: no overlapping metrics between baseline and "
            "candidate -- gate is misconfigured",
            file=sys.stderr,
        )
        return 2

    print(f"perf regression gate (tolerance {args.tolerance:g}x)")
    for metric, size, base_value, cand_value, ratio in rows:
        verdict = "FAIL" if ratio > args.tolerance else (
            "ok  " if ratio >= 1.0 else "ok ^"  # ^ = faster than baseline
        )
        print(
            f"  [{verdict}] {metric:10s} N={size:>5s}  "
            f"baseline {base_value:10.3f}  candidate {cand_value:10.3f}  "
            f"ratio {ratio:5.2f}x"
        )

    scenario_results: Dict[str, tuple] = {}
    for section in SCENARIO_SECTIONS:
        scen_rows, scen_failures, skip = compare_scenarios(
            baseline, candidate, args.scenario_tolerance, section, args.tolerance
        )
        scenario_results[section] = (scen_rows, skip)
        if skip is not None:
            print(f"scenario gate [{section}]: skipped ({skip})")
        else:
            print(
                f"scenario gate [{section}] "
                f"(tolerance ±{args.scenario_tolerance:g} abs, "
                f"{args.tolerance:g}x bytes)"
            )
            for name, metric, base_value, cand_value, breached in scen_rows:
                verdict = "FAIL" if breached else "ok  "
                print(
                    f"  [{verdict}] {name:28s} {metric:18s}  "
                    f"baseline {base_value:12.4f}  candidate {cand_value:12.4f}"
                )
        failures += scen_failures

    recovery_rows, recovery_failures = check_recovery(candidate)
    if recovery_rows:
        print("recovery gate (warm vs cold, clean-shutdown audit)")
        for where, check, detail, breached in recovery_rows:
            verdict = "FAIL" if breached else "ok  "
            print(f"  [{verdict}] {where:40s} {check:26s}  {detail}")
    failures += recovery_failures

    serving_rows, serving_failures = check_serving(
        candidate, args.scenario_tolerance
    )
    if serving_rows:
        print("serving gate (caches on vs inline cache-off baseline)")
        for where, check, detail, breached in serving_rows:
            verdict = "FAIL" if breached else "ok  "
            print(f"  [{verdict}] {where:40s} {check:26s}  {detail}")
    failures += serving_failures

    mdim_rows, mdim_failures = check_mdim(candidate, args.scenario_tolerance)
    if mdim_rows:
        print("mdim gate (box recall floor, ranges-per-box vs split budget)")
        for where, check, detail, breached in mdim_rows:
            verdict = "FAIL" if breached else "ok  "
            print(f"  [{verdict}] {where:40s} {check:26s}  {detail}")
    failures += mdim_failures

    scale_rows, scale_failures, scale_skip = compare_scale(
        baseline, candidate, args.tolerance
    )
    if scale_skip is not None:
        print(f"scale gate: cell comparison skipped ({scale_skip})")
    elif scale_rows:
        print(f"scale gate (tolerance {args.tolerance:g}x)")
        for cell, metric, base_value, cand_value, ratio, breached in scale_rows:
            verdict = "FAIL" if breached else (
                "ok  " if ratio >= 1.0 else "ok ^"
            )
            print(
                f"  [{verdict}] {cell:24s} {metric:14s}  "
                f"baseline {base_value:10.1f}  candidate {cand_value:10.1f}  "
                f"ratio {ratio:5.2f}x"
            )
    failures += scale_failures

    scale_intra_rows, scale_intra_failures = check_scale(candidate)
    if scale_intra_rows:
        print("scale gate (intra-snapshot: pending bounds)")
        for where, check, detail, breached in scale_intra_rows:
            verdict = "FAIL" if breached else "ok  "
            print(f"  [{verdict}] {where:40s} {check:26s}  {detail}")
    failures += scale_intra_failures

    write_step_summary(
        build_step_summary(
            rows, args.tolerance, scenario_results, args.scenario_tolerance,
            failures, recovery_rows, serving_rows, mdim_rows,
            scale_rows, scale_skip, scale_intra_rows,
        ),
        args.summary or os.environ.get("GITHUB_STEP_SUMMARY"),
    )

    if failures:
        print("\nregressions beyond tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
