#!/usr/bin/env python
"""Regression gate: fail when a snapshot's deterministic numbers regress.

Checks a freshly generated ``BENCH_core.json`` (the *candidate*)
against a committed snapshot (the *baseline*) and exits non-zero when a
scenario metric regressed beyond tolerance or an intra-snapshot
invariant broke.  Every gated number is a modelled quantity --
success rates, bytes, simulated latency, recall, heap peaks -- never
host time: host time is judged by ``benchmarks/layered/run.py
--compare`` over alternating parent/change pairs.

CI usage (the ``deterministic-gates`` job)::

    cp BENCH_core.json /tmp/BENCH_baseline.json            # committed numbers
    python benchmarks/bench_scenarios.py --quick --backend both
    python benchmarks/check_regression.py \\
        --baseline /tmp/BENCH_baseline.json --candidate BENCH_core.json

Improvements are reported but never fail the gate.  Exit codes: 0 ok,
1 regression, 2 unusable input (unreadable snapshots, or no gate
yielded a single row -- a misconfigured gate must not pass silently).

**Adding a gate:** write a function returning ``Gate(name, title,
columns, rows)``, one :class:`Row` per verdict (``_compared`` builds a
baseline row, ``_check`` an intra-snapshot one), and add it to the list
in ``main``: console block, summary table, failure list and exit code
all come from that list.  A new per-scenario metric is one more
``(key, direction)`` in ``SCENARIO_METRICS``.

**Baseline gates** compare the candidate with the committed numbers:
:func:`scenario_gate` for the ``scenarios`` / ``scenarios_message``
sections ``bench_scenarios.py`` writes, one per execution backend --
every metric of ``SCENARIO_METRICS`` a scenario entry carries, each in
its known direction, instead of silently ignoring unknown keys.  A
ratio is growth over the baseline: from a zero baseline any growth is
unbounded and fails (a data-plane scenario that starts emitting
maintenance bytes), 0 -> 0 is 1.0 and passes.  Sections are only
compared when both snapshots ran the same population, seed and
duration scale (the quick CI candidate at N=256 is incomparable to the
committed N=4096 section and is skipped with a note; the nightly full
run compares for real).

**Intra-snapshot gates** hold on the *candidate* alone -- no baseline
needed, so they run in the quick CI job too -- because the bench
scripts record what they compare against inline:
:func:`recovery_gate` (warm rejoin beats the inline ``recovery.cold``
pass, clean shutdowns lose nothing), :func:`serving_gate` (caches on
beat the inline ``serving.off`` pass), :func:`mdim_gate` (box recall
floor) and :func:`scale_bounds_gate` (bounded heaps in the ``scale``
cells ``bench_scale.py`` writes; it also holds each cell to the
baseline's cell of the same population when both ran the same scale
knobs, which on PR CI is the committed section against itself and in
the nightly the fresh N=16,384 / 65,536 cells against the committed
ones).

When ``$GITHUB_STEP_SUMMARY`` is set (every GitHub Actions step) -- or
``--summary PATH`` is passed -- the gate also appends a markdown
verdict table per gate, so a failure is readable from the run's
summary page instead of raw logs.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

#: Default regression tolerance (candidate/baseline ratio).
DEFAULT_TOLERANCE = 1.5

#: Max allowed absolute drop in a scenario success rate (and rise in
#: replica divergence).
DEFAULT_SCENARIO_TOLERANCE = 0.05

#: Gated scenario sections, one per execution backend.
SCENARIO_SECTIONS = ("scenarios", "scenarios_message")

#: Gated per-scenario metrics, as ``(key, direction)``:
#: ``"drop"`` -- an absolute drop beyond the scenario tolerance fails;
#: ``"rise"`` -- an absolute rise beyond the scenario tolerance fails;
#: ``"ratio"`` -- growth beyond the ratio tolerance fails.
SCENARIO_METRICS = (
    # Repair / write path losing what it used to land.
    ("success_rate", "drop"),
    ("write_success_rate", "drop"),
    # Replica sync / anti-entropy no longer keeping up with the writes.
    ("divergence_final", "rise"),
    # A bandwidth blowup is a regression even when success holds: the
    # write path, and the probe, gossip and exchange tax creeping back.
    ("bytes_update", "ratio"),
    ("bytes_maintenance", "ratio"),
    # Restart scenarios only (the report's ``recovery`` section): warm
    # rejoin getting slower, chattier or lossier than committed.
    ("recovery_time_s", "ratio"),
    ("recovery_maint_bytes", "ratio"),
    ("lost_acked_writes", "rise"),
    ("tombstone_resurrections", "rise"),
    # Serving scenarios only (``serving`` section): caching stopped
    # absorbing the Zipf head, coherence (write invalidation + TTL)
    # regressed, or the cached tail drifted back to the timeout band.
    ("cache_hit_rate", "drop"),
    ("stale_read_rate", "rise"),
    ("serving_p99_s", "ratio"),
    # Mdim scenarios only (``mdim`` section): the box shower misses keys
    # of its boxes, or reaches partitions the box does not need.
    ("box_recall", "drop"),
    ("partitions_per_box", "ratio"),
)


class Row(NamedTuple):
    """One verdict: a cell per gate column, and the failure line that
    reaches stderr and the summary when the row is ``breached``."""

    cells: Tuple[str, ...]
    breached: bool
    failure: str


class Gate(NamedTuple):
    """One gate's verdicts.  ``name`` heads its console block, ``title``
    its summary table; ``skip`` is the note printed instead of rows when
    the snapshots cannot be compared (a no-op, not an error: the quick
    candidate legitimately cannot be held to the committed full run)."""

    name: str
    title: str
    columns: Tuple[str, ...]
    rows: List[Row]
    skip: Optional[str] = None


def _ratio(base: float, cand: float) -> float:
    """Growth of ``cand`` over ``base``; from zero it is unbounded."""
    if base > 0:
        return cand / base
    return float("inf") if cand > 0 else 1.0


def _sections(
    baseline: dict, candidate: dict, section: str, knobs: Tuple[str, ...]
) -> Tuple[dict, dict, Optional[str]]:
    """Both snapshots' ``section`` and why they cannot be compared, if so."""
    base, cand = baseline.get(section), candidate.get(section)
    if not base or not cand:
        return {}, {}, f"no {section} section in both snapshots"
    for knob in knobs:
        if base.get(knob) != cand.get(knob):
            return {}, {}, (
                f"{section} sections incomparable: {knob} "
                f"{base.get(knob)} vs {cand.get(knob)}"
            )
    return base, cand, None


def _compared(
    section: str, name: str, metric: str, direction: str,
    base: float, cand: float, abs_tol: float, ratio_tol: float,
) -> Row:
    if direction == "drop":
        breached, bound = cand < base - abs_tol, f"drop > {abs_tol:g}"
    elif direction == "rise":
        breached, bound = cand > base + abs_tol, f"rise > {abs_tol:g}"
    else:  # ratio: only growth regresses (shrinking write bytes is a win)
        breached, bound = _ratio(base, cand) > ratio_tol, f"ratio > {ratio_tol:g}x"
    return Row(
        (name, metric, f"{base:g}", f"{cand:g}"),
        breached,
        f"{section}/{name} {metric}: {cand:g} vs baseline {base:g} ({bound})",
    )


def scenario_gate(
    baseline: dict, candidate: dict, section: str, abs_tol: float, ratio_tol: float
) -> Gate:
    """One backend's scenario section, ``SCENARIO_METRICS`` by scenario."""
    base, cand, skip = _sections(
        baseline, candidate, section, ("n_peers", "duration_scale", "seed")
    )
    base_results, cand_results = base.get("results", {}), cand.get("results", {})
    rows: List[Row] = []
    for name in sorted(base_results):
        if name not in cand_results:
            # A scenario the baseline gated but the candidate never ran
            # is a failure, not a silent skip -- a partial bench run must
            # not pass by omitting exactly the scenario that regressed.
            # (Scenarios new in the candidate are fine: nothing pins them.)
            if any(base_results[name].get(m) is not None for m, _ in SCENARIO_METRICS):
                rows.append(Row(
                    (name, "(every metric)", "gated", "missing"), True,
                    f"{name} present in baseline but missing from candidate "
                    f"{section} results",
                ))
            continue
        for metric, direction in SCENARIO_METRICS:
            base_value = base_results[name].get(metric)
            cand_value = cand_results[name].get(metric)
            if base_value is None or cand_value is None:
                continue  # metric absent (read-only scenario) pins nothing
            rows.append(_compared(
                section, name, metric, direction, float(base_value),
                float(cand_value), abs_tol, ratio_tol,
            ))
    bounds = f"tolerance ±{abs_tol:g} abs, {ratio_tol:g}x bytes"
    return Gate(
        f"scenario gate [{section}] ({bounds})",
        f"Scenarios — `{section}` ({bounds})",
        ("scenario", "metric", "baseline", "candidate"),
        rows,
        skip and f"skipped: {skip}",
    )


def _entries(candidate: dict) -> Iterator[Tuple[str, dict]]:
    """``(section/scenario, entry)`` over the candidate's scenario sections."""
    for section in SCENARIO_SECTIONS:
        results = (candidate.get(section) or {}).get("results", {})
        for name in sorted(results):
            yield f"{section}/{name}", results[name]


def _check(
    where: str, check: str, ok: Callable[..., bool], values: tuple, failure: str
) -> List[Row]:
    """One intra-snapshot verdict on ``values`` (``failure`` is a format
    string over them) -- or none when one is absent and pins nothing."""
    if None in values:
        return []
    return [Row(
        (where, check, " vs ".join(f"{value:g}" for value in values)),
        not ok(*values),
        f"{where}: {failure.format(*values)}",
    )]


def recovery_gate(candidate: dict) -> Gate:
    """What the persistence subsystem must always satisfy, checkable
    without a baseline because ``bench_scenarios.py`` records the
    durability-off cold pass inline under ``recovery.cold``:

    * **warm beats cold** -- with durability on, time-to-converged-
      divergence must not exceed the cold pass's, and recovery
      maintenance bytes must be strictly lower (the whole point of
      checkpoint restore vs a from-scratch rejoin);
    * **clean shutdowns lose nothing** -- a restart scenario with zero
      crashes and durability enabled must report zero lost acked writes
      and zero tombstone resurrections.
    """
    rows: List[Row] = []
    for where, entry in _entries(candidate):
        rec = entry.get("recovery")
        if not rec:
            continue
        cold = rec.get("cold") or {}
        rows += _check(
            where, "warm_time<=cold_time", operator.le,
            (entry.get("recovery_time_s"), cold.get("time_to_converged_divergence_s")),
            "warm time-to-converged-divergence {0:g}s exceeds cold baseline {1:g}s",
        )
        rows += _check(
            where, "warm_bytes<cold_bytes", operator.lt,
            (entry.get("recovery_maint_bytes"), cold.get("recovery_maint_bytes")),
            "warm recovery maintenance bytes {0:g} not strictly below cold "
            "baseline {1:g}",
        )
        if rec.get("durability_enabled") and not rec.get("crashes"):
            for metric in ("lost_acked_writes", "tombstone_resurrections"):
                rows += _check(
                    where, f"{metric}==0", operator.not_, (entry.get(metric, 0),),
                    f"{metric} must be 0 for a clean-shutdown run with "
                    "durability enabled, got {0:g}",
                )
    return Gate(
        "recovery gate (warm vs cold, clean-shutdown audit)",
        "Recovery (intra-snapshot: warm vs cold, clean-shutdown audit)",
        ("scenario", "check", "values"),
        rows,
    )


def serving_gate(candidate: dict, tolerance: float) -> Gate:
    """The serving front end must *earn* its machinery, checkable
    without a baseline because ``bench_scenarios.py`` records a
    cache-off pass of the same spec inline under ``serving.off``:

    * **caches cut the tail** -- with caches on, serving p99 latency
      must be strictly below the cache-off pass's (cached hot keys
      answer locally instead of riding the wire into the timeout band);
    * **caches flatten the load** -- the per-peer load Gini with caches
      on must be strictly below cache-off: hits absorbed at the front
      end plus direct-routed misses must relieve the trie-top peers;
    * **no success regression** -- end-to-end query success with caches
      on must not drop more than ``tolerance`` below cache-off; a cache
      serving wrong answers fast must not pass the latency gate.

    Latency rows only exist on the message backend (the dataplane has
    no wire and reports no serving percentiles); the Gini and success
    rows gate both backends.
    """
    rows: List[Row] = []
    for where, entry in _entries(candidate):
        srv = entry.get("serving") or {}
        off = srv.get("off")
        if not srv.get("enabled") or not off:
            continue
        rows += _check(
            where, "p99_on<p99_off", operator.lt,
            (entry.get("serving_p99_s"), off.get("serving_p99_s")),
            "serving p99 with caches on {0:g}s not strictly below cache-off "
            "baseline {1:g}s",
        )
        rows += _check(
            where, "gini_on<gini_off", operator.lt,
            (entry.get("load_gini"), off.get("load_gini")),
            "per-peer load Gini with caches on {0:g} not strictly below "
            "cache-off baseline {1:g}",
        )
        rows += _check(
            where, "success_on>=off", lambda on, off_: on >= off_ - tolerance,
            (entry.get("success_rate"), off.get("success_rate")),
            "query success with caches on {0:g} dropped more than "
            f"{tolerance:g} below cache-off baseline {{1:g}}",
        )
    return Gate(
        "serving gate (caches on vs inline cache-off baseline)",
        "Serving (intra-snapshot: caches on vs off)",
        ("scenario", "check", "values"),
        rows,
    )


def mdim_gate(candidate: dict, tolerance: float) -> Gate:
    """What the z-order box-query layer must always satisfy, checkable
    without a baseline: **boxes stay covered** -- the recall audit (the
    universe keys in the box vs the keys the shower found) must not drop
    more than ``tolerance`` below 1.0 (exactly 1.0 on maintenance-free
    specs like ``geo-box-serving``): below the floor the shower prunes a
    subtree the box meets, or the plumbing drops slices.
    """
    rows: List[Row] = []
    floor = 1.0 - tolerance
    for where, entry in _entries(candidate):
        md = entry.get("mdim")
        if not md or not md.get("boxes"):
            continue  # no boxes issued: recall is vacuous
        rows += _check(
            where, f"recall>={floor:g}", lambda recall: recall >= floor,
            (entry.get("box_recall"),),
            f"box recall {{0:g}} below floor {floor:g} -- the box shower "
            "no longer covers its boxes",
        )
    return Gate(
        "mdim gate (box recall floor)",
        "Mdim (intra-snapshot: box recall floor)",
        ("scenario", "check", "values"),
        rows,
    )


#: The fields of a ``scale`` cell the code alone decides; the rest of a
#: cell (``wall_s``, ``events_per_s``, ``peak_rss_mb``) are host readings.
SCALE_FIELDS = ("events", "queries", "success_rate", "n_peers_end", "pending_peak")


def scale_bounds_gate(baseline: dict, candidate: dict) -> Gate:
    """**Heaps stay bounded**, checkable without a baseline because
    ``bench_scale.py`` records it inline: every cell's pending-event
    peak must sit under its recorded per-peer bound
    (``pending_bound_ok``), so a wall-clock win can't smuggle in an
    unbounded event heap.

    **Cells match the committed run**: where the baseline's ``scale``
    section ran the same scenario, seed and duration scale, a candidate
    cell of a population the baseline also ran must equal it on every
    :data:`SCALE_FIELDS` field -- the run is deterministic, so any
    difference means the committed cell is stale.
    """
    base, _, _ = _sections(baseline, candidate, "scale", ("scenario", "seed", "duration_scale"))
    committed = {cell.get("n_peers"): cell for cell in base.get("cells", [])}
    rows: List[Row] = []
    for cell in (candidate.get("scale") or {}).get("cells", []):
        where = f"scale/N={cell.get('n_peers')}"
        peak, bound = cell.get("pending_peak"), cell.get("pending_bound")
        rows.append(Row(
            (where, "pending_peak<=bound", f"{peak} vs {bound}"),
            not cell.get("pending_bound_ok", True),
            f"{where}: pending peak {peak} exceeds bound {bound} -- event "
            "heap no longer bounded",
        ))
        old = committed.get(cell.get("n_peers"))
        if old is not None:
            differ = ", ".join(
                f"{field} {cell.get(field)} vs {old.get(field)}"
                for field in SCALE_FIELDS if cell.get(field) != old.get(field)
            )
            rows.append(Row(
                (where, "deterministic==baseline", differ or "equal"),
                bool(differ),
                f"{where}: {differ} (candidate vs baseline) -- the committed "
                "cell is stale or the run changed",
            ))
    return Gate(
        "scale gate (intra-snapshot: pending bounds; cells vs baseline)",
        "Scale bounds (intra-snapshot: pending heap; cells vs baseline)",
        ("cell", "check", "values"),
        rows,
    )


def build_step_summary(gates: List[Gate], failures: List[str]) -> str:
    """The verdicts as GitHub-flavored markdown for the step summary:
    one table per gate, then the failure list."""
    lines = ["## Regression gates" + (" — ❌ FAIL" if failures else " — ✅ pass")]
    for gate in gates:
        if gate.skip is not None:
            lines += ["", f"### {gate.title}", "", f"_{gate.skip}_"]
        elif gate.rows:
            lines += ["", f"### {gate.title}", ""]
            lines.append("| " + " | ".join(gate.columns) + " | verdict |")
            lines.append("| --- " * len(gate.columns) + "| :---: |")
            lines += [
                "| " + " | ".join(row.cells)
                + (" | ❌ fail |" if row.breached else " | ✅ ok |")
                for row in gate.rows
            ]
    if failures:
        lines += ["", "**Regressions beyond tolerance:**", ""]
        lines += [f"- {failure}" for failure in failures]
    return "\n".join(lines) + "\n"


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
        help="max allowed candidate/baseline ratio of a scenario's bytes or "
        f"latency (default {DEFAULT_TOLERANCE})",
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
        tol, abs_tol = args.tolerance, args.scenario_tolerance
        gates = [
            *(scenario_gate(baseline, candidate, s, abs_tol, tol) for s in SCENARIO_SECTIONS),
            recovery_gate(candidate),
            serving_gate(candidate, abs_tol),
            mdim_gate(candidate, abs_tol),
            scale_bounds_gate(baseline, candidate),
        ]
    except (OSError, ValueError) as exc:  # unreadable or not JSON
        print(f"check_regression: unusable input: {exc}", file=sys.stderr)
        return 2

    for gate in gates:
        if gate.skip is not None:
            print(f"{gate.name}: {gate.skip}")
        elif gate.rows:
            print(f"{gate.name} -- {', '.join(gate.columns)}")
            widths = [max(map(len, column)) for column in zip(*(r.cells for r in gate.rows))]
            for row in gate.rows:
                cells = (cell.ljust(width) for cell, width in zip(row.cells, widths))
                verdict = "FAIL" if row.breached else "ok  "
                print(f"  [{verdict}] " + "  ".join(cells).rstrip())
    if not any(gate.rows for gate in gates):
        print(
            "check_regression: unusable input: no gate yielded a row (every "
            "section missing or incomparable) -- the gate is misconfigured",
            file=sys.stderr,
        )
        return 2

    failures = [row.failure for gate in gates for row in gate.rows if row.breached]
    summary = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        try:
            with open(summary, "a", encoding="utf-8") as fh:
                fh.write(build_step_summary(gates, failures))
        except OSError as exc:  # never fail the gate over a summary file
            print(f"check_regression: cannot write summary: {exc}", file=sys.stderr)
    if failures:
        print("\nregressions beyond tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
