"""Structured results of a scenario run, with a byte-stable JSON form.

:class:`ScenarioReport` carries everything the ISSUE-level questions
need: query success under churn, hop counts, message and bandwidth
totals, per-peer load imbalance and replication health over time.  The
report is *deterministic*: running the same
:class:`~repro.scenarios.spec.ScenarioSpec` twice with the same seed
yields byte-identical :meth:`to_json` output (pinned by the golden-trace
regression test), so reports can be diffed across commits like the perf
snapshot in ``BENCH_core.json``.

Bandwidth model
---------------
The synchronous data plane has no wire format, so bytes are accounted
with a fixed model: every inter-peer message costs :data:`HEADER_BYTES`
and every shipped key :data:`KEY_BYTES` (one 53-bit key plus framing).
The absolute numbers are nominal; their *ratios* across scenarios and
over time mirror the paper's Fig. 8 maintenance-vs-query split.  The
message backend accounts real wire bytes instead; either way every byte
lands in the run's one :class:`~repro.simnet.stats.StatsCollector`,
binned by the time it was spent.

Per-phase bytes
---------------
``phases[i].query_bytes`` / ``update_bytes`` are **bin-window sums on
both backends**: the bytes of the report bins from the one holding the
phase's start up to (not including) the one holding its end.  A bin
straddling a phase boundary therefore counts toward the *later* phase,
and the last phase absorbs the tail (on the wire, replies still in
flight at duration end), so the per-phase figures add up to
``totals.bytes_query`` / ``bytes_update``.  The library's phases are
whole numbers of bins at every ``duration_scale``, so there the window
is the phase; only a custom spec with unaligned phases sees the rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ScenarioReport", "HEADER_BYTES", "KEY_BYTES"]

#: Nominal bytes per inter-peer message (addressing + framing).
HEADER_BYTES = 48
#: Nominal bytes per data key shipped inside a message.
KEY_BYTES = 8


def _canonical(value: Any) -> Any:
    """Round floats (and normalize ``-0.0``) for stable, tidy JSON."""
    if isinstance(value, float):
        rounded = round(value, 9)
        return 0.0 if rounded == 0.0 else rounded
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


@dataclass
class ScenarioReport:
    """Everything one scenario run measured.

    ``series`` holds one row per report bin (``minute``-keyed) with the
    online population, query volume/success/hops, query and maintenance
    bandwidth (Bps under the module's byte model) and replication health
    (fraction of partitions with a live replica, mean online replicas
    per partition).  ``phases`` summarizes each declared phase;
    ``totals`` and ``load`` aggregate the whole run.
    """

    scenario: str
    seed: int
    n_peers_start: int
    n_peers_end: int
    duration_s: float
    bin_s: float
    phases: List[Dict[str, Any]] = field(default_factory=list)
    series: List[Dict[str, Any]] = field(default_factory=list)
    totals: Dict[str, Any] = field(default_factory=dict)
    load: Dict[str, Any] = field(default_factory=dict)
    #: Message-level backend section (query latency percentiles,
    #: timeout/retry counts, drop breakdown, in-flight peak, per-link
    #: bandwidth).  ``None`` for data-plane runs -- and *omitted* from
    #: the serialized form then, so data-plane golden traces are
    #: unaffected by the section's existence.
    message_level: Optional[Dict[str, Any]] = None
    #: Write-path section (insert/delete/update counts, write success,
    #: update-category bytes, end-of-run replica divergence).  ``None``
    #: for read-only scenarios and *omitted* from the serialized form
    #: then, keeping pre-write-path golden traces byte-identical.
    writes: Optional[Dict[str, Any]] = None
    #: Persistence/recovery section (restart and crash counts, warm vs
    #: cold rejoins, time-to-converged-divergence, recovery maintenance
    #: bytes, lost-acked-writes and tombstone-resurrection audit -- see
    #: :meth:`repro.scenarios.base.ScenarioRunnerBase._recovery_section`).
    #: ``None`` for restart-free scenarios and *omitted* from the
    #: serialized form then, keeping existing golden traces
    #: byte-identical.
    recovery: Optional[Dict[str, Any]] = None
    #: Query-serving front-end section (result/route cache hit rates,
    #: stale-read audit, dedup and invalidation counters, adaptive
    #: replication grants, per-peer load Gini, point-query latency
    #: percentiles -- see
    #: :meth:`repro.scenarios.base.ScenarioRunnerBase._serving_section`).
    #: ``None`` for cache-free specs and *omitted* from the serialized
    #: form then, keeping existing golden traces byte-identical.
    serving: Optional[Dict[str, Any]] = None
    #: Multi-dimensional keyspace section (box-query counts,
    #: ranges-per-box, the box recall audit against the brute-force
    #: oracle, per-dimension selectivity -- see
    #: :meth:`repro.scenarios.base.ScenarioRunnerBase._mdim_section`
    #: and :mod:`repro.pgrid.mdim`).  ``None`` for one-dimensional
    #: specs and *omitted* from the serialized form then, keeping
    #: existing golden traces byte-identical.
    mdim: Optional[Dict[str, Any]] = None

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-type dict with canonicalized floats (JSON-ready)."""
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_peers_start": self.n_peers_start,
            "n_peers_end": self.n_peers_end,
            "duration_s": self.duration_s,
            "bin_s": self.bin_s,
            "phases": self.phases,
            "series": self.series,
            "totals": self.totals,
            "load": self.load,
        }
        if self.message_level is not None:
            payload["message_level"] = self.message_level
        if self.writes is not None:
            payload["writes"] = self.writes
        if self.recovery is not None:
            payload["recovery"] = self.recovery
        if self.serving is not None:
            payload["serving"] = self.serving
        if self.mdim is not None:
            payload["mdim"] = self.mdim
        return _canonical(payload)

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    # -- convenient views --------------------------------------------------

    def success_rate_series(self) -> List[Tuple[float, float]]:
        """(minute, query success rate) for bins that saw queries."""
        return [
            (row["minute"], row["success_rate"])
            for row in self.series
            if row["success_rate"] is not None
        ]

    def bandwidth_series(self) -> List[Tuple[float, float, float]]:
        """(minute, query Bps, maintenance Bps) per report bin."""
        return [
            (row["minute"], row["query_Bps"], row["maint_Bps"])
            for row in self.series
        ]

    def update_bandwidth_series(self) -> List[Tuple[float, float]]:
        """(minute, write-path Bps) per report bin; empty for read-only
        scenarios (the column only exists when a phase carries writes)."""
        return [
            (row["minute"], row["update_Bps"])
            for row in self.series
            if "update_Bps" in row
        ]

    def summary_rows(self) -> List[Tuple[str, float]]:
        """Headline numbers as printable rows (mirrors
        :meth:`repro.simnet.experiment.ExperimentReport.summary_rows`)."""

        def _f(value) -> float:
            # Undefined aggregates are stored as None (NaN is not valid
            # JSON); render them as NaN for printing.
            return float("nan") if value is None else float(value)

        totals = self.totals
        rows = [
            ("queries issued", _f(totals.get("queries", 0))),
            ("query success rate", _f(totals.get("success_rate"))),
            ("mean lookup hops", _f(totals.get("mean_hops"))),
            ("messages total", _f(totals.get("messages", 0))),
            ("bandwidth total (bytes)", _f(totals.get("bytes_total", 0))),
            ("load CV across peers", _f(self.load.get("cv"))),
            ("final partition availability", _f(totals.get("final_partition_availability"))),
            ("final live-key coverage", _f(totals.get("final_coverage"))),
        ]
        if self.writes is not None:
            rows += [
                ("writes issued", _f(self.writes.get("writes", 0))),
                ("write success rate", _f(self.writes.get("success_rate"))),
                ("write bytes", _f(self.writes.get("bytes_update", 0))),
                ("final replica divergence", _f(self.writes.get("divergence", {}).get("mean"))),
            ]
        if self.recovery is not None:
            rows += [
                ("restarts (clean+crash)", _f(self.recovery.get("restarts", 0))),
                ("warm rejoins", _f(self.recovery.get("warm_rejoins", 0))),
                ("time to converged divergence (s)",
                 _f(self.recovery.get("time_to_converged_divergence_s"))),
                ("recovery maintenance bytes",
                 _f(self.recovery.get("recovery_maint_bytes", 0))),
                ("lost acked writes", _f(self.recovery.get("lost_acked_writes", 0))),
                ("tombstone resurrections",
                 _f(self.recovery.get("tombstone_resurrections", 0))),
            ]
        if self.serving is not None:
            latency = self.serving.get("latency_s", {})
            rows += [
                ("cache hit rate", _f(self.serving.get("cache_hit_rate"))),
                ("stale read rate", _f(self.serving.get("stale_read_rate"))),
                ("serving p99 latency (s)", _f(latency.get("p99"))),
                ("per-peer load Gini", _f(self.serving.get("load_gini"))),
            ]
        if self.mdim is not None:
            rows += [
                ("box queries issued", _f(self.mdim.get("boxes", 0))),
                ("ranges per box (mean)", _f(self.mdim.get("ranges_per_box_mean"))),
                ("box recall", _f(self.mdim.get("box_recall"))),
            ]
        return rows
