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
over time mirror the paper's Fig. 8 maintenance-vs-query split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import SimulationError

__all__ = ["ScenarioReport", "merge_reports", "HEADER_BYTES", "KEY_BYTES"]

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


# -- worker-shard merging ----------------------------------------------------
#
# The thin merge layer of worker-mode sharding
# (:func:`repro.scenarios.message_runner.run_sliced_ensemble`): per-shard
# reports over disjoint keyspace slices fold into ONE report with the
# identical schema.  Counts and bytes add; ratios are recomputed from
# their merged numerators/denominators wherever both survive in the
# report (success rates, hit rates); aggregates whose inputs the report
# does not carry (hop means, latency percentiles, Gini/CV) merge as
# count-weighted means of the per-shard values -- exact for the sums,
# a documented approximation for the order statistics.

#: Keys taking the maximum across shards (peaks, worst cases).
_MERGE_MAX = frozenset({
    "max", "max_bytes", "max_over_mean", "last_return_min",
    "time_to_converged_divergence_s", "ranges_per_box_max",
})
#: Keys taking the minimum (first occurrence across shards).
_MERGE_MIN = frozenset({"first_shutdown_min"})
#: Keys merged as weighted means (ratios/means with no recomputable
#: numerator+denominator pair in the report).
_MERGE_MEAN = frozenset({
    "mean", "mean_bytes", "mean_hops", "cv", "p50", "p90", "p99", "p999",
    "load_gini", "partition_availability", "mean_online_replicas",
    "final_partition_availability", "final_coverage",
    "divergence_baseline", "divergence_final",
})
#: Values copied from the first shard verbatim (configuration echoes,
#: identical across shards by construction).
_MERGE_FIRST = frozenset({"config", "policy", "dims", "bits_per_dim", "split_budget"})
#: Per-key sibling count fields used as weights for _MERGE_MEAN keys,
#: tried in order before falling back to the caller-supplied weights.
_WEIGHT_SIBLINGS = {
    "mean": ("count", "replicas"),
    "p50": ("count",), "p90": ("count",), "p99": ("count",),
    "p999": ("count",),
    "mean_bytes": ("used",),
    "mean_hops": ("successes", "point_queries"),
}


def _weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    total = sum(weights)
    if total <= 0:
        return sum(values) / len(values)
    return sum(v * w for v, w in zip(values, weights)) / total


def _merge_value(key: str, values: list, weights: Sequence[float]):
    """One key's merged value across the shards carrying it."""
    if all(v is None for v in values):
        return None
    pairs = [(v, w) for v, w in zip(values, weights) if v is not None]
    vals = [v for v, _ in pairs]
    wts = [w for _, w in pairs]
    first = vals[0]
    if isinstance(first, bool):
        return all(vals)
    if isinstance(first, str):
        return first
    if isinstance(first, dict):
        return _merge_section(vals, wts)
    if isinstance(first, list):
        if key == "top":
            # Busiest links across all shards, re-ranked.
            merged = [row for v in vals for row in v]
            merged.sort(key=lambda row: (-row[2], row[0], row[1]))
            return merged[:5]
        if key == "selectivity_per_dim":
            # Element-wise weighted mean across shards.
            out = []
            for i in range(len(first)):
                entries = [
                    (v[i], w) for v, w in zip(vals, wts) if v[i] is not None
                ]
                out.append(
                    _weighted_mean([e for e, _ in entries], [w for _, w in entries])
                    if entries
                    else None
                )
            return out
        return first
    if key in _MERGE_MAX:
        return max(vals)
    if key in _MERGE_MIN:
        return min(vals)
    if key in _MERGE_MEAN:
        return _weighted_mean(vals, wts)
    return sum(vals)


def _merge_section(dicts: List[dict], weights: Sequence[float]) -> dict:
    """Generic schema-preserving dict merge (key order from shard 0)."""
    out: Dict[str, Any] = {}
    for key in dicts[0]:
        present = [(d[key], w) for d, w in zip(dicts, weights) if key in d]
        values = [v for v, _ in present]
        wts = [w for _, w in present]
        if key in _MERGE_FIRST:
            out[key] = values[0]
            continue
        siblings = _WEIGHT_SIBLINGS.get(key)
        if siblings is not None and key in _MERGE_MEAN:
            for sibling in siblings:
                candidate = [d.get(sibling) for d in dicts if key in d]
                if all(isinstance(c, (int, float)) for c in candidate):
                    wts = candidate
                    break
        out[key] = _merge_value(key, values, wts)
    _recompute_rates(out)
    return out


def _recompute_rates(section: Dict[str, Any]) -> None:
    """Rebuild ratio keys from their merged numerator/denominator."""
    if "success_rate" in section and "successes" in section:
        if "queries" in section:
            denominator = section["queries"]
        elif "writes" in section and isinstance(section["writes"], (int, float)):
            denominator = section["writes"]
        else:
            denominator = None
        if denominator is not None:
            section["success_rate"] = (
                section["successes"] / denominator if denominator else None
            )
    if "write_success_rate" in section and "write_successes" in section:
        writes = section.get("writes")
        if isinstance(writes, (int, float)):
            section["write_success_rate"] = (
                section["write_successes"] / writes if writes else None
            )
    if "cache_hit_rate" in section:
        hits = section.get("cache_hits", 0)
        lookups = hits + section.get("cache_misses", 0)
        section["cache_hit_rate"] = (hits / lookups) if lookups else 0.0
    if "stale_read_rate" in section:
        audited = section.get("audited_hits", 0)
        section["stale_read_rate"] = (
            section.get("stale_reads", 0) / audited if audited else 0.0
        )
    if "max_over_mean" in section and "max" in section and "mean" in section:
        mean_v = section["mean"]
        section["max_over_mean"] = (section["max"] / mean_v) if mean_v else 0.0
    if "box_success_rate" in section:
        boxes = section.get("boxes", 0)
        section["box_success_rate"] = (
            section.get("box_successes", 0) / boxes if boxes else None
        )
        section["ranges_per_box_mean"] = (
            section.get("ranges_total", 0) / boxes if boxes else None
        )
    if "box_recall" in section:
        expected = section.get("recall_expected", 0)
        section["box_recall"] = (
            section.get("recall_found", 0) / expected if expected else None
        )


def _merge_series(all_series: List[List[dict]]) -> List[dict]:
    """Merge per-shard series row-wise by report bin (``minute``)."""
    by_minute: Dict[float, List[dict]] = {}
    for series in all_series:
        for row in series:
            by_minute.setdefault(row["minute"], []).append(row)
    merged = []
    for minute in sorted(by_minute):
        rows = by_minute[minute]
        queries = sum(r["queries"] for r in rows)
        successes = sum(r["successes"] for r in rows)
        online_vals = [r["online"] for r in rows if r["online"] is not None]
        hop_rows = [r for r in rows if r["mean_hops"] is not None]
        avail_rows = [
            r for r in rows if r["partition_availability"] is not None
        ]
        out = {
            "minute": minute,
            "online": sum(online_vals) if online_vals else None,
            "queries": queries,
            "successes": successes,
            "success_rate": (successes / queries) if queries else None,
            # Success-weighted: the per-row point-success counts behind
            # each shard's hop mean are not in the report.
            "mean_hops": (
                _weighted_mean(
                    [r["mean_hops"] for r in hop_rows],
                    [r["successes"] for r in hop_rows],
                )
                if hop_rows
                else None
            ),
            "query_Bps": sum(r["query_Bps"] for r in rows),
            "maint_Bps": sum(r["maint_Bps"] for r in rows),
            "partition_availability": (
                _weighted_mean(
                    [r["partition_availability"] for r in avail_rows],
                    [r["online"] or 0 for r in avail_rows],
                )
                if avail_rows
                else None
            ),
            "mean_online_replicas": (
                _weighted_mean(
                    [r["mean_online_replicas"] for r in avail_rows],
                    [r["online"] or 0 for r in avail_rows],
                )
                if avail_rows
                else None
            ),
        }
        if any("update_Bps" in r for r in rows):
            out["update_Bps"] = sum(r.get("update_Bps", 0.0) for r in rows)
        merged.append(out)
    return merged


def _merge_phases(all_phases: List[List[dict]]) -> List[dict]:
    """Merge per-shard phase summaries positionally (same spec shape)."""
    merged = []
    for rows in zip(*all_phases):
        queries = sum(r["queries"] for r in rows)
        rated = [r for r in rows if r["success_rate"] is not None]
        out = {
            "name": rows[0]["name"],
            "start_min": rows[0]["start_min"],
            "end_min": rows[0]["end_min"],
            "queries": queries,
            "point_queries": sum(r["point_queries"] for r in rows),
            "range_queries": sum(r["range_queries"] for r in rows),
            "success_rate": (
                _weighted_mean(
                    [r["success_rate"] for r in rated],
                    [r["queries"] for r in rated],
                )
                if rated
                else None
            ),
            "query_bytes": sum(r["query_bytes"] for r in rows),
        }
        if any("writes" in r for r in rows):
            writes = sum(r.get("writes", 0) for r in rows)
            wrated = [r for r in rows if r.get("write_success_rate") is not None]
            out["writes"] = writes
            out["write_success_rate"] = (
                _weighted_mean(
                    [r["write_success_rate"] for r in wrated],
                    [r.get("writes", 0) for r in wrated],
                )
                if wrated
                else None
            )
            out["update_bytes"] = sum(r.get("update_bytes", 0) for r in rows)
        merged.append(out)
    return merged


def merge_reports(
    reports: Sequence["ScenarioReport"],
    *,
    scenario: Optional[str] = None,
    seed: Optional[int] = None,
) -> "ScenarioReport":
    """Fold per-shard reports (disjoint sub-populations of one sliced
    scenario) into a single report with the identical schema.

    All shards must share the timeline (``duration_s``/``bin_s``) --
    they come from one spec split by
    :func:`~repro.scenarios.message_runner.slice_spec`.  Populations,
    counts and bytes add; rates are recomputed from merged counts;
    means/percentiles merge count-weighted (see the module comment).
    """
    if not reports:
        raise SimulationError("cannot merge zero shard reports")
    first = reports[0]
    for other in reports[1:]:
        if (
            abs(other.duration_s - first.duration_s) > 1e-9
            or abs(other.bin_s - first.bin_s) > 1e-9
        ):
            raise SimulationError(
                "shard reports disagree on the timeline; they must come "
                "from one sliced spec"
            )
    weights = [max(r.n_peers_start, 1) for r in reports]

    def optional_section(getter) -> Optional[dict]:
        sections = [getter(r) for r in reports]
        present = [
            (s, w) for s, w in zip(sections, weights) if s is not None
        ]
        if not present:
            return None
        return _merge_section([s for s, _ in present], [w for _, w in present])

    return ScenarioReport(
        scenario=scenario if scenario is not None else first.scenario,
        seed=seed if seed is not None else first.seed,
        n_peers_start=sum(r.n_peers_start for r in reports),
        n_peers_end=sum(r.n_peers_end for r in reports),
        duration_s=first.duration_s,
        bin_s=first.bin_s,
        phases=_merge_phases([r.phases for r in reports]),
        series=_merge_series([r.series for r in reports]),
        totals=_merge_section([r.totals for r in reports], weights),
        load=_merge_section([r.load for r in reports], weights),
        message_level=optional_section(lambda r: r.message_level),
        writes=optional_section(lambda r: r.writes),
        recovery=optional_section(lambda r: r.recovery),
        serving=optional_section(lambda r: r.serving),
        mdim=optional_section(lambda r: r.mdim),
    )
