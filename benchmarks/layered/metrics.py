"""The benchmark's metric registry: names, units, direction and bounds.

``BENCHMARK.json`` at the repository root is the manifest the driver
reads; ``test_layered_smoke.py`` asserts that it lists exactly what this
file declares.  Three groups:

* :data:`END_TO_END` -- defined and non-zero on every workload; the
  manifest's ``end_to_end`` list, each with the share of the baseline
  median it may worsen by.
* :data:`SCOPED` -- end-to-end metrics that exist on some workloads only
  (simulated latency needs a wire, per-op host percentiles need the data
  plane, ...).  The manifest requires every ``end_to_end`` metric on every
  workload, so these ride in its ``per_layer`` list; ``--compare`` still
  applies their bounds on the workloads that have them.
* :data:`PER_LAYER` -- counts, busy time and ratios of single layers, no
  bound.

``exact`` metrics repeat bit-for-bit for a fixed seed (counts and
simulated time); every other metric is host time and carries noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

WIRE = ("wire-maint", "wire-reads", "wire-writes")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Allowed worsening: a share of the baseline median, or an absolute
    #: step when ``absolute``; ``None`` = reported, never gated.
    bound: Optional[float] = None
    absolute: bool = False
    exact: bool = False
    #: Workloads the metric is defined on (``None`` = all).
    workloads: Optional[Tuple[str, ...]] = None

    def applies(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("msgs_per_op", "msgs/op", "lower", 0.15, exact=True),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
]

SCOPED: List[Metric] = [
    Metric("sim_events_per_s", "1/s", "higher", 0.25, workloads=WIRE),
    Metric("op_us_p50", "us", "lower", 0.25, workloads=("dataplane-mix",)),
    Metric("op_us_p99", "us", "lower", 0.25, workloads=("dataplane-mix",)),
    Metric("sim_latency_p50_s", "s", "lower", 0.05, exact=True, workloads=WIRE),
    Metric("sim_latency_p99_s", "s", "lower", 0.05, exact=True, workloads=WIRE),
    Metric("failed_share", "ratio", "lower", 0.001, absolute=True, exact=True),
    Metric("wire_bytes_per_op", "B/op", "lower", 0.10, exact=True, workloads=WIRE),
    Metric("balance_deviation", "ratio", "lower", 0.10, exact=True,
           workloads=("construct",)),
]

#: Message kinds with their own receive span (``node.recv.<kind>.*``).
RECV_KINDS = (
    "query", "query_hit", "query_miss", "range_query", "range_part",
    "insert", "delete", "update_ack", "update_miss", "replica_sync",
    "exchange_req", "exchange_resp", "ping", "pong", "store",
)


def _layer(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, exact=exact)


def _n_and_self(prefix: str) -> List[Metric]:
    return [_layer(prefix + ".n", "count", exact=True), _layer(prefix + ".self_s", "s")]


PER_LAYER: List[Metric] = [
    # workload generators
    _layer("workloads.keys_s", "s"),
    _layer("workloads.draw_self_s", "s"),
    # scenario runner
    _layer("scenarios.setup_s", "s"),
    _layer("scenarios.drive_self_s", "s"),
    _layer("scenarios.assemble_s", "s"),
    _layer("scenarios.report_json_s", "s"),
    # event engine
    _layer("engine.events", "count", exact=True),
    _layer("engine.events_per_op", "events/op", exact=True),
    _layer("engine.self_s", "s"),
    _layer("engine.self_us_per_event", "us"),
    _layer("engine.timer_arms", "count", exact=True),
    _layer("engine.pending_peak", "count", exact=True),
    # transport
    _layer("transport.sends", "count", exact=True),
    _layer("transport.send_self_s", "s"),
    _layer("transport.send_us", "us"),
    _layer("transport.bytes", "B", exact=True),
    _layer("transport.dropped_share", "ratio", exact=True),
    _layer("transport.inflight_peak", "count", exact=True),
    # protocol node, one pair per received message kind
    *[m for kind in RECV_KINDS for m in _n_and_self("node.recv." + kind)],
    *_n_and_self("node.issue"),
    *_n_and_self("node.refresh_routes"),
    *_n_and_self("node.set_online"),
    *_n_and_self("node.initiate_exchange"),
    _layer("node.timeouts", "count", exact=True),
    _layer("node.retries", "count", exact=True),
    _layer("node.retry_share", "ratio", exact=True),
    # liveness
    _layer("liveness.probes", "count", exact=True),
    _layer("liveness.suspects", "count", exact=True),
    _layer("liveness.evictions", "count", exact=True),
    _layer("liveness.probe_msg_share", "ratio", exact=True),
    # data-plane network
    _layer("network.ideal_s", "s"),
    _layer("network.rebuild_routing_s", "s"),
    _layer("network.from_construction_s", "s"),
    _layer("network.insert_us_p50", "us"),
    _layer("network.insert_us_p99", "us"),
    _layer("network.delete_us_p50", "us"),
    _layer("network.delete_us_p99", "us"),
    _layer("network.replicas_written_per_write", "count", "higher", exact=True),
    # search
    _layer("search.lookup.n", "count", exact=True),
    _layer("search.lookup_us_p50", "us"),
    _layer("search.lookup_us_p99", "us"),
    _layer("search.hops_per_lookup", "hops", exact=True),
    _layer("search.range.n", "count", exact=True),
    _layer("search.range_us_p50", "us"),
    _layer("search.range_us_p99", "us"),
    _layer("search.msgs_per_range", "msgs", exact=True),
    # multi-dimensional codec
    _layer("mdim.box.n", "count", exact=True),
    _layer("mdim.box_us_p50", "us"),
    _layer("mdim.box_ranges_us_p50", "us"),
    _layer("mdim.ranges_per_box", "count", exact=True),
    _layer("mdim.box_recall", "ratio", "higher", exact=True),
    # keystore
    *_n_and_self("keystore.matching_keys"),
    *_n_and_self("keystore.mutations"),
    *_n_and_self("keystore.merge"),
    # replication
    _layer("replication.sweep_s", "s"),
    _layer("replication.reconcile_down_s", "s"),
    _layer("replication.reconcile.n", "count", exact=True),
    # construction
    _layer("construction.construct_s", "s"),
    _layer("construction.rounds", "count", exact=True),
    _layer("construction.interactions", "count", exact=True),
    _layer("construction.bilateral_share", "ratio", "higher", exact=True),
    _layer("construction.keys_moved", "count", exact=True),
    _layer("construction.splits", "count", exact=True),
    _layer("construction.mean_path_length", "bits", exact=True),
    # share of the traced self time by layer group (the issue's predictions)
    _layer("share.probes", "ratio"),
    _layer("share.reads", "ratio"),
    _layer("share.writes", "ratio"),
    _layer("share.transport", "ratio"),
    _layer("share.engine", "ratio"),
    # the tracer itself
    _layer("trace.overhead_ratio", "ratio"),
    _layer("trace.spans", "count", exact=True),
]


def gated(workload: str) -> List[Metric]:
    """Every metric ``--compare`` applies a bound to on ``workload``."""
    return [m for m in END_TO_END + SCOPED if m.applies(workload)]


def manifest_per_layer() -> List[Metric]:
    """What ``BENCHMARK.json`` lists under ``per_layer``."""
    return SCOPED + PER_LAYER


def percentile(ordered: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile of a sorted sample, or ``None`` when
    fewer than ten samples lie beyond it (too few to trust)."""
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return ordered[rank - 1]
