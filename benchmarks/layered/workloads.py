"""The five workloads of the layered benchmark.

Every workload builds its inputs from the seed when it is constructed
(specs, key seeds, an operation log) and hands the program only those
inputs.  :meth:`Workload.unit` then runs one *unit*: the program's set-up
followed by the timed section, with the outputs checked.  A run repeats
the same unit -- identical inputs, so identical outputs and counts -- and
reports medians of the host times; see ``run.py``.

All workloads are closed loops: the wire workloads advance simulated time
event by event (arrival rates are simulated, not host, rates) and the
data-plane and construction workloads issue the next call when the
previous one returns.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.core import construction
from repro.core.deviation import load_balance_deviation
from repro.core.reference import reference_partition
from repro.pgrid.keyspace import MAX_KEY
from repro.pgrid.mdim import ZOrderCodec
from repro.pgrid.network import PGridNetwork, build_overlay
from repro.scenarios.library import SCENARIOS
from repro.scenarios.message_runner import MessageNetConfig, MessageScenarioRunner
from repro.scenarios.spec import ChurnSpec, Phase, QueryMix, ScenarioSpec, WriteMix
from repro.simnet.engine import Simulator
from repro.simnet.node import PGridNode
from repro.workloads import datasets

from metrics import RECV_KINDS, percentile
from tracing import Tracer


class CheckFailed(Exception):
    """An output check did not hold; the run is reported incorrect."""


@dataclass
class Unit:
    """Outcome of one set-up + timed section."""

    setup_s: float
    wall_s: float
    ops: int
    failed: int
    #: SHA-256 over the program's outputs; identical across units.
    digest: str
    #: Metrics that repeat bit-for-bit for a fixed seed.
    exact: Dict[str, float]
    #: Host-time metrics of this unit.
    host: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values from the span tracer (traced units only), and the
    #: tracer's aggregates and raw spans they were derived from.
    layers: Dict[str, float] = field(default_factory=dict)
    trace: Optional[dict] = None


@contextmanager
def tapped(owner, attr: str, on_call):
    """While active, route calls of ``owner.attr`` through
    ``on_call(original, args, kwargs)`` -- the untraced pass's only
    instrumentation: a handful of calls per unit (phase boundaries), or a
    bare counter."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def wrapper(*args, **kwargs):
        return on_call(original, args, kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _sha(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Workload:
    """Base: a named set of inputs plus the unit that runs them."""

    name = ""
    why = ""

    def unit(self, tracer: Optional[Tracer] = None) -> Unit:
        """One set-up + timed section (:meth:`_run`), then the checks and
        counts (:meth:`_finish`).  With a tracer, the root span covers
        exactly the former."""
        if tracer is None:
            return self._finish(self._run(), traced=False)
        tracer.reset()
        unit = self._finish(tracer.call("bench.unit", self._run, (), {}), traced=True)
        unit.layers.update(self._layers(tracer, unit))
        unit.trace = tracer.snapshot()
        total = tracer.self_total_s()
        unit.layers["trace.spans"] = tracer.spans
        unit.layers["trace.self_sum_s"] = total
        layer_self = total - tracer.overhead_s()
        for group, names in _share_groups(tracer).items():
            unit.layers["share." + group] = tracer.self_s(*names) / layer_self
        return unit

    def _run(self) -> tuple:
        raise NotImplementedError

    def _finish(self, raw: tuple, traced: bool) -> Unit:
        raise NotImplementedError

    def _layers(self, tracer: Tracer, unit: Unit) -> Dict[str, float]:
        raise NotImplementedError

    def host_summary(self) -> Dict[str, float]:
        """Host metrics drawn from every untraced unit so far (beyond
        the fastest-unit values ``run.py`` takes)."""
        return {}


_TRANSPORT_SPANS = ["transport.send", "event.transport.Network.send"]


def _recv(*kinds: str) -> List[str]:
    return ["node.recv." + kind for kind in kinds]


def _share_groups(tracer: Tracer) -> Dict[str, List[str]]:
    """Span names per layer group of the ``share.*`` metrics."""
    return {
        "probes": _recv("ping", "pong")
        + ["node.refresh_routes", "event.node.PGridNode._send_probe"],
        "reads": _recv("query", "query_hit", "query_miss", "range_query", "range_part")
        + ["node.issue.query", "node.issue.range_query",
           "event.node.PGridNode.issue_query", "event.node.PGridNode.issue_range_query"],
        "writes": _recv("insert", "delete", "update_ack", "update_miss", "replica_sync")
        + ["node.issue.insert", "node.issue.delete", "event.node.PGridNode._issue_write"],
        "transport": _TRANSPORT_SPANS,
        "engine": _engine_spans(tracer),
    }


def _engine_spans(tracer: Tracer) -> List[str]:
    return ["engine.run_until", "engine.schedule", "engine.timer_arm"] + tracer.names(
        "event.engine."
    )


# -- wire workloads -----------------------------------------------------------


class WireWorkload(Workload):
    """One :class:`ScenarioSpec` on the message backend.

    ``loss_rate`` is 0 on all three: with random loss a few queries exhaust
    their retries on every seed, and the benchmark's contract is that no
    operation fails.  Timeouts, retries, suspects and evictions still occur
    -- through churn on ``wire-writes`` and through stale references
    everywhere.
    """

    def __init__(self, spec: ScenarioSpec):
        spec.validate()
        self.spec = spec
        self.net_config = MessageNetConfig(loss_rate=0.0)

    def _run(self) -> tuple:
        run_calls: List[tuple] = []
        issued = {"query": 0, "write": 0}

        def timed_run(original, args, kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                run_calls.append((start, perf_counter()))

        def counting(what):
            def on_call(original, args, kwargs):
                issued[what] += 1
                return original(*args, **kwargs)
            return on_call

        with tapped(Simulator, "run_until", timed_run), \
                tapped(PGridNode, "issue_query", counting("query")), \
                tapped(PGridNode, "issue_range_query", counting("query")), \
                tapped(PGridNode, "issue_insert", counting("write")), \
                tapped(PGridNode, "issue_delete", counting("write")):
            start = perf_counter()
            runner = MessageScenarioRunner(self.spec, net_config=self.net_config)
            report = runner.run()
            text = report.to_json()
            end = perf_counter()
        return start, end, run_calls, issued, runner, report, text

    def _finish(self, raw: tuple, traced: bool) -> Unit:
        start, end, run_calls, issued, runner, report, text = raw
        first_event = run_calls[0][0]
        run_until_s = sum(e - s for s, e in run_calls)
        doc = report.to_dict()
        totals, wire = doc["totals"], doc["message_level"]
        write_path = wire.get("write_path", {})
        queries, writes = totals["queries"], totals.get("writes", 0)
        ops = queries + writes
        failed = ops - totals["successes"] - totals.get("write_successes", 0)
        # Every issued operation is tallied exactly once (moot ones --
        # the origin churned offline -- are voided, not tallied).
        if issued["query"] != queries + wire["moot_queries"]:
            raise CheckFailed(
                f"{issued['query']} queries issued, "
                f"{queries} tallied + {wire['moot_queries']} moot"
            )
        if issued["write"] != writes + write_path.get("moot_writes", 0):
            raise CheckFailed(
                f"{issued['write']} writes issued, {writes} tallied + "
                f"{write_path.get('moot_writes', 0)} moot"
            )
        sim, transport = runner.simulator, runner.transport
        sends = transport.messages_sent
        repair = wire["repair"]
        retries = wire["retries"] + write_path.get("retries", 0)
        latency = wire["latency_s"]
        exact = {
            "msgs_per_op": sends / ops,
            "failed_share": failed / ops,
            "sim_latency_p50_s": latency["p50"],
            "sim_latency_p99_s": latency["p99"],
            "wire_bytes_per_op": totals["bytes_total"] / ops,
            "engine.events": sim.events_processed,
            "engine.events_per_op": sim.events_processed / ops,
            "engine.pending_peak": sim.pending_peak,
            "transport.sends": sends,
            "transport.bytes": totals["bytes_total"],
            "transport.dropped_share": transport.messages_dropped / sends,
            "transport.inflight_peak": transport.inflight_peak,
            "node.timeouts": wire["timeouts"] + write_path.get("timeouts", 0),
            "node.retries": retries,
            "node.retry_share": retries / ops,
            "liveness.probes": repair["probes"],
            "liveness.suspects": repair["suspects"],
            "liveness.evictions": repair["evictions"],
        }
        return Unit(
            setup_s=first_event - start,
            wall_s=end - first_event,
            ops=ops,
            failed=failed,
            digest=hashlib.sha256(text.encode()).hexdigest(),
            exact=exact,
            host={"sim_events_per_s": sim.events_processed / run_until_s},
        )

    def _layers(self, t: Tracer, unit: Unit) -> Dict[str, float]:
        events, sends = unit.exact["engine.events"], unit.exact["transport.sends"]
        engine_self = t.self_s(*_engine_spans(t))
        send_self = t.self_s(*_TRANSPORT_SPANS)
        drive = (
            ["scenarios.drive", "scenarios.tally"]
            + t.names("event.base.") + t.names("event.churn.")
            + t.names("event.message_runner.")
        )
        issue = t.names("node.issue.") + [
            n for n in t.names("event.node.") if "issue" in n
        ]
        out = {
            "workloads.keys_s": t.total_s("workloads.keys"),
            "workloads.draw_self_s": t.self_s("workloads.draw"),
            "scenarios.setup_s": t.total_s("scenarios.setup"),
            "scenarios.drive_self_s": t.self_s(*drive),
            "scenarios.assemble_s": t.total_s("scenarios.assemble"),
            "scenarios.report_json_s": t.total_s("scenarios.report_json"),
            "engine.self_s": engine_self,
            "engine.self_us_per_event": engine_self / events * 1e6,
            "engine.timer_arms": t.n("engine.timer_arm"),
            "transport.send_self_s": send_self,
            "transport.send_us": send_self / sends * 1e6,
            "node.issue.n": t.n(*t.names("node.issue.")),
            "node.issue.self_s": t.self_s(*issue),
            "network.ideal_s": t.total_s("network.ideal"),
            "network.rebuild_routing_s": t.total_s("network.rebuild_routing"),
            "liveness.probe_msg_share": t.n("node.recv.ping", "node.recv.pong") / sends,
        }
        for kind in RECV_KINDS:
            out[f"node.recv.{kind}.n"] = t.n("node.recv." + kind)
            out[f"node.recv.{kind}.self_s"] = t.self_s("node.recv." + kind)
        for attr in ("refresh_routes", "set_online", "initiate_exchange"):
            out[f"node.{attr}.n"] = t.n("node." + attr)
            out[f"node.{attr}.self_s"] = t.self_s("node." + attr)
        return out


class WireMaint(WireWorkload):
    name = "wire-maint"
    why = (
        "library uniform-baseline on the wire: liveness ping/pong and route "
        "refresh dominate, as in every library scenario today"
    )

    def __init__(self, seed: int, smoke: bool):
        n, scale = (64, 0.2) if smoke else (512, 0.25)
        super().__init__(SCENARIOS["uniform-baseline"](n, seed=seed, duration_scale=scale))


class WireReads(WireWorkload):
    name = "wire-reads"
    why = (
        "200 point/range queries per simulated second: the node query-routing "
        "handlers do most of the work, probes little"
    )

    def __init__(self, seed: int, smoke: bool):
        n, rate, duration = (64, 40.0, 10.0) if smoke else (1024, 200.0, 20.0)
        phase = Phase(
            name="reads",
            duration_s=duration,
            query_rate=rate,
            mix=QueryMix(point_weight=0.9, range_weight=0.1, range_span=0.005),
            maintenance_interval_s=8.0,
        )
        super().__init__(ScenarioSpec(
            name=self.name, phases=(phase,), n_peers=n, keys_per_peer=8, seed=seed,
        ))


class WireWrites(WireWorkload):
    name = "wire-writes"
    why = (
        "inserts/deletes/updates with replica sync under churn: the same node, "
        "transport and engine layers on the write and repair paths"
    )

    def __init__(self, seed: int, smoke: bool):
        n, scale, duration = (64, 0.25, 10.0) if smoke else (512, 1.0, 20.0)
        phase = Phase(
            name="writes",
            duration_s=duration,
            query_rate=60.0 * scale,
            mix=QueryMix(point_weight=1.0, range_weight=0.0),
            writes=WriteMix(
                write_rate=100.0 * scale,
                insert_weight=0.45, delete_weight=0.30, update_weight=0.25,
            ),
            # A tenth of the peers is offline 7-20 s every 13-40 s: long
            # enough for two 10 s probe timeouts, so references get evicted.
            churn=ChurnSpec(
                min_offline_s=20.0 / 3, max_offline_s=20.0,
                min_online_s=40.0 / 3, max_online_s=40.0, fraction=0.1,
            ),
            maintenance_interval_s=8.0,
        )
        # Eight replicas per partition, eight references per level and four
        # retries: no partition and no routing level is ever entirely
        # offline or suspect, so no operation fails (0 failures over 300
        # seeds; with the spec defaults of 3/4/2 and a fifth of the peers
        # churning, operations fail on about one seed in five).
        super().__init__(ScenarioSpec(
            name=self.name, phases=(phase,), n_peers=n, keys_per_peer=8, seed=seed,
            n_min=8, max_refs=8, query_retries=4,
        ))


# -- data plane ---------------------------------------------------------------

LOOKUP, RANGE, BOX, INSERT, DELETE = range(5)
_OP_NAMES = ("lookup", "range", "box", "insert", "delete")
#: The spatial check index buckets keys by the top bits of each cell.
_GRID_BITS = 6


class DataplaneMix(Workload):
    name = "dataplane-mix"
    why = (
        "lookups, ranges, 2-D boxes, inserts and deletes straight on "
        "PGridNetwork: no simulator, so search/keystore/mdim do all the work"
    )

    RANGE_SPAN = 0.002
    BOX_SIDE = 0.05

    def __init__(self, seed: int, smoke: bool):
        if smoke:
            self.n_peers, self.keys_per_peer = 128, 10
            counts = (800, 100, 20, 340, 340)
        else:
            self.n_peers, self.keys_per_peer = 1024, 25
            counts = (20000, 2000, 200, 4000, 4000)
        rng = random.Random(seed)
        self.key_seed = rng.randrange(2**31)
        self.build_seed = rng.randrange(2**31)
        self.route_seed = rng.randrange(2**31)
        self.codec = codec = ZOrderCodec(dims=2)
        keys = self._flat_keys()
        ops: List[tuple] = []
        point = lambda: codec.encode((rng.random(), rng.random()))  # noqa: E731
        for i in range(counts[LOOKUP]):
            # Half the lookups target stored keys, half fresh (absent) ones.
            ops.append((LOOKUP, keys[rng.randrange(len(keys))] if i % 2 else point(), 0))
        span = int(self.RANGE_SPAN * MAX_KEY)
        for _ in range(counts[RANGE]):
            lo = rng.randrange(MAX_KEY - span)
            ops.append((RANGE, lo, lo + span))
        for _ in range(counts[BOX]):
            lows = [rng.random() * (1.0 - self.BOX_SIDE) for _ in range(2)]
            ops.append((BOX, *codec.box_cells(lows, [x + self.BOX_SIDE for x in lows])))
        ops.extend((INSERT, point(), 0) for _ in range(counts[INSERT]))
        ops.extend(
            (DELETE, keys[rng.randrange(len(keys))], 0) for _ in range(counts[DELETE])
        )
        rng.shuffle(ops)
        self.ops = ops
        #: Digest of the outputs the model replay last accepted, and the
        #: box recall it measured.
        self._verified: Optional[str] = None
        self._recall = 0.0
        #: Per op of the log (and per box, for the decomposition alone):
        #: its fastest host duration over the untraced units so far.  Every
        #: unit runs the same ops, and interference only ever adds time.
        self._fastest: List[float] = []
        self._fastest_box_ranges: List[float] = []

    def _flat_keys(self) -> List[int]:
        peer_keys = datasets.workload_keys(
            "U", self.n_peers, self.keys_per_peer, seed=self.key_seed, codec=self.codec
        )
        return [k for keys in peer_keys for k in keys]

    def _run(self) -> tuple:
        codec = self.codec
        start = perf_counter()
        keys = self._flat_keys()
        # ScenarioSpec's overlay parameters, so the trie is the one the
        # wire workloads route over.
        net = PGridNetwork.ideal(
            keys, self.n_peers, d_max=40.0, n_min=3, max_refs=4, rng=self.build_seed
        )
        ready = perf_counter()
        rng = random.Random(self.route_seed)
        durations: List[float] = []
        box_ranges_s: List[float] = []
        timed = durations.append
        outputs: List[tuple] = []
        record = outputs.append
        clock = perf_counter
        lookup, range_query = net.lookup, net.range_query
        insert, delete, box_ranges = net.insert, net.delete, codec.box_ranges
        for kind, a, b in self.ops:
            t0 = clock()
            if kind == LOOKUP:
                res = lookup(a, rng=rng)
                out = (res.found, res.value_present, res.hops)
            elif kind == RANGE:
                res = range_query(a, b, rng=rng)
                out = (len(res.keys), res.messages, res.failures)
            elif kind == BOX:
                # The composition scenarios/runner.py uses: decompose the
                # box, then one range query per z-order sub-range.
                ranges = box_ranges(a, b)
                t_ranges = clock()
                found: set = set()
                messages = failures = 0
                for lo, hi in ranges:
                    res = range_query(lo, hi, rng=rng)
                    found.update(res.keys)
                    messages += res.messages
                    failures += res.failures
                box_ranges_s.append(t_ranges - t0)
                out = (frozenset(found), len(ranges), messages, failures)
            else:
                res = (insert if kind == INSERT else delete)(a, rng=rng)
                out = (res.found, res.hops, res.replicas_written)
            timed(clock() - t0)
            record(out)
        end = perf_counter()
        return start, ready, end, keys, durations, box_ranges_s, outputs

    def _finish(self, raw: tuple, traced: bool) -> Unit:
        start, ready, end, keys, durations, box_ranges_s, outputs = raw
        digest = _sha([
            (sorted(o[0]),) + o[1:] if isinstance(o[0], frozenset) else o for o in outputs
        ])
        if digest != self._verified:
            self._verify(keys, outputs)
            self._verified = digest
        if not traced:
            self._fastest = list(map(min, self._fastest or durations, durations))
            self._fastest_box_ranges = list(
                map(min, self._fastest_box_ranges or box_ranges_s, box_ranges_s)
            )

        ops = self.ops
        failed = msgs = hops = range_msgs = replicas = n_ranges = 0
        for (kind, _, _), out in zip(ops, outputs):
            if kind == LOOKUP:
                failed += not out[0]
                hops += out[2]
            elif kind == RANGE:
                failed += out[2] > 0
                range_msgs += out[1]
            elif kind == BOX:
                failed += out[3] > 0
                n_ranges += out[1]
                msgs += out[2]
            else:
                failed += not out[0]
                msgs += out[1]
                replicas += out[2]
        counts = [0] * len(_OP_NAMES)
        for kind, _, _ in ops:
            counts[kind] += 1
        n_ops = len(ops)
        exact = {
            "msgs_per_op": (msgs + hops + range_msgs) / n_ops,
            "failed_share": failed / n_ops,
            "search.lookup.n": counts[LOOKUP],
            "search.hops_per_lookup": hops / counts[LOOKUP],
            "search.range.n": counts[RANGE],
            "search.msgs_per_range": range_msgs / counts[RANGE],
            "mdim.box.n": counts[BOX],
            "mdim.ranges_per_box": n_ranges / counts[BOX],
            "mdim.box_recall": self._recall,
            "network.replicas_written_per_write":
                replicas / (counts[INSERT] + counts[DELETE]),
        }
        return Unit(
            setup_s=ready - start, wall_s=end - ready, ops=n_ops, failed=failed,
            digest=digest, exact=exact,
        )

    def _verify(self, keys: List[int], outputs: List[tuple]) -> None:
        """Replay the op log against a brute-force model: a sorted key
        list, a set, and a coarse grid over the decoded cells."""
        codec = self.codec
        shift = codec.bits_per_dim - _GRID_BITS
        present = set(keys)
        ordered = sorted(present)
        grid: Dict[tuple, set] = {}

        def bucket(key: int) -> set:
            cx, cy = codec.cells_of(key)
            return grid.setdefault((cx >> shift, cy >> shift), set())

        for key in present:
            bucket(key).add(key)
        expected = returned = 0
        for index, ((kind, a, b), out) in enumerate(zip(self.ops, outputs)):
            if kind == LOOKUP:
                want, got = (True, a in present), out[:2]
            elif kind == RANGE:
                want, got = bisect_left(ordered, b) - bisect_left(ordered, a), out[0]
            elif kind == BOX:
                want = {
                    key
                    for gx in range(a[0] >> shift, (b[0] >> shift) + 1)
                    for gy in range(a[1] >> shift, (b[1] >> shift) + 1)
                    for key in grid.get((gx, gy), ())
                    if codec.box_contains(key, a, b)
                }
                # Every stored key inside the box must come back (the
                # z-ranges may over-cover, never under-cover).
                got = want & out[0]
                expected += len(want)
                returned += len(got)
            else:
                want, got = True, out[0]  # routed to an online owner
                if kind == INSERT and a not in present:
                    present.add(a)
                    insort(ordered, a)
                    bucket(a).add(a)
                elif kind == DELETE and a in present:
                    present.remove(a)
                    del ordered[bisect_left(ordered, a)]
                    bucket(a).remove(a)
            if got != want:
                raise CheckFailed(
                    f"op {index} ({_OP_NAMES[kind]}): program gave {got!r}, "
                    f"model {want!r}"
                )
        self._recall = returned / expected if expected else 1.0

    def host_summary(self) -> Dict[str, float]:
        def pcts(prefix: str, samples: List[float], qs=(0.50, 0.99)) -> Dict[str, float]:
            ordered = sorted(samples)
            out = {}
            for q in qs:
                value = percentile(ordered, q)
                out[f"{prefix}_us_p{int(q * 100)}"] = None if value is None else value * 1e6
            return out

        by_kind: List[List[float]] = [[] for _ in _OP_NAMES]
        for (kind, _, _), duration in zip(self.ops, self._fastest):
            by_kind[kind].append(duration)
        summary = pcts("op", self._fastest)
        summary.update(pcts("search.lookup", by_kind[LOOKUP]))
        summary.update(pcts("search.range", by_kind[RANGE]))
        summary.update(pcts("mdim.box", by_kind[BOX], qs=(0.50,)))
        summary.update(pcts("mdim.box_ranges", self._fastest_box_ranges, qs=(0.50,)))
        summary.update(pcts("network.insert", by_kind[INSERT]))
        summary.update(pcts("network.delete", by_kind[DELETE]))
        return summary

    def _layers(self, t: Tracer, unit: Unit) -> Dict[str, float]:
        out = {
            "workloads.keys_s": t.total_s("workloads.keys"),
            "network.ideal_s": t.total_s("network.ideal"),
            "network.rebuild_routing_s": t.total_s("network.rebuild_routing"),
        }
        out.update(_keystore_layers(t))
        return out


def _keystore_layers(t: Tracer) -> Dict[str, float]:
    out = {}
    for group in ("matching_keys", "mutations", "merge"):
        out[f"keystore.{group}.n"] = t.n("keystore." + group)
        out[f"keystore.{group}.self_s"] = t.self_s("keystore." + group)
    return out


# -- construction -------------------------------------------------------------


class Construct(Workload):
    name = "construct"
    why = (
        "build_overlay on Pareto-skewed keys: the paper's parallel "
        "construction, which no other workload touches"
    )

    def __init__(self, seed: int, smoke: bool):
        self.n_peers, self.keys_per_peer = (64, 10) if smoke else (256, 25)
        rng = random.Random(seed)
        self.key_seed = rng.randrange(2**31)
        self.build_seed = rng.randrange(2**31)
        config = construction.ConstructionConfig()
        self.input_keys = {k for keys in self._peer_keys() for k in keys}
        self.reference = reference_partition(
            sorted(self.input_keys), self.n_peers,
            d_max=config.resolved_d_max(), n_min=config.n_min,
        )

    def _peer_keys(self) -> List[List[int]]:
        return datasets.workload_keys(
            "P1.0", self.n_peers, self.keys_per_peer, seed=self.key_seed
        )

    def _run(self) -> tuple:
        results = []

        def keep_result(original, args, kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        with tapped(construction, "construct_overlay", keep_result):
            start = perf_counter()
            peer_keys = self._peer_keys()
            ready = perf_counter()
            net = build_overlay(peer_keys, rng=self.build_seed)
            end = perf_counter()
        return start, ready, end, net, results

    def _finish(self, raw: tuple, traced: bool) -> Unit:
        start, ready, end, net, (result,) = raw
        if not net.is_consistent():
            raise CheckFailed("built overlay is not consistent")
        if net.all_keys() != self.input_keys:
            raise CheckFailed("built overlay lost or invented keys")
        peers = sorted(net.peers.values(), key=lambda p: p.peer_id)
        exact = {
            "msgs_per_op": result.interactions_per_peer,
            "failed_share": 0.0,
            "balance_deviation": load_balance_deviation(net.paths(), self.reference),
            "construction.rounds": result.rounds,
            "construction.interactions": result.interactions,
            "construction.bilateral_share":
                result.bilateral_interactions / result.interactions,
            "construction.keys_moved": result.keys_moved,
            "construction.splits": result.splits,
            "construction.mean_path_length": net.mean_path_length(),
        }
        return Unit(
            setup_s=ready - start, wall_s=end - ready, ops=self.n_peers, failed=0,
            digest=_sha([(p.peer_id, str(p.path), len(p.keys)) for p in peers]),
            exact=exact,
        )

    def _layers(self, t: Tracer, unit: Unit) -> Dict[str, float]:
        out = {
            "workloads.keys_s": t.total_s("workloads.keys"),
            "construction.construct_s": t.total_s("construction.construct"),
            "network.from_construction_s": t.total_s("network.from_construction"),
            "replication.sweep_s": t.total_s("replication.sweep"),
            "replication.reconcile_down_s": t.total_s("replication.reconcile_down"),
            "replication.reconcile.n": t.n("replication.reconcile"),
        }
        out.update(_keystore_layers(t))
        return out


WORKLOADS = {w.name: w for w in (WireMaint, WireReads, WireWrites, DataplaneMix, Construct)}
