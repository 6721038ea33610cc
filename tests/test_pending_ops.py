"""The origin-side pending-operation machine, one contract for all kinds.

``PGridNode`` runs point queries, inserts, deletes and range queries
through one retry machine (``_attempt`` / ``_op_timeout`` /
``_dead_end`` / ``_retry_or_fail`` / ``_finish``; see the
``simnet/node.py`` module docstring).  Every guarantee of that machine
is asserted here once, parametrised over the four operations, so a kind
cannot drift from the others: exactly-once completion under duplicated
replies, stale dead-end reports ignored, moot when the origin is
offline, abort voiding every op once (dedup waiters included), and no
timer or table entry surviving a terminal outcome.
"""

import gc
import weakref

import pytest

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.pgrid.serving import CachePolicy
from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Message, Network

KINDS = ("query", "insert", "delete", "range")
QUADRANTS = [
    ("00", [0.05, 0.2]), ("01", [0.3, 0.45]), ("10", [0.55, 0.7]), ("11", [0.8, 0.95]),
]
TIMEOUT = 5.0
RETRIES = 2


def build_wire(*, serving=None):
    """Four nodes, one per two-bit path, fully cross-referenced."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01), loss_rate=0.0, rng=1)
    config = NodeConfig(query_retries=RETRIES, query_timeout=TIMEOUT, serving=serving)
    nodes = []
    for node_id, (path, floats) in enumerate(QUADRANTS):
        node = PGridNode(node_id, sim, net, config=config, rng=node_id + 1)
        node.path = Path.from_string(path)
        node.keys = {float_to_key(f) for f in floats}
        node.joined = True
        nodes.append(node)
    for node in nodes:
        for other in nodes:
            cpl = node.path.common_prefix_length(other.path)
            if cpl < node.path.length:
                node.add_route(cpl, other.node_id)
    return sim, net, nodes


#: family -> (pending table, results list, observer, terminal reply, dead-end report)
FAMILIES = {
    "query": ("_queries", "query_results", "on_query_done", P.QUERY_HIT, P.QUERY_MISS),
    "write": ("_writes", "write_results", "on_write_done", P.UPDATE_ACK, P.UPDATE_MISS),
    "range": ("_ranges", "range_results", "on_range_done", P.RANGE_PART, P.RANGE_PART),
}


class Op:
    """One operation of ``kind`` aimed at quadrant 11 (node 3 owns it)."""

    def __init__(self, node, kind):
        self.node = node
        self.kind = kind
        table, results, observer, self.terminal_kind, self.dead_end_kind = FAMILIES[
            "write" if kind in ("insert", "delete") else kind
        ]
        self.table = getattr(node, table)
        self.results = getattr(node, results)
        self.fired = {}
        setattr(node, observer,
                lambda nid, opid, out: self.fired.setdefault(opid, []).append(out))

    def issue(self):
        if self.kind == "query":
            return self.node.issue_query(float_to_key(0.9))
        if self.kind == "insert":
            return self.node.issue_insert(float_to_key(0.85))
        if self.kind == "delete":
            return self.node.issue_delete(float_to_key(0.8))
        return self.node.issue_range_query(float_to_key(0.8), float_to_key(0.9))

    def dead_end(self, opid, attempt):
        """Deliver a remote dead-end report for ``attempt`` to the origin."""
        payload = {"qid": opid, "hops": 1, "attempt": attempt}
        if self.kind == "range":
            payload.update(keys=[], slice=None)
        self.node.receive(Message(3, self.node.node_id, self.dead_end_kind, payload, 0))

    def assert_terminal(self, opid, pending, *, recorded):
        """The state every terminal outcome must leave behind."""
        assert pending.done
        assert opid not in self.table
        assert pending.timer is None or not pending.timer.armed
        assert len(self.fired[opid]) == 1
        assert (self.fired[opid][0] in self.results) == recorded


def black_hole(node):
    """``node`` stays reachable but never answers (replies time out)."""
    node.receive = lambda message: None


@pytest.mark.parametrize("kind", KINDS)
class TestPendingOpContract:
    def test_duplicated_terminal_reply_fires_observer_once(self, kind):
        sim, net, nodes = build_wire()
        op = Op(nodes[0], kind)
        replies = []
        deliver = nodes[0].receive

        def recording(message):
            if message.kind == op.terminal_kind:
                replies.append(message)
            deliver(message)

        nodes[0].receive = recording
        opid = op.issue()
        pending = op.table[opid]
        sim.run_until(1.0)
        assert len(replies) == 1 and op.fired[opid][0].success
        deliver(replies[0])  # the wire duplicated the reply
        op.assert_terminal(opid, pending, recorded=True)
        assert len(op.results) == 1

    def test_superseded_dead_end_report_is_ignored(self, kind):
        sim, net, nodes = build_wire()
        black_hole(nodes[3])
        op = Op(nodes[0], kind)
        opid = op.issue()
        pending = op.table[opid]
        sim.run_until(TIMEOUT + 0.5)  # attempt 1 timed out, attempt 2 is out
        assert (pending.attempts, pending.timeouts) == (2, 1)
        op.dead_end(opid, attempt=1)  # straggler of the superseded attempt
        assert pending.attempts == 2 and not pending.done and opid in op.table
        op.dead_end(opid, attempt=2)  # the live attempt's report does retry
        assert pending.attempts == 3 and not pending.done
        op.dead_end(opid, attempt=3)  # budget spent: the op fails, once
        assert not op.fired[opid][0].success and op.fired[opid][0].attempts == 3
        op.assert_terminal(opid, pending, recorded=True)

    def test_exhausted_timeouts_fail_the_op(self, kind):
        sim, net, nodes = build_wire()
        black_hole(nodes[3])
        op = Op(nodes[0], kind)
        opid = op.issue()
        pending = op.table[opid]
        sim.run_until((RETRIES + 1) * TIMEOUT + 1.0)
        out = op.fired[opid][0]
        assert not out.success and not out.moot
        assert (out.attempts, out.timeouts) == (RETRIES + 1, RETRIES + 1)
        op.assert_terminal(opid, pending, recorded=True)

    def test_timeout_while_origin_offline_is_moot(self, kind):
        sim, net, nodes = build_wire()
        op = Op(nodes[0], kind)
        opid = op.issue()
        pending = op.table[opid]
        sim.run_until(0.001)  # attempt sent, timer armed
        nodes[0].set_online(False)  # the reply can never be heard
        sim.run_until(TIMEOUT + 1.0)
        out = op.fired[opid][0]
        assert out.moot and not out.success and out.timeouts == 1
        op.assert_terminal(opid, pending, recorded=False)
        assert op.results == []

    @pytest.mark.parametrize("armed", [False, True])
    def test_abort_inflight_voids_each_op_exactly_once(self, kind, armed):
        # With serving on, the second identical point query joins the
        # first as a dedup waiter: it must be voided once too.
        policy = CachePolicy(enabled=True) if kind == "query" else None
        sim, net, nodes = build_wire(serving=policy)
        op = Op(nodes[0], kind)
        opids = [op.issue(), op.issue()]
        records = [op.table[opid] for opid in opids]
        if kind == "query":
            assert records[1].shared
        if armed:
            sim.run_until(0.001)  # attempts sent, timers armed
        nodes[0].abort_inflight()
        nodes[0].set_online(False)
        sim.run_until(60.0)  # stale zero-delay events and deadlines no-op
        for opid, pending in zip(opids, records):
            assert op.fired[opid][0].moot and op.fired[opid][0].timeouts == 0
            op.assert_terminal(opid, pending, recorded=False)
        serving = nodes[0].serving
        assert (serving is None) == (policy is None)
        if serving is not None:
            assert not serving.waiters and not serving.inflight
        # The heap never held more than one event per operation (its
        # launch, then its timer) and one per message in flight (a probe
        # arms no timer) -- and the stale ones have all run.  What is
        # left is the repair step of a node whose reply the offline
        # origin refused (its strike sweeps an interval later).
        assert sim.pending_peak <= len(opids) + net.inflight_peak
        assert sim.pending == sum(node.liveness.step_pending for node in nodes)

    @pytest.mark.parametrize("how", ["owner", "no_route"])
    def test_op_finished_inside_its_launch_arms_no_timer(self, kind, how):
        # Regression: the attempt used to arm its timer after the launch
        # returned even when the launch had already finished the op,
        # leaving a query_timeout-long no-op entry in the event heap.
        sim, net, nodes = build_wire()
        origin = nodes[3]  # owns quadrant 11: answers itself
        if how == "no_route":
            origin = nodes[0]
            origin.routing.clear()  # every attempt dead-ends locally
        op = Op(origin, kind)
        opid = op.issue()
        pending = op.table[opid]
        assert sim.pending == 1  # the zero-delay first attempt
        sim.run_until(0.0)
        out = op.fired[opid][0]
        assert out.success == (how == "owner")
        assert out.attempts == (1 if how == "owner" else RETRIES + 1)
        op.assert_terminal(opid, pending, recorded=True)
        assert pending.timer is None
        assert sim.pending == 0

    def test_finished_record_is_freed_without_the_cyclic_collector(self, kind):
        # The timer callback must hold the op id, not the record: a
        # record -> timer -> callback -> record cycle would keep every
        # finished op alive until a gc pass (measured +6% peak RSS).
        sim, net, nodes = build_wire()
        op = Op(nodes[0], kind)
        gc.collect()
        gc.disable()
        try:
            opid = op.issue()
            record = weakref.ref(op.table[opid])
            sim.run_until(0.001)
            assert record().timer.armed  # went over the wire, timer bound
            sim.run_until(1.0)
            assert op.fired[opid][0].success
            assert record() is None
        finally:
            gc.enable()


def routed(kind, opid, *, origin, hops):
    """``(route method, payload)`` of ``kind`` as a relay would receive it."""
    payload = {"origin": origin, "qid": opid, "attempt": 1, "hops": hops}
    if kind == "range":
        lo = float_to_key(0.8)
        return "_route_range", {"lo": lo, "hi": float_to_key(0.9), **payload}
    if kind == "query":
        return "_route_query", {"key": float_to_key(0.9), **payload}
    return "_route_write", {"op": kind, "key": float_to_key(0.85), **payload}


def wire_log(node):
    """Every ``(dst, kind, payload)`` the node puts on the wire from now on."""
    log, send = [], node.send

    def recording(dst, kind, payload, **kwargs):
        log.append((dst, kind, payload))
        return send(dst, kind, payload, **kwargs)

    node.send = recording
    return log


class TestFirstHopEvidence:
    """The one relay step (``_relay``) under all routed kinds: a point
    query or write remembers the reference its attempt left through and
    a timeout strikes exactly that reference; a showered range leaves
    through many and strikes none; a hop relayed for someone -- or
    somewhere -- else leaves the record alone."""

    @pytest.mark.parametrize("kind", ("query", "insert", "delete"))
    def test_timed_out_attempt_strikes_the_first_hop_it_left_through(self, kind):
        sim, net, nodes = build_wire()
        black_hole(nodes[3])
        origin = nodes[0]
        sent = wire_log(origin)
        struck = []
        origin._suspect_ref = struck.append
        op = Op(origin, kind)
        opid = op.issue()
        pending = op.table[opid]
        sim.run_until(0.001)  # attempt 1 is out
        first_hop = sent[0][0]
        assert first_hop in origin.routing[0] and pending.via == first_hop
        sim.run_until(TIMEOUT + 0.5)  # attempt 1 timed out, attempt 2 is out
        assert struck == [first_hop]
        assert pending.attempts == 2 and pending.via == sent[-1][0]

    def test_timed_out_range_strikes_no_reference(self):
        sim, net, nodes = build_wire()
        black_hole(nodes[3])
        origin = nodes[0]
        sent = wire_log(origin)
        struck = []
        origin._suspect_ref = struck.append
        op = Op(origin, "range")
        opid = op.issue()
        pending = op.table[opid]
        sim.run_until(0.001)  # attempt 1 is out
        assert sent[0][0] in origin.routing[0] and pending.via is None
        sim.run_until(TIMEOUT + 0.5)  # attempt 1 timed out, attempt 2 is out
        assert struck == []
        assert (pending.attempts, pending.timeouts, pending.via) == (2, 1, None)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("origin_id, hops", [(0, 2), (1, 0)])
    def test_relayed_hop_records_nothing(self, kind, origin_id, hops):
        # hops > 0: our own operation routed back through us; a foreign
        # origin: somebody else's, whose id happens to match one of ours.
        sim, net, nodes = build_wire()
        black_hole(nodes[3])
        relay = nodes[0]
        op = Op(relay, kind)
        opid = op.issue()
        pending = op.table[opid]
        sim.run_until(0.001)
        pending.via = "untouched"
        sent = wire_log(relay)
        route, payload = routed(kind, opid, origin=origin_id, hops=hops)
        getattr(relay, route)(payload)
        assert [(p["origin"], p["hops"]) for _, _, p in sent] == [(origin_id, hops + 1)]
        assert sent[0][2] is not payload and payload["hops"] == hops
        assert pending.via == "untouched"
