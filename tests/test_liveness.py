"""The unified liveness & route-repair subsystem (pgrid.liveness).

Four layers:

* **Tracker unit tests** -- the suspect -> probe -> evict state machine
  and the per-reference confirm interval in isolation (no simulator).
* **Wire protocol tests** -- hand-built overlays driving the evidence
  paths: refused connects, partition refusals (set_partitions drops are
  *visible* to the sender's routing state), ping/pong probing,
  confirm-on-use staleness probing, gossip replenishment on exchanges
  and (on demand) pongs, and the per-level refresh sweep -- the latter
  also against a brute-force reference, under Hypothesis.
* **Scenario-level tests** -- the repaired-vs-unrepaired success gap on
  the message backend, repair counters in ``message_level.repair``, and
  structural invariants surviving gossip-carried references.
* **Oracle-policy tests** -- the data plane's ``repair_routes`` as a
  policy instance (disabled policy = no-op degradation baseline).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.pgrid.liveness import (
    CONFIRM_INTERVAL_MAX_S,
    CONFIRM_INTERVAL_S,
    REFRESH_PROBES,
    LivenessTracker,
    RouteRepairPolicy,
    repair_routes,
)
from repro.scenarios import (
    MessageNetConfig,
    MessageScenarioRunner,
    ScenarioRunner,
    run_scenario,
    scenario,
)
from repro.scenarios.invariants import (
    check_partition_tiling,
    check_routing_complementarity,
)
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import HEADER_BYTES, ConstantLatency, Message, Network


# -- tracker state machine ---------------------------------------------------


class TestLivenessTracker:
    def test_failure_marks_suspect_and_requests_probe(self):
        t = LivenessTracker()
        assert not t.suspected(7)
        assert t.note_failure(7) is True  # caller should probe
        assert t.suspected(7)
        assert t.suspects == 1

    def test_second_failure_does_not_request_concurrent_probe(self):
        t = LivenessTracker()
        t.note_failure(7)
        t.begin_probe(7)
        assert t.note_failure(7) is False  # probe already in flight
        assert t.suspects == 1  # one suspect, however many strikes

    def test_probe_chain_evicts_after_threshold(self):
        t = LivenessTracker()
        t.note_failure(7)  # strike 1
        nonce = t.begin_probe(7)
        assert t.probe_expired(7, nonce) == "evict"  # strike 2

    def test_fresh_probe_chain_takes_two_silences(self):
        # A confirm-on-use probe starts with no failure evidence.
        t = LivenessTracker()
        nonce = t.begin_probe(7)
        assert t.probe_expired(7, nonce) == "probe"
        nonce = t.begin_probe(7)
        assert t.probe_expired(7, nonce) == "evict"

    def test_alive_clears_suspicion_and_pending_probe(self):
        t = LivenessTracker()
        t.note_failure(7)
        nonce = t.begin_probe(7)
        t.note_alive(7, now=12.0)
        assert not t.suspected(7)
        assert t.probe_expired(7, nonce) == ""  # answered: timer is stale
        assert t.last_confirmed[7] == 12.0

    def test_stale_nonce_is_ignored(self):
        t = LivenessTracker()
        old = t.begin_probe(7)
        t.note_alive(7, now=1.0)
        new = t.begin_probe(7)
        assert t.probe_expired(7, old) == ""
        assert t.probe_expired(7, new) == "probe"

    def test_cancel_probe_voids_without_striking(self):
        t = LivenessTracker()
        nonce = t.begin_probe(7)
        t.cancel_probe(7, nonce)
        assert t.probe_expired(7, nonce) == ""
        assert not t.suspected(7)

    def test_needs_confirmation_tracks_staleness(self):
        t = LivenessTracker()
        assert t.needs_confirmation(7, now=60.0)  # never heard from
        t.note_alive(7, now=100.0)
        assert not t.needs_confirmation(7, now=130.0)
        assert t.needs_confirmation(7, now=160.0)
        t.begin_probe(7)
        assert not t.needs_confirmation(7, now=500.0)  # probe in flight

    def test_eviction_resets_state_for_gossip_readd(self):
        t = LivenessTracker()
        t.note_failure(7)
        t.begin_probe(7)
        t.note_evicted(7)
        assert t.evictions == 1
        assert not t.suspected(7)
        assert 7 not in t.probe_nonce

    @staticmethod
    def answered_probe(t, ref, now):
        t.begin_probe(ref)
        t.note_alive(ref, now)

    @staticmethod
    def interval(t, ref):
        return t.confirmed_until(ref) - t.last_confirmed.get(ref, 0.0)

    def test_answered_probes_double_the_interval_up_to_the_cap(self):
        t = LivenessTracker()
        assert not t.needs_confirmation(7, now=59.0)  # never probed:
        assert t.needs_confirmation(7, now=60.0)  # due after the base
        now = 60.0
        for expected in (120.0, 240.0, 480.0, 960.0, 960.0):
            self.answered_probe(t, 7, now)
            assert self.interval(t, 7) == expected
            assert not t.needs_confirmation(7, now + expected - 1.0)
            assert t.needs_confirmation(7, now + expected)
            now += expected
        assert CONFIRM_INTERVAL_MAX_S == 960.0

    def test_passive_traffic_refreshes_without_doubling(self):
        t = LivenessTracker()
        self.answered_probe(t, 7, 60.0)
        t.note_alive(7, now=100.0)  # no probe of ours in flight
        assert t.last_confirmed[7] == 100.0
        assert self.interval(t, 7) == 120.0
        assert t.confirmed_until(7) == 220.0

    @pytest.mark.parametrize("setback", ["strike", "silent_probe", "evict", "wipe"])
    def test_any_setback_returns_the_interval_to_the_base(self, setback):
        t = LivenessTracker()
        for now in (60.0, 180.0, 420.0):
            self.answered_probe(t, 7, now)
        assert self.interval(t, 7) == 480.0
        if setback == "strike":
            t.note_failure(7)
        elif setback == "silent_probe":
            assert t.probe_expired(7, t.begin_probe(7)) == "probe"
        elif setback == "evict":
            t.note_evicted(7, now=500.0)
        else:
            t.wipe()
        assert self.interval(t, 7) == CONFIRM_INTERVAL_S

    def test_a_suspects_answer_clears_the_strike_and_does_not_double(self):
        t = LivenessTracker()
        self.answered_probe(t, 7, 60.0)
        assert t.note_failure(7)  # back to the base, suspect
        self.answered_probe(t, 7, 200.0)
        assert not t.suspected(7)
        assert self.interval(t, 7) == CONFIRM_INTERVAL_S

    def test_wipe_forgets_beliefs_and_keeps_counters(self):
        t = LivenessTracker()
        self.answered_probe(t, 7, 60.0)
        t.note_failure(8)
        t.begin_probe(8)
        t.note_evicted(9, now=70.0)
        t.wipe()
        assert not (
            t.strikes or t.probe_nonce or t.last_confirmed
            or t.confirm_interval or t.evicted_at
        )
        assert (t.suspects, t.probes, t.evictions) == (1, 2, 1)


# -- wire-level evidence paths ----------------------------------------------


def build_wire(paths_and_keys, *, latency=0.01, loss=0.0, config=None):
    """Hand-built message-level overlay: one node per path string."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency), loss_rate=loss, rng=1)
    config = config or NodeConfig(query_retries=2, query_timeout=5.0)
    nodes = []
    for node_id, (path, keys) in enumerate(paths_and_keys):
        node = PGridNode(node_id, sim, net, config=config, rng=node_id + 1)
        node.path = Path.from_string(path)
        node.keys = set(keys)
        node.joined = True
        nodes.append(node)
    for node in nodes:
        for other in nodes:
            if other is node:
                continue
            cpl = node.path.common_prefix_length(other.path)
            if cpl < node.path.length:
                node.add_route(cpl, other.node_id)
    return sim, net, nodes


QUADRANTS = [
    ("00", [float_to_key(0.05), float_to_key(0.2)]),
    ("01", [float_to_key(0.3), float_to_key(0.45)]),
    ("10", [float_to_key(0.55), float_to_key(0.7)]),
    ("11", [float_to_key(0.8), float_to_key(0.95)]),
]


class TestWireEvidence:
    def test_refused_connect_evicts_and_query_routes_around(self):
        # Node 2 ("10") is offline; the refused connects evict it and the
        # query still succeeds through the redundancy that remains.
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[2].online = False
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))  # quadrant 11, node 3
        sim.run_until(60.0)
        assert outcomes and outcomes[0].success
        assert outcomes[0].timeouts == 0  # refused, never waited out
        # The dead node is out of node 0's table everywhere.
        assert all(2 not in refs for refs in nodes[0].routing.values())
        assert nodes[0].liveness.evictions >= 1

    def test_partition_refusal_is_visible_to_the_senders_routing_state(self):
        # Satellite fix: set_partitions drops used to be invisible to
        # the sender; now they are failure evidence like any refused
        # connect -- suspect, probe (also refused), evict.
        sim, net, nodes = build_wire(QUADRANTS)
        net.set_partitions([[0, 1], [2, 3]])
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))
        sim.run_until(60.0)
        assert net.drops_partition > 0
        assert nodes[0].liveness.suspects >= 1
        assert nodes[0].liveness.evictions >= 2  # both cross-cut refs
        assert not nodes[0].routing.get(0)  # level 0 emptied by the cut
        # The failure was locally observed end to end: the origin's own
        # dead end retries/fails immediately, no timeout window burned.
        assert outcomes and not outcomes[0].success
        assert outcomes[0].timeouts == 0
        assert outcomes[0].latency < 1.0
        assert outcomes[0].attempts == 3

    def test_heal_then_exchange_gossip_replenishes_the_level(self):
        # The full repair loop: partition evicts node 0's level-0 refs;
        # after healing, one anti-entropy exchange from node 1 gossips
        # candidates back in, and queries succeed again.
        sim, net, nodes = build_wire(QUADRANTS)
        net.set_partitions([[0, 1], [2, 3]])
        nodes[0].issue_query(float_to_key(0.85))
        sim.run_until(60.0)
        assert not nodes[0].routing.get(0)
        net.heal_partitions()
        nodes[1].initiate_exchange(0)
        sim.run_until(120.0)
        refilled = nodes[0].routing.get(0, [])
        assert set(refilled) & {2, 3}
        assert nodes[0].liveness.replacements >= 1
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))
        sim.run_until(180.0)
        assert outcomes and outcomes[0].success

    def test_pong_gossip_replenishes_depleted_levels(self):
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[0].routing[0] = []  # depleted level
        nodes[0]._send_probe(1)  # ping a live neighbor
        sim.run_until(10.0)
        # The pong carried node 1's live references; level 0 refilled.
        assert set(nodes[0].routing[0]) & {2, 3}
        assert nodes[0].liveness.replacements >= 1

    def test_gossip_only_fills_complementary_levels(self):
        # Whatever gossip installs must keep the structural invariant:
        # a reference at level l lives under path[:l] + ~path[l].
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[0].routing = {0: [], 1: []}
        nodes[1].initiate_exchange(0)
        nodes[0]._send_probe(2)
        sim.run_until(30.0)
        for level, refs in nodes[0].routing.items():
            comp = nodes[0].path.prefix(level).extend(1 - nodes[0].path.bit(level))
            for ref in refs:
                assert comp.is_prefix_of(nodes[ref].path), (level, ref)

    def test_refresh_routes_probes_stale_refs_and_evicts_the_dead(self):
        sim, net, nodes = build_wire(QUADRANTS)
        node, tracker = nodes[0], nodes[0].liveness
        assert node.routing == {0: [2, 3], 1: [1]}
        nodes[3].online = False
        sim.run_until(70.0)  # both levels have lapsed (> CONFIRM_INTERVAL_S)
        # One probe per lapsed level, to its stalest reference (ties go
        # to the lower id): 2 stands for level 0, the dead 3 is a spare.
        assert node.refresh_routes() == 2
        assert set(tracker.probe_nonce) == {1, 2}
        assert node.refresh_routes() == 0  # in flight: covered
        sim.run_until(80.0)  # pongs are back
        assert tracker.last_confirmed[1] > 0 and tracker.last_confirmed[2] > 0
        assert tracker.evictions == 0 and 3 in node.routing[0]
        # The answers doubled the wait: nothing is due at the old cadence.
        sim.run_until(140.0)
        assert node.refresh_routes() == 0
        # Next lapse: rotation reaches the dead spare, whose refused
        # connect evicts it on the spot.
        sim.run_until(195.0)
        assert node.refresh_routes() == 2
        assert tracker.evictions == 1
        assert node.routing == {0: [2], 1: [1]}
        # Level 0 is still unconfirmed; the following tick probes 2.
        assert node.refresh_routes() == 1
        assert set(tracker.probe_nonce) == {1, 2}
        sim.run_until(205.0)
        assert node.refresh_routes() == 0  # every level covered again

    def test_full_levels_get_a_header_only_pong(self):
        # Gossip on demand: a prober with nowhere to put candidates
        # does not ask for them, and the reply bills a bare header.
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        pongs = []
        on_pong = nodes[0]._on_pong
        nodes[0]._on_pong = lambda msg: (pongs.append(msg), on_pong(msg))
        assert not nodes[0]._short_of_refs()
        nodes[0]._send_probe(1)
        sim.run_until(10.0)
        assert [m.size_bytes for m in pongs] == [HEADER_BYTES]  # n_refs == 0
        assert "gossip" not in pongs[0].payload
        repair_bytes = sum(n.liveness.repair_bytes for n in nodes)
        assert repair_bytes == 2 * HEADER_BYTES  # one ping, one bare pong
        # A depleted level turns the request on.
        nodes[0].routing[0] = []
        nodes[0]._send_probe(1)
        sim.run_until(20.0)
        assert pongs[1].size_bytes > HEADER_BYTES and nodes[0].routing[0]
        assert nodes[0].liveness.replacements >= 1

    def test_repair_disabled_reproduces_blind_routing(self):
        config = NodeConfig(
            query_retries=2, query_timeout=5.0,
            repair=RouteRepairPolicy(enabled=False),
        )
        sim, net, nodes = build_wire(QUADRANTS, config=config)
        nodes[3].online = False
        outcomes = []
        nodes[0].on_query_done = lambda nid, qid, out: outcomes.append(out)
        nodes[0].issue_query(float_to_key(0.85))
        sim.run_until(120.0)
        assert outcomes and not outcomes[0].success
        assert outcomes[0].timeouts >= 1  # nobody observed the refusals
        tracker = nodes[0].liveness
        assert tracker.suspects == tracker.probes == tracker.evictions == 0
        # The dead reference is still in the table: blind forever.
        assert any(3 in refs for refs in nodes[0].routing.values())

    def test_returning_node_restarts_stalled_probe_chains(self):
        # A node that churns offline mid-probe must not leave suspects
        # stranded (suspect but unprobed = routed around forever).
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[0].liveness.note_failure(3)  # suspect, probe not started
        nodes[0].online = False
        nodes[0].set_online(True)
        assert 3 in nodes[0].liveness.probe_nonce  # chain restarted
        sim.run_until(30.0)
        assert not nodes[0].liveness.suspected(3)  # node 3 answered


# -- gossip placement against the per-level reference --------------------------


def ref_accept_gossip(node, their_path, gossip):
    """``PGridNode._accept_gossip`` as it stood before the common-prefix
    placement: every gossiped level shifted and XORed against our path
    on its own.  Kept as the reference the fuzz below compares with."""
    if not node.config.repair.enabled or not gossip:
        return
    max_refs = node.config.max_refs_per_level
    my_bits = node.path.bits
    my_len = node.path.length
    their_bits = their_path.bits
    their_len = their_path.length
    for level in sorted(gossip):
        if level >= their_len:
            continue
        p_len = level + 1
        p_bits = (their_bits >> (their_len - p_len)) ^ 1
        n = p_len if p_len < my_len else my_len
        diff = ((my_bits >> (my_len - n)) ^ (p_bits >> (p_len - n))) if n else 0
        if diff == 0:
            continue
        mine = n - diff.bit_length()
        refs = node.routing.get(mine)
        if refs is None:
            refs = node.routing.setdefault(mine, [])
        for ref in gossip[level]:
            if len(refs) >= max_refs:
                break
            if (
                ref != node.node_id
                and ref not in refs
                and not node.liveness.recently_evicted(ref, node.sim.now)
            ):
                refs.append(ref)
                node._route_lapse_at = None
                node.liveness.note_replacement()


MAX_REFS = 3
_bits = st.text("01", max_size=7)
_ref_ids = st.integers(0, 11)  # 0 is the node itself


@st.composite
def gossip_cases(draw):
    mine = draw(_bits)
    # Their path shares a prefix of ours more often than chance would.
    theirs = mine[: draw(st.integers(0, len(mine)))] + draw(_bits)
    table = draw(st.dictionaries(
        st.integers(0, 8),
        st.lists(_ref_ids.filter(bool), max_size=MAX_REFS, unique=True),
    ))
    if draw(st.booleans()):
        # A prober's usual state: every level of its path at the bound.
        for level in range(len(mine)):
            table[level] = [1 + (level + i) % 11 for i in range(MAX_REFS)]
    gossip = draw(st.dictionaries(
        st.integers(0, 8), st.lists(_ref_ids, max_size=3), max_size=6
    ))
    evicted = draw(st.sets(_ref_ids, max_size=4))
    return mine, theirs, table, gossip, evicted, draw(st.booleans())


class TestAcceptGossipAgainstReference:
    @staticmethod
    def make_node(mine, table, evicted, enabled):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), rng=1)
        config = NodeConfig(
            max_refs_per_level=MAX_REFS, repair=RouteRepairPolicy(enabled=enabled)
        )
        node = PGridNode(0, sim, net, config=config, rng=1)
        node.path = Path.from_string(mine)
        node.routing = {level: list(refs) for level, refs in table.items()}
        for ref in evicted:
            node.liveness.note_evicted(ref, sim.now)
        node.liveness.evictions = 0
        node._route_lapse_at = 1.0
        return node

    @given(case=gossip_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_table_same_counters_same_sweep_reset(self, case):
        mine, theirs, table, gossip, evicted, enabled = case
        their_path = Path.from_string(theirs)
        expected = self.make_node(mine, table, evicted, enabled)
        ref_accept_gossip(expected, their_path, gossip)
        actual = self.make_node(mine, table, evicted, enabled)
        actual._accept_gossip(their_path, gossip)
        # Same references in the same order at the same levels -- and the
        # same empty levels created on the way, in the same order.
        assert list(actual.routing.items()) == list(expected.routing.items())
        assert actual.liveness.replacements == expected.liveness.replacements
        assert actual._route_lapse_at == expected._route_lapse_at


# -- the refresh sweep against a brute-force reference --------------------------


def ref_refresh_routes(node, now=None):
    """``PGridNode.refresh_routes`` by definition: no skip cache, cover
    recomputed from the tracker's dicts.  Returns the references to
    probe, in order, and how many levels have lapsed (``now``: as if the
    sweep ran at that later instant with nothing changed in between)."""
    tracker = node.liveness
    if now is None:
        now = node.sim.now

    def last(ref):
        return tracker.last_confirmed.get(ref, 0.0)

    def covered(ref):
        if ref in tracker.probe_nonce:
            return True
        interval = tracker.confirm_interval.get(ref, CONFIRM_INTERVAL_S)
        return not tracker.suspected(ref) and now - last(ref) < interval

    stalest = [
        min(refs, key=lambda r: (last(r), r))
        for refs in node.routing.values()
        if refs and not any(covered(r) for r in refs)
    ]
    order = sorted(set(stalest), key=lambda r: (last(r), r))
    return order[:REFRESH_PROBES], len(stalest)


SWEEP_PATH = "0110100101"  # longer than REFRESH_PROBES: the cap binds
_levels = st.integers(0, len(SWEEP_PATH) - 1)
_sweep_refs = st.integers(1, 3 * len(SWEEP_PATH))
# Quarter seconds are exact in binary, so ``now - last < interval`` and
# ``now < last + interval`` cannot disagree by a rounding.
_instants = st.integers(0, 1600).map(lambda q: q / 4.0)
_waits = st.one_of(
    st.sampled_from([10.0, 59.75, 60.0, 120.0, 240.0, 480.0, 960.0]),
    st.integers(1, 2400).map(lambda q: q / 4.0),
)
# ``pick`` indexes the references in the table at that moment (plus one
# stranger), so nearly every such step lands on a live entry.
_ref_step = st.tuples(
    st.sampled_from(["heard"] * 3 + ["strike"] * 2 + ["timeout", "cancel", "evict"]),
    st.integers(0, 60),
)
_steps = st.one_of(
    # Repeated on purpose: most skip-cache bugs need "sweep, touch one
    # reference twice, wait" with no table change in between.
    *[st.tuples(st.just("advance"), _waits)] * 3,
    *[_ref_step] * 5,
    st.tuples(st.just("add_route"), _levels, _sweep_refs),
    st.tuples(
        st.just("gossip"),
        st.text("01", max_size=len(SWEEP_PATH)),
        st.dictionaries(_levels, st.lists(_sweep_refs, max_size=2), max_size=4),
    ),
    st.tuples(st.just("restart")),
)


_beliefs = st.fixed_dictionaries({
    "age": st.none() | _instants,  # since last heard from; None = never
    "interval": st.sampled_from([None, None, 120.0, 240.0, 480.0, 960.0]),
    "suspect": st.sampled_from([False, False, False, True]),
    "in_flight": st.sampled_from([False, False, False, True]),
})


@st.composite
def sweep_cases(draw):
    table = draw(st.dictionaries(
        _levels, st.lists(_sweep_refs, max_size=MAX_REFS, unique=True)
    ))
    if draw(st.booleans()):
        # More lapsed levels than one sweep may probe, no reference shared.
        for level in range(len(SWEEP_PATH)):
            table[level] = [3 * level + i for i in range(1, draw(st.integers(2, 4)))]
    refs = sorted({r for level in table.values() for r in level})
    return {
        "table": table,
        "now": draw(_instants),
        "beliefs": {ref: draw(_beliefs) for ref in refs},
        "steps": draw(st.lists(_steps, max_size=40)),
    }


def one_level_case(steps, beliefs):
    """A sweep case at t=100 whose level 0 holds ``beliefs``'s
    references: id -> (age, interval)."""
    return {
        "table": {0: sorted(beliefs)},
        "now": 100.0,
        "beliefs": {
            ref: {"age": age, "interval": interval, "suspect": False, "in_flight": False}
            for ref, (age, interval) in beliefs.items()
        },
        "steps": steps,
    }


class TestRefreshRoutesAgainstBruteForce:
    @staticmethod
    def make_node(case):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01), rng=1)
        node = PGridNode(
            0, sim, net, config=NodeConfig(max_refs_per_level=MAX_REFS), rng=1
        )
        node.path = Path.from_string(SWEEP_PATH)
        node.routing = {level: list(refs) for level, refs in case["table"].items()}
        sim.run_until(case["now"])
        tracker = node.liveness
        for ref, belief in case["beliefs"].items():
            if belief["age"] is not None:
                tracker.last_confirmed[ref] = max(0.0, sim.now - belief["age"])
            if belief["suspect"]:
                tracker.note_failure(ref)
            elif belief["interval"] is not None:
                tracker.confirm_interval[ref] = belief["interval"]
            if belief["in_flight"]:
                tracker.begin_probe(ref)
        # Probes register in the tracker but never reach the wire, so
        # only the steps below resolve them.
        sent = []
        node._send_probe = lambda ref: (sent.append(ref), tracker.begin_probe(ref))
        return node, sent

    @staticmethod
    def apply(node, step):
        tracker = node.liveness
        kind, args = step[0], step[1:]
        if kind == "advance":
            node.sim.run_until(node.sim.now + args[0])
        elif kind == "add_route":
            node.add_route(*args)
        elif kind == "gossip":
            node._accept_gossip(Path.from_string(args[0]), args[1])
        elif kind == "restart":
            node.restore_state(node.snapshot_state())
        else:
            known = sorted({r for refs in node.routing.values() for r in refs})
            known.append(99)  # a stranger
            ref = known[args[0] % len(known)]
            nonce = tracker.probe_nonce.get(ref)
            if kind == "heard":  # the pong if a probe is in flight, else passive
                node.receive(Message(ref, 0, "pong", {"nonce": nonce}, HEADER_BYTES))
            elif kind == "strike":
                node._suspect_ref(ref)
            elif kind == "evict":
                node._evict_ref(ref)
            elif nonce is not None:
                # "cancel": we were offline and could not have heard the pong.
                node.online = kind == "timeout"
                node._probe_timeout(ref, nonce)
                node.online = True

    @given(case=sweep_cases())
    # The ways a level is uncovered before the cached instant, each
    # needing a sequence random steps rarely produce.  A struck
    # reference that answers its probe is back at the base interval:
    @example(case=one_level_case([("strike", 0), ("heard", 0)], {1: (0.0, 960.0)}))
    # a probe in flight covers only until answered plus its interval:
    @example(case=one_level_case(
        [("advance", 10.0), ("heard", 0), ("advance", 120.0)], {1: (100.0, None)}
    ))
    # a cancelled probe covers nothing:
    @example(case=one_level_case([("advance", 0.25), ("cancel", 0)], {1: (100.0, None)}))
    # and evicting the covering reference leaves the stale spare.
    @example(case=one_level_case(
        [("evict", 0)], {1: (0.0, 960.0), 2: (100.0, None)}
    ))
    @settings(max_examples=300, deadline=None)
    def test_same_probes_in_the_same_order(self, case):
        node, sent = self.make_node(case)
        for step in [("advance", 0.0)] + case["steps"]:
            self.apply(node, step)
            del sent[:]  # probes a step itself started are not the sweep's
            skip_until = node._route_lapse_at
            if skip_until is not None and skip_until > node.sim.now:
                # A skip cache that outlived the step still has to hold:
                # nothing lapses before it (cover only ever runs out, so
                # the last instant before it speaks for all of them).
                assert ref_refresh_routes(node, skip_until - 0.25)[1] == 0
            expected, lapsed_levels = ref_refresh_routes(node)
            launched = node.refresh_routes()
            assert sent == expected
            assert launched == len(sent) <= min(lapsed_levels, REFRESH_PROBES)
            assert len(set(sent)) == len(sent)  # at most one per lapsed level
            if launched == 0:
                assert lapsed_levels == 0  # every non-empty level is covered


# -- scenario level ----------------------------------------------------------


class TestScenarioRepair:
    def test_repair_closes_the_mass_leave_gap(self):
        spec = scenario("mass-leave", n_peers=256, seed=23, duration_scale=0.25)
        on = run_scenario(spec, backend="message")
        off = run_scenario(
            spec,
            backend="message",
            net_config=MessageNetConfig(repair=RouteRepairPolicy(enabled=False)),
        )
        assert on.totals["success_rate"] > off.totals["success_rate"]
        repair = on.message_level["repair"]
        assert repair["enabled"]
        assert repair["probes"] > 0
        assert repair["evictions"] > 0
        assert repair["replacements"] > 0
        assert repair["repair_bytes"] > 0

    def test_repair_off_zeroes_the_counters(self):
        spec = scenario("mass-leave", n_peers=64, seed=5, duration_scale=0.1)
        off = run_scenario(
            spec,
            backend="message",
            net_config=MessageNetConfig(repair=RouteRepairPolicy(enabled=False)),
        )
        repair = dict(off.message_level["repair"])
        # The audits read ground truth whoever repairs: with nobody
        # evicting, the leavers are all still in the tables.
        assert repair.pop("dead_refs_final") > 0
        assert repair.pop("dark_levels_final") >= 0
        assert repair == {
            "enabled": False, "suspects": 0, "probes": 0,
            "evictions": 0, "replacements": 0, "repair_bytes": 0,
        }
        assert off.message_level["config"]["repair_enabled"] is False

    def test_repair_traffic_lands_in_maintenance_bandwidth(self):
        spec = scenario("mass-leave", n_peers=64, seed=5, duration_scale=0.1)
        on = run_scenario(spec, backend="message")
        off = run_scenario(
            spec,
            backend="message",
            net_config=MessageNetConfig(repair=RouteRepairPolicy(enabled=False)),
        )
        # Ping/pong/gossip are maintenance-category wire bytes (the
        # Fig. 8 split), so the repaired run pays visibly more there.
        assert on.totals["bytes_maintenance"] > off.totals["bytes_maintenance"]
        assert on.message_level["repair"]["repair_bytes"] > 0

    def test_final_audits_count_dead_refs_and_dark_levels(self):
        # The cost side of the probe budget, read from ground truth at
        # report time over the online nodes.
        spec = scenario("paper-sec51-churn", n_peers=64, seed=5, duration_scale=0.5)
        runner = MessageScenarioRunner(spec)
        repair = runner.run().message_level["repair"]
        nodes = runner.nodes
        online = [node for node in nodes.values() if node.online]
        assert len(online) < len(nodes)

        def alive(ref):
            return ref in nodes and nodes[ref].online

        dead = [
            ref for node in online for refs in node.routing.values()
            for ref in refs if not alive(ref)
        ]
        dark = [
            (node.node_id, level) for node in online
            for level in range(node.path.length)
            if not any(alive(ref) for ref in node.routing.get(level, ()))
        ]
        assert dead and dark  # churn is still on when the run ends
        assert repair["dead_refs_final"] == len(dead)
        assert repair["dark_levels_final"] == len(dark)

    @pytest.mark.parametrize("name", ["paper-sec51-churn", "mass-leave"])
    def test_gossip_carried_refs_survive_structural_invariants(self, name):
        # Gossip installs references it has never seen full paths for
        # (only a divergence prefix) -- the complementarity invariant
        # must still hold on every table of the end state.  Partition
        # tiling is asserted in refinement-tolerant mode: maintenance
        # exchanges can legitimately catch an overloaded partition
        # mid-refinement at snapshot time (parent path coexisting with
        # its children), but gaps or non-nested overlap are still bugs.
        spec = scenario(name, n_peers=48, seed=9, duration_scale=0.15)
        runner = MessageScenarioRunner(spec)
        report = runner.run()
        assert report.message_level["repair"]["probes"] > 0
        net = runner.as_network()
        check_routing_complementarity(net)
        check_partition_tiling(net, allow_refinement=True)

    def test_no_maintenance_scenario_keeps_full_invariants(self):
        # Without exchanges the ideal structure must survive a repair-
        # active churn scenario untouched (probes/evictions never move
        # paths or keys).
        from repro.scenarios import ChurnSpec, Phase, ScenarioSpec

        spec = ScenarioSpec(
            name="liveness-invariant-probe",
            phases=(
                Phase(
                    name="churny",
                    duration_s=120.0,
                    query_rate=2.0,
                    churn=ChurnSpec(
                        min_offline_s=10.0, max_offline_s=20.0,
                        min_online_s=20.0, max_online_s=40.0,
                    ),
                ),
            ),
            n_peers=32,
            seed=13,
            report_bin_s=30.0,
        )
        runner = MessageScenarioRunner(spec)
        runner.run()
        net = runner.as_network()
        check_partition_tiling(net)
        check_routing_complementarity(net)
        assert net.is_consistent()


# -- the oracle policy instance (data plane) ---------------------------------


class TestOraclePolicy:
    def test_disabled_policy_is_a_noop(self):
        import random

        from repro.pgrid.network import PGridNetwork
        from repro.workloads.datasets import workload_keys

        rand = random.Random(3)
        keys = [k for ks in workload_keys("U", 32, 8, seed=rand) for k in ks]
        net = PGridNetwork.ideal(keys, 32, d_max=40, n_min=3, rng=rand)
        victim = next(iter(net.peers.values()))
        victim.online = False
        before = {
            pid: {lvl: list(refs) for lvl, refs in p.routing.levels.items()}
            for pid, p in net.peers.items()
        }
        assert repair_routes(
            net, policy=RouteRepairPolicy(enabled=False), rng=1
        ) == 0
        after = {
            pid: {lvl: list(refs) for lvl, refs in p.routing.levels.items()}
            for pid, p in net.peers.items()
        }
        assert before == after
        assert repair_routes(net, policy=RouteRepairPolicy(), rng=1) > 0

    def test_dataplane_runner_routes_maintenance_through_the_policy(self):
        spec = scenario("mass-leave", n_peers=64, seed=5, duration_scale=0.1)
        repaired = ScenarioRunner(spec).run()
        blind = ScenarioRunner(
            spec, repair_policy=RouteRepairPolicy(enabled=False)
        ).run()
        assert repaired.totals["repairs"] > 0
        assert blind.totals["repairs"] == 0
        assert (
            repaired.totals["success_rate"] >= blind.totals["success_rate"]
        )
