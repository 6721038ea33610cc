"""The unified liveness & route-repair subsystem (pgrid.liveness).

Four layers:

* **Table unit tests** -- the suspect -> probe -> evict state machine
  and the per-reference confirm interval on a bare
  :class:`ReferenceTable` (no node, no simulator); under Hypothesis,
  its gossip placement, its refresh sweep (skip cache included) and its
  trusted pick against references kept in this file.
* **Wire protocol tests** -- hand-built overlays driving the evidence
  paths: refused connects, partition refusals (set_partitions drops are
  *visible* to the sender's routing state), ping/pong probing,
  confirm-on-use staleness probing, gossip replenishment on exchanges
  and (on demand) pongs, and the per-level refresh sweep.
* **Scenario-level tests** -- the repaired-vs-unrepaired success gap on
  the message backend, repair counters in ``message_level.repair``, and
  structural invariants surviving gossip-carried references.
* **Oracle-policy tests** -- the data plane's ``repair_routes`` as a
  policy instance (disabled policy = no-op degradation baseline).
"""

import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.pgrid.liveness import (
    CONFIRM_INTERVAL_MAX_S,
    CONFIRM_INTERVAL_S,
    REFRESH_PROBES,
    ReferenceTable,
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
from repro.simnet.transport import HEADER_BYTES, ConstantLatency, Network


#: Examples per fuzz below; the nightly workflow raises it to 5,000.
FUZZ_EXAMPLES = os.environ.get("REPRO_FUZZ_EXAMPLES")

MAX_REFS = 3


def table_of(*refs):
    """A bare table (owner 0) holding ``refs`` at level 0."""
    t = ReferenceTable(0, max(MAX_REFS, len(refs)))
    for ref in refs:
        t.add(0, ref)
    return t


# -- table state machine -----------------------------------------------------


class TestReferenceTable:
    def test_failure_marks_suspect_and_requests_probe(self):
        t = table_of(7)
        assert not t.suspected(7)
        assert t.strike(7) is True  # caller should probe
        assert t.suspected(7)
        assert t.suspects == 1

    def test_second_failure_does_not_request_concurrent_probe(self):
        t = table_of(7)
        t.strike(7)
        t.begin_probe(7)
        assert t.strike(7) is False  # probe already in flight
        assert t.suspects == 1  # one suspect, however many strikes

    def test_probe_chain_evicts_after_threshold(self):
        t = table_of(7)
        t.strike(7)  # strike 1
        nonce = t.begin_probe(7)
        assert t.probe_expired(7, nonce) == "evict"  # strike 2

    def test_fresh_probe_chain_takes_two_silences(self):
        # A confirm-on-use probe starts with no failure evidence.
        t = table_of(7)
        nonce = t.begin_probe(7)
        assert t.probe_expired(7, nonce) == "probe"
        nonce = t.begin_probe(7)
        assert t.probe_expired(7, nonce) == "evict"

    def test_alive_clears_suspicion_and_pending_probe(self):
        t = table_of(7)
        t.strike(7)
        nonce = t.begin_probe(7)
        t.note_alive(7, now=12.0)
        assert not t.suspected(7)
        assert t.probe_expired(7, nonce) == ""  # answered: timer is stale
        assert t.last_confirmed[7] == 12.0

    def test_stale_nonce_is_ignored(self):
        t = table_of(7)
        old = t.begin_probe(7)
        t.note_alive(7, now=1.0)
        new = t.begin_probe(7)
        assert t.probe_expired(7, old) == ""
        assert t.probe_expired(7, new) == "probe"

    def test_cancel_probe_voids_without_striking(self):
        t = table_of(7)
        nonce = t.begin_probe(7)
        t.cancel_probe(7, nonce)
        assert t.probe_expired(7, nonce) == ""
        assert not t.suspected(7)

    def test_needs_confirmation_tracks_staleness(self):
        t = table_of(7)
        assert t.needs_confirmation(7, now=60.0)  # never heard from
        t.note_alive(7, now=100.0)
        assert not t.needs_confirmation(7, now=130.0)
        assert t.needs_confirmation(7, now=160.0)
        t.begin_probe(7)
        assert not t.needs_confirmation(7, now=500.0)  # probe in flight

    def test_eviction_resets_state_for_gossip_readd(self):
        t = table_of(7)
        t.strike(7)
        t.begin_probe(7)
        t.evict(7, now=0.0)
        assert t.evictions == 1 and 7 not in t
        assert not t.suspected(7)
        assert 7 not in t.probe_nonce
        assert t.recently_evicted(7, now=59.0) and not t.recently_evicted(7, now=60.0)

    def test_evicting_a_displaced_reference_only_clears_its_state(self):
        # Small fix kept from PR 18: the reference left the table while
        # its probe chain ran (newer references displaced it).
        t = ReferenceTable(0, 1)
        t.add(0, 7)
        t.strike(7)
        t.begin_probe(7)
        t.add(0, 8)  # bound 1: displaces 7
        t.evict(7, now=5.0)
        assert t.evictions == 0 and not t.evicted_at
        assert not t.suspected(7) and 7 not in t.probe_nonce

    def test_evidence_against_a_stranger_is_dropped(self):
        t = table_of(7)
        assert t.strike(8) is False
        assert not t.suspected(8) and t.suspects == 0

    def test_the_owner_is_never_its_own_reference(self):
        t = table_of(7)
        assert not t.add(0, 0) and 0 not in t

    def test_unprobed_suspects_are_those_whose_chain_was_voided(self):
        t = table_of(5, 7, 9)
        for ref in (9, 5, 7):
            t.strike(ref)
        t.cancel_probe(5, t.begin_probe(5))  # we were offline
        t.begin_probe(7)
        assert t.unprobed_suspects() == [5, 9]

    @staticmethod
    def answered_probe(t, ref, now):
        t.begin_probe(ref)
        t.note_alive(ref, now)

    @staticmethod
    def interval(t, ref):
        return t.confirmed_until(ref) - t.last_confirmed.get(ref, 0.0)

    def test_answered_probes_double_the_interval_up_to_the_cap(self):
        t = table_of(7)
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
        t = table_of(7)
        self.answered_probe(t, 7, 60.0)
        t.note_alive(7, now=100.0)  # no probe of ours in flight
        assert t.last_confirmed[7] == 100.0
        assert self.interval(t, 7) == 120.0
        assert t.confirmed_until(7) == 220.0

    @pytest.mark.parametrize("setback", ["strike", "silent_probe", "evict", "wipe"])
    def test_any_setback_returns_the_interval_to_the_base(self, setback):
        t = table_of(7)
        for now in (60.0, 180.0, 420.0):
            self.answered_probe(t, 7, now)
        assert self.interval(t, 7) == 480.0
        if setback == "strike":
            t.strike(7)
        elif setback == "silent_probe":
            assert t.probe_expired(7, t.begin_probe(7)) == "probe"
        elif setback == "evict":
            t.evict(7, now=500.0)
        else:
            t.wipe()
        assert self.interval(t, 7) == CONFIRM_INTERVAL_S

    def test_a_suspects_answer_clears_the_strike_and_does_not_double(self):
        t = table_of(7)
        self.answered_probe(t, 7, 60.0)
        assert t.strike(7)  # back to the base, suspect
        self.answered_probe(t, 7, 200.0)
        assert not t.suspected(7)
        assert self.interval(t, 7) == CONFIRM_INTERVAL_S

    def test_wipe_forgets_beliefs_and_keeps_levels_and_counters(self):
        t = table_of(7, 8, 9)
        self.answered_probe(t, 7, 60.0)
        t.strike(8)
        t.begin_probe(8)
        t.evict(9, now=70.0)
        t.wipe()
        assert not (
            t.strikes or t.probe_nonce or t.last_confirmed
            or t.confirm_interval or t.evicted_at
        )
        assert t.levels == {0: [7, 8]}
        assert (t.suspects, t.probes, t.evictions) == (1, 2, 1)

    def test_install_copies_and_sorts_the_levels(self):
        t = table_of(7)
        source = {2: [4], 0: [5, 6]}
        t.install(source)
        assert list(t.levels.items()) == [(0, [5, 6]), (2, [4])]
        source[0].append(9)
        assert t.levels[0] == [5, 6]

    def test_thin_reads_the_levels_of_the_path_only(self):
        t = ReferenceTable(0, 2)
        t.install({0: [1, 2], 1: [3], 3: [], 5: []})
        assert not t.short_of_refs(0) and not t.thin(0, 1)  # root path
        assert not t.short_of_refs(1)
        assert t.short_of_refs(2) and not t.thin(2, 1)
        assert t.thin(3, 1)  # level 2 is missing altogether
        assert t.thin(4, 1)  # and level 3 is empty

    def test_audit_counts_dead_references_and_dark_levels(self):
        t = ReferenceTable(0, 3)
        t.install({0: [1, 2], 1: [3], 2: [], 4: [5, 6]})
        # 2, 3 and 6 are gone; level 4 lies beyond a 3-bit path.
        assert t.audit({1, 5, 9}, 3) == (3, 2)


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
        assert not nodes[0].liveness.short_of_refs(nodes[0].path.length)
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

    def test_repair_disabled_accepts_no_gossip(self):
        config = NodeConfig(repair=RouteRepairPolicy(enabled=False))
        sim, net, nodes = build_wire(QUADRANTS, config=config)
        nodes[0].routing = {}
        nodes[0]._accept_gossip(nodes[1].path, {0: [2, 3]})
        assert nodes[0].routing == {} and nodes[0]._gossip_refs() == ({}, 0)

    def test_returning_node_restarts_stalled_probe_chains(self):
        # A node that churns offline mid-probe must not leave suspects
        # stranded (suspect but unprobed = routed around forever).
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[0].liveness.strike(3)  # suspect, probe not started
        nodes[0].online = False
        nodes[0].set_online(True)
        assert 3 in nodes[0].liveness.probe_nonce  # chain restarted
        sim.run_until(30.0)
        assert not nodes[0].liveness.suspected(3)  # node 3 answered


# -- gossip placement against the per-level reference --------------------------


def ref_accept_gossip(table, path, their_path, gossip, now):
    """``ReferenceTable.accept_gossip`` as it stood (on the node) before
    the common-prefix placement: every gossiped level shifted and XORed
    against our path on its own.  Kept as the reference the fuzz below
    compares with."""
    if not gossip:
        return
    max_refs = table.max_refs_per_level
    my_bits = path.bits
    my_len = path.length
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
        refs = table.levels.get(mine)
        if refs is None:
            refs = table.levels.setdefault(mine, [])
        for ref in gossip[level]:
            if len(refs) >= max_refs:
                break
            if (
                ref != table.owner
                and ref not in refs
                and not table.recently_evicted(ref, now)
            ):
                refs.append(ref)
                table._lapse_at = None
                table.replacements += 1


_bits = st.text("01", max_size=7)
_ref_ids = st.integers(0, 11)  # 0 is the owner itself


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
    return mine, theirs, table, gossip, draw(st.sets(_ref_ids, max_size=4))


class TestAcceptGossipAgainstReference:
    @staticmethod
    def make_table(levels, evicted):
        table = ReferenceTable(0, MAX_REFS)
        table.install(levels)
        table.evicted_at = dict.fromkeys(evicted, 0.0)
        table._lapse_at = 1.0  # as a sweep that found every level covered left it
        return table

    @given(case=gossip_cases())
    @settings(max_examples=int(FUZZ_EXAMPLES or 400), deadline=None)
    def test_same_table_same_counters_same_sweep_reset(self, case):
        mine, theirs, levels, gossip, evicted = case
        path, their_path = Path.from_string(mine), Path.from_string(theirs)
        expected = self.make_table(levels, evicted)
        ref_accept_gossip(expected, path, their_path, gossip, 0.0)
        actual = self.make_table(levels, evicted)
        actual.accept_gossip(path, their_path, gossip, 0.0)
        # Same references in the same order at the same levels -- and the
        # same empty levels created on the way, in the same order.
        assert list(actual.levels.items()) == list(expected.levels.items())
        assert actual.replacements == expected.replacements
        assert actual._lapse_at == expected._lapse_at


# -- the refresh sweep against a brute-force reference --------------------------


def ref_refresh_routes(table, now):
    """``ReferenceTable.due`` by definition: no skip cache, cover
    recomputed from the belief dicts.  Returns the references to probe
    at ``now``, in order, and how many levels have lapsed."""

    def last(ref):
        return table.last_confirmed.get(ref, 0.0)

    def covered(ref):
        if ref in table.probe_nonce:
            return True
        interval = table.confirm_interval.get(ref, CONFIRM_INTERVAL_S)
        return not table.suspected(ref) and now - last(ref) < interval

    stalest = [
        min(refs, key=lambda r: (last(r), r))
        for refs in table.levels.values()
        if refs and not any(covered(r) for r in refs)
    ]
    order = sorted(set(stalest), key=lambda r: (last(r), r))
    return order[:REFRESH_PROBES], len(stalest)


SWEEP_PATH = Path.from_string("0110100101")
SWEEP_DEPTH = SWEEP_PATH.length  # longer than REFRESH_PROBES: the cap binds
_levels = st.integers(0, SWEEP_DEPTH - 1)
_sweep_refs = st.integers(1, 3 * SWEEP_DEPTH)
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
    st.tuples(st.just("add"), _levels, _sweep_refs),
    st.tuples(
        st.just("gossip"),
        st.text("01", max_size=SWEEP_DEPTH),
        st.dictionaries(_levels, st.lists(_sweep_refs, max_size=2), max_size=4),
    ),
    st.tuples(st.sampled_from(["restart", "wipe"])),
    st.tuples(
        st.just("install"),
        st.dictionaries(_levels, st.lists(_sweep_refs, max_size=MAX_REFS, unique=True)),
    ),
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
        for level in range(SWEEP_DEPTH):
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
    """The table alone, driven the way ``PGridNode`` drives it -- except
    that a probe, once begun, stays in flight until a step resolves it."""

    @staticmethod
    def make_table(case):
        table = ReferenceTable(0, MAX_REFS)
        table.install(case["table"])
        now = case["now"]
        for ref, belief in case["beliefs"].items():
            if belief["age"] is not None:
                table.last_confirmed[ref] = max(0.0, now - belief["age"])
            if belief["suspect"]:
                table.strike(ref)
            elif belief["interval"] is not None:
                table.confirm_interval[ref] = belief["interval"]
            if belief["in_flight"]:
                table.begin_probe(ref)
        return table

    def apply(self, table, now, step):
        """One step at ``now``; returns the time after it."""
        kind, args = step[0], step[1:]
        if kind == "advance":
            return now + args[0]
        if kind == "add":
            table.add(*args)
        elif kind == "gossip":
            table.accept_gossip(SWEEP_PATH, Path.from_string(args[0]), args[1], now)
        elif kind == "restart":  # warm: what a snapshot keeps comes back
            table.restore(table.levels, *table.belief_ages(now), now)
        elif kind == "wipe":  # cold: the references stay, every belief goes
            table.wipe()
        elif kind == "install":  # a sponsored placement
            table.install(*args)
        else:
            known = sorted(table.all_refs())
            known.append(99)  # a stranger
            ref = known[args[0] % len(known)]
            nonce = table.probe_nonce.get(ref)
            if kind == "heard":  # the pong if a probe is in flight, else passive
                table.note_alive(ref, now)
            elif kind == "strike":
                if table.strike(ref):
                    table.begin_probe(ref)
            elif kind == "evict":
                table.evict(ref, now)
            elif nonce is None:
                pass  # no probe to time out or to cancel
            elif kind == "cancel":  # we were offline, could not have heard the pong
                table.cancel_probe(ref, nonce)
            else:
                action = table.probe_expired(ref, nonce)
                if action == "probe":
                    table.begin_probe(ref)
                elif action == "evict":
                    table.evict(ref, now)
        return now

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
    # evicting the covering reference leaves the stale spare:
    @example(case=one_level_case(
        [("evict", 0)], {1: (0.0, 960.0), 2: (100.0, None)}
    ))
    # and a restart or a placement leaves nothing confirmed.
    @example(case=one_level_case([("wipe",)], {1: (0.0, 960.0)}))
    @example(case=one_level_case([("install", {0: [2]})], {1: (0.0, 960.0)}))
    @settings(max_examples=int(FUZZ_EXAMPLES or 300), deadline=None)
    def test_same_probes_in_the_same_order(self, case):
        table, now = self.make_table(case), case["now"]
        for step in [("advance", 0.0)] + case["steps"]:
            now = self.apply(table, now, step)
            skip_until = table._lapse_at
            if skip_until is not None and skip_until > now:
                # A skip cache that outlived the step still has to hold:
                # nothing lapses before it (cover only ever runs out, so
                # the last instant before it speaks for all of them).
                assert ref_refresh_routes(table, skip_until - 0.25)[1] == 0
            expected, lapsed_levels = ref_refresh_routes(table, now)
            due = table.due(now)
            assert due == expected
            assert len(due) <= min(lapsed_levels, REFRESH_PROBES)
            assert len(set(due)) == len(due)  # at most one per lapsed level
            if not due:
                assert lapsed_levels == 0  # every non-empty level is covered
            for ref in due:
                table.begin_probe(ref)


# -- the trusted pick against the node's old tail -------------------------------


def ref_pick(refs, strikes, rng):
    """The tail of ``PGridNode.route_for_key`` as it stood before the
    table had a pick: ``refs`` is the level's list (or None), ``strikes``
    the suspects, one ``randrange`` per non-empty level."""
    if not refs:
        return None
    if strikes:
        trusted = [r for r in refs if r not in strikes]
        refs = trusted or refs
    return refs[rng.randrange(len(refs))]


@given(
    levels=st.dictionaries(
        st.integers(0, 5), st.lists(st.integers(1, 9), max_size=4, unique=True)
    ),
    suspects=st.sets(st.integers(1, 9)),
    seed=st.integers(0, 2**31 - 1),
    asked=st.lists(st.integers(0, 6), min_size=1, max_size=12),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_pick_draws_the_reference_route_for_key_drew(levels, suspects, seed, asked):
    table = ReferenceTable(0, 4)
    table.install(levels)
    for ref in suspects:
        table.strike(ref)  # strangers stay out of ``strikes``
    assert set(table.strikes) == suspects & set(table.all_refs())
    ours, theirs = random.Random(seed), random.Random(seed)
    for level in asked:
        assert table.pick(level, ours) == ref_pick(
            table.levels.get(level), table.strikes, theirs
        )
    assert ours.getstate() == theirs.getstate()  # draw for draw


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
