"""The unified liveness & route-repair subsystem (pgrid.liveness).

Four layers:

* **Table unit tests** -- the suspect -> probe -> evict state machine
  and the per-reference confirm interval on a bare
  :class:`ReferenceTable` (no node, no simulator); under Hypothesis,
  its gossip placement, its refresh sweep (skip cache included) and its
  trusted pick against references kept in this file.
* **Wire protocol tests** -- hand-built overlays driving the evidence
  paths: refused connects, partition refusals (set_partitions drops are
  *visible* to the sender's routing state), pings decided by their
  connect (no pong awaited, no timer), confirm-by-connect on use (a
  ping only for a node short of references), gossip replenishment on
  exchanges and (on demand) pongs, asked for only where the pong can
  place it, and the per-level refresh sweep, sent in level order.
* **Scenario-level tests** -- query success through ``mass-leave`` on
  the message backend, repair counters in ``message_level.repair``,
  probe bytes billed as maintenance, and structural invariants
  surviving gossip-carried references.
* **Oracle-evidence tests** -- the data plane's ``repair_routes`` sweep
  and the runner's maintenance going through it.
"""

import os
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import KEY_BITS, float_to_key
from repro.pgrid.liveness import (
    CONFIRM_INTERVAL_MAX_S,
    CONFIRM_INTERVAL_S,
    EVICT_AFTER,
    REFRESH_PROBES,
    ReferenceTable,
    repair_routes,
)
from repro.scenarios import (
    MessageScenarioRunner,
    ScenarioRunner,
    run_scenario,
    scenario,
)
from repro.scenarios.invariants import (
    check_partition_tiling,
    check_routing_complementarity,
)
from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.stats import StatsCollector
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
        assert t.strike(7, now=0.0) is True  # caller should probe
        assert t.suspected(7)
        assert t.suspects == 1

    def test_second_strike_is_decided_not_probed_again(self):
        t = table_of(7)
        t.strike(7, now=0.0)
        assert t.strike(7, now=0.0) is False  # evicted: nothing left to probe
        assert t.suspects == 1  # one suspect, however many strikes

    def test_evict_after_strikes_threshold(self):
        t = table_of(7)
        for _ in range(EVICT_AFTER - 1):
            assert t.strike(7, now=5.0)
            assert 7 in t
        assert not t.strike(7, now=5.0)
        assert 7 not in t and t.evictions == 1
        assert t.recently_evicted(7, now=5.0)

    def test_an_answered_probe_restarts_the_strike_count(self):
        # A probe's accepted connect is the answer: the strikes before
        # it do not count toward the next eviction.
        t = table_of(7)
        t.strike(7, now=0.0)
        t.note_answered(7, now=1.0)
        assert not t.suspected(7)
        assert t.strike(7, now=2.0)
        assert 7 in t and t.evictions == 0

    def test_alive_clears_suspicion(self):
        t = table_of(7)
        t.strike(7, now=0.0)
        t.note_alive(7, now=12.0)
        assert not t.suspected(7)
        assert t.last_confirmed[7] == 12.0
        assert t.strike(7, now=13.0) and 7 in t  # the count starts over

    def test_needs_confirmation_tracks_staleness(self):
        t = table_of(7)
        assert t.needs_confirmation(7, now=60.0)  # never heard from
        t.note_alive(7, now=100.0)
        assert not t.needs_confirmation(7, now=130.0)
        assert t.needs_confirmation(7, now=160.0)
        t.note_answered(7, now=160.0)  # the accepted connect of a probe
        assert not t.needs_confirmation(7, now=279.0)
        assert t.needs_confirmation(7, now=280.0)

    def test_eviction_resets_state_for_gossip_readd(self):
        t = table_of(7)
        t.strike(7, now=0.0)
        t.evict(7, now=0.0)
        assert t.evictions == 1 and 7 not in t
        assert not t.suspected(7)
        assert t.recently_evicted(7, now=59.0) and not t.recently_evicted(7, now=60.0)

    def test_evicting_a_displaced_reference_only_clears_its_state(self):
        # Small fix kept from PR 18: the reference left the table while
        # it was suspect (newer references displaced it).
        t = ReferenceTable(0, 1)
        t.add(0, 7)
        t.strike(7, now=0.0)
        t.add(0, 8)  # bound 1: displaces 7
        t.evict(7, now=5.0)
        assert t.evictions == 0 and not t.evicted_at
        assert not t.suspected(7)

    def test_evidence_against_a_stranger_is_dropped(self):
        t = table_of(7)
        assert t.strike(8, now=0.0) is False
        assert not t.suspected(8) and t.suspects == 0

    def test_the_owner_is_never_its_own_reference(self):
        t = table_of(7)
        assert not t.add(0, 0) and 0 not in t

    @staticmethod
    def interval(t, ref):
        return t.confirmed_until(ref) - t.last_confirmed.get(ref, 0.0)

    def test_answered_probes_double_the_interval_up_to_the_cap(self):
        t = table_of(7)
        assert not t.needs_confirmation(7, now=59.0)  # never probed:
        assert t.needs_confirmation(7, now=60.0)  # due after the base
        now = 60.0
        for expected in (120.0, 240.0, 480.0, 960.0, 960.0):
            t.note_answered(7, now)
            assert self.interval(t, 7) == expected
            assert not t.needs_confirmation(7, now + expected - 1.0)
            assert t.needs_confirmation(7, now + expected)
            now += expected
        assert CONFIRM_INTERVAL_MAX_S == 960.0

    def test_passive_traffic_refreshes_without_doubling(self):
        t = table_of(7)
        t.note_answered(7, 60.0)
        t.note_alive(7, now=100.0)  # not a probe of ours
        assert t.last_confirmed[7] == 100.0
        assert self.interval(t, 7) == 120.0
        assert t.confirmed_until(7) == 220.0

    @pytest.mark.parametrize("setback", ["strike", "evict", "wipe", "restore"])
    def test_any_setback_returns_the_interval_to_the_base(self, setback):
        t = table_of(7)
        for now in (60.0, 180.0, 420.0):
            t.note_answered(7, now)
        assert self.interval(t, 7) == 480.0
        if setback == "strike":
            t.strike(7, now=500.0)
        elif setback == "evict":
            t.evict(7, now=500.0)
        elif setback == "wipe":
            t.wipe()
        else:  # a warm restart: what a snapshot keeps comes back
            t.restore(t.levels, *t.belief_ages(500.0), 500.0)
        assert self.interval(t, 7) == CONFIRM_INTERVAL_S

    def test_a_suspects_answer_clears_the_strike_and_does_not_double(self):
        t = table_of(7)
        t.note_answered(7, 60.0)
        assert t.strike(7, now=100.0)  # back to the base, suspect
        t.note_answered(7, 200.0)
        assert not t.suspected(7)
        assert self.interval(t, 7) == CONFIRM_INTERVAL_S

    def test_wipe_forgets_beliefs_and_keeps_levels_and_counters(self):
        t = table_of(7, 8, 9)
        t.note_answered(7, 60.0)
        t.strike(8, now=60.0)
        t.evict(9, now=70.0)
        t.wipe()
        assert not (
            t.strikes or t.last_confirmed or t.confirm_interval or t.evicted_at
        )
        assert t.levels == {0: [7, 8]}
        assert (t.suspects, t.evictions) == (1, 1)

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
        # Their accepted connects answered them: both confirmed at once.
        assert tracker.last_confirmed[1] == tracker.last_confirmed[2] == 70.0
        assert node.refresh_routes() == 0  # covered
        assert tracker.evictions == 0 and 3 in node.routing[0]
        # The answers doubled the wait: nothing is due at the old cadence.
        sim.run_until(140.0)
        assert node.refresh_routes() == 0
        # Next lapse: rotation reaches the dead spare, whose refused
        # connects evict it on the spot.
        sim.run_until(195.0)
        assert node.refresh_routes() == 2
        assert tracker.evictions == 1
        assert node.routing == {0: [2], 1: [1]}
        # Level 0 is still unconfirmed; the following tick probes 2.
        assert node.refresh_routes() == 1
        assert tracker.last_confirmed[2] == 195.0
        assert node.refresh_routes() == 0  # every level covered again

    def test_full_levels_get_no_pong(self):
        # Gossip on demand: a prober with nowhere to put candidates
        # does not ask for them, and nothing answers its ping.
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        pongs = []
        on_pong = nodes[0]._on_pong
        nodes[0]._on_pong = lambda msg: (pongs.append(msg), on_pong(msg))
        assert not nodes[0].liveness.short_of_refs(nodes[0].path.length)
        nodes[0]._send_probe(1)
        sim.run_until(10.0)
        assert pongs == []
        repair_bytes = sum(n.liveness.repair_bytes for n in nodes)
        assert repair_bytes == HEADER_BYTES  # one ping, nothing back
        # A depleted level turns the request on.
        nodes[0].routing[0] = []
        nodes[0]._send_probe(1)
        sim.run_until(20.0)
        assert pongs[0].size_bytes > HEADER_BYTES and nodes[0].routing[0]
        assert nodes[0].liveness.replacements >= 1

    def test_returning_node_probes_its_suspects(self):
        # A node that was offline when a strike landed must not leave
        # the suspect stranded (suspect but unprobed = routed around
        # forever).
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[0].liveness.strike(3, sim.now)  # suspect, probe not started
        nodes[0].online = False
        nodes[0].set_online(True)
        assert not nodes[0].liveness.suspected(3)  # node 3's connect answered


def record_sends(net):
    """Every ``(src, dst, kind, payload)`` put to ``net`` from now on."""
    sent = []
    send = net.send

    def spy(src, dst, kind, payload, **kwargs):
        sent.append((src, dst, kind, payload))
        return send(src, dst, kind, payload, **kwargs)

    net.send = spy
    return sent


def forward_query(sim, node, key):
    """Issue a query at ``node`` and run only its first forward (the
    zero-delay first attempt; nothing is delivered yet)."""
    node.issue_query(key)
    sim.run_until(sim.now + 0.001)


class _FirstPick(random.Random):
    """A node rng that always picks a level's first reference."""

    def _randbelow(self, n):
        return 0


class TestConfirmByConnect:
    """A forward through a reference whose confirmation has lapsed is the
    probe: its accepted connect confirms it as an answered ping would."""

    KEY = float_to_key(0.9)  # leaves "00" at level 0

    def test_accepted_connect_confirms_without_a_ping(self):
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        node, table = nodes[0], nodes[0].liveness
        assert node.routing == {0: [3], 1: [1]}
        assert not table.short_of_refs(node.path.length)
        sim.run_until(70.0)
        assert table.needs_confirmation(3, sim.now)
        sent = record_sends(net)
        forward_query(sim, node, self.KEY)
        assert [(s, d, k) for s, d, k, _ in sent] == [(0, 3, P.QUERY)]
        assert table.last_confirmed[3] == 70.0
        assert table.confirmed_until(3) == 70.0 + 2 * CONFIRM_INTERVAL_S
        assert table.probes == 0

    def test_refused_connect_still_strikes_probes_and_repicks(self):
        sim, net, nodes = build_wire(
            [("0", []), ("10", []), ("11", [self.KEY])],
            config=NodeConfig(max_refs_per_level=2),
        )
        node, table = nodes[0], nodes[0].liveness
        node.rng = _FirstPick()
        assert node.routing == {0: [1, 2]}
        assert not table.short_of_refs(node.path.length)
        nodes[1].online = False
        sim.run_until(70.0)
        sent = record_sends(net)
        forward_query(sim, node, self.KEY)
        # The refused query strikes 1 and starts its probe, whose own
        # refusal evicts it; the query is re-picked through 2.  The
        # eviction left the level short, so 2 is pinged for gossip.
        assert [(s, d, k) for s, d, k, _ in sent] == [
            (0, 1, P.QUERY), (0, 1, P.PING), (0, 2, P.PING), (0, 2, P.QUERY),
        ]
        assert (table.suspects, table.probes, table.evictions) == (1, 2, 1)
        assert node.routing == {0: [2]} and sent[2][3]["want"] is True

    def test_a_node_short_of_references_still_pings_for_gossip(self):
        # Short at level 0, the forward leaves through 1 at level 1:
        # 1's pong can reach level 0, so the use-ping asks for it.
        sim, net, nodes = build_wire(QUADRANTS)
        node, table = nodes[0], nodes[0].liveness
        node.routing = {0: [2], 1: [1]}  # short: gossip has room
        sim.run_until(70.0)
        sent = record_sends(net)
        forward_query(sim, node, float_to_key(0.4))  # leaves "00" at level 1
        assert [(s, d, k) for s, d, k, _ in sent] == [(0, 1, P.PING), (0, 1, P.QUERY)]
        assert sent[0][3]["want"] is True
        assert table.confirmed_until(1) == 70.0 + 2 * CONFIRM_INTERVAL_S
        sim.run_until(71.0)
        # The pong confirmed 1 (and backed it off) and gossiped 3.
        assert table.confirmed_until(1) > 70.0 + 2 * CONFIRM_INTERVAL_S
        assert node.routing[0] == [2, 3] and table.replacements == 1

    def test_a_restored_nodes_first_forward_confirms_the_reference(self):
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        node, table = nodes[0], nodes[0].liveness
        sim.run_until(10.0)
        node.restore_state(node.snapshot_state())
        assert table.needs_confirmation(3, sim.now)  # restored unconfirmed
        sent = record_sends(net)
        forward_query(sim, node, self.KEY)
        assert [k for _, _, k, _ in sent] == [P.QUERY]
        assert not table.needs_confirmation(3, sim.now)
        assert table.confirmed_until(3) == 10.0 + 2 * CONFIRM_INTERVAL_S


class TestConnectIsTheVerdict:
    """Every probe is decided the instant its ``ping`` is sent: an
    accepted connect (delivered or lost) answers it, a refused one
    strikes, and nothing waits for a ``pong`` or arms a timer."""

    def test_a_sweep_probe_is_one_ping_no_pong_and_no_timer(self):
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        node, table = nodes[0], nodes[0].liveness
        assert node.routing == {0: [3], 1: [1]}
        sim.run_until(70.0)
        pending = sim.pending
        sent = record_sends(net)
        assert node.refresh_routes() == 2
        sim.run_until(71.0)  # both pings delivered
        # In level order, not staleness order (both were never heard
        # from, and the lower id would go first).
        assert [(s, d, k) for s, d, k, _ in sent] == [(0, 3, P.PING), (0, 1, P.PING)]
        assert sim.pending == pending
        for ref in (1, 3):
            assert table.last_confirmed[ref] == 70.0
            assert table.confirmed_until(ref) == 70.0 + 2 * CONFIRM_INTERVAL_S

    def test_a_ping_for_gossip_confirms_at_send_and_its_pong_replenishes(self):
        sim, net, nodes = build_wire(QUADRANTS)
        node, table = nodes[0], nodes[0].liveness
        node.routing = {0: [2], 1: [1]}  # short: gossip has room
        sim.run_until(70.0)
        node._send_probe(2)
        assert table.confirmed_until(2) == 70.0 + 2 * CONFIRM_INTERVAL_S
        assert node.routing[0] == [2]
        sim.run_until(71.0)
        assert node.routing[0] == [2, 3] and table.replacements == 1

    def test_a_refused_probe_evicts_at_the_send_instant(self):
        # A fresh reference takes EVICT_AFTER refused connects: the
        # sweep's ping strikes it, and the suspect's own ping evicts.
        sim, net, nodes = build_wire(QUADRANTS)
        node, table = nodes[0], nodes[0].liveness
        nodes[3].online = False
        sim.run_until(70.0)
        pending = sim.pending
        sent = record_sends(net)
        node._send_probe(3)
        assert [(s, d, k) for s, d, k, _ in sent] == [(0, 3, P.PING)] * EVICT_AFTER
        assert all(3 not in refs for refs in node.routing.values())
        assert (table.suspects, table.evictions) == (1, 1)
        assert not table.suspected(3) and sim.pending == pending

    @pytest.mark.parametrize("use", ["ping", "forward"])
    def test_a_lost_message_confirms(self, use):
        # Loss is drawn after the refusal checks: a lost message was
        # accepted by an online destination.
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        node, table = nodes[0], nodes[0].liveness
        sim.run_until(70.0)
        net.loss_rate = 1.0  # every accepted connect is lost
        sent = record_sends(net)
        if use == "ping":
            node._send_probe(3)
        else:
            forward_query(sim, node, TestConfirmByConnect.KEY)
        assert [(d, k) for _, d, k, _ in sent] == [
            (3, P.PING if use == "ping" else P.QUERY)
        ]
        assert net.drops_loss == 1
        assert table.confirmed_until(3) == 70.0 + 2 * CONFIRM_INTERVAL_S

    def test_a_timed_out_suspect_that_answers_is_cleared_without_doubling(self):
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(
            max_refs_per_level=1, query_retries=2, query_timeout=5.0,
        ))
        node, table = nodes[0], nodes[0].liveness
        table.note_answered(3, 0.0)  # earned a longer wait
        net.loss_rate = 1.0  # the query to 3 is lost ...
        node.issue_query(TestConfirmByConnect.KEY)
        sim.run_until(1.0)
        net.loss_rate = 0.0  # ... but 3 is alive and answers the probe
        sent = record_sends(net)
        sim.run_until(5.001)  # the timeout, before anything is delivered
        assert [(d, k) for _, d, k, _ in sent][:1] == [(3, P.PING)]
        assert table.suspects == 1 and not table.suspected(3)
        assert table.last_confirmed[3] == 5.0
        assert table.confirmed_until(3) == 5.0 + CONFIRM_INTERVAL_S

    def test_strikes_taken_offline_are_probed_in_id_order_on_return(self):
        sim, net, nodes = build_wire(QUADRANTS)
        node, table = nodes[0], nodes[0].liveness
        node.set_online(False)
        sent = record_sends(net)
        for ref in (3, 1, 2):
            node._suspect_ref(ref)
        assert sent == [] and sorted(table.strikes) == [1, 2, 3]
        nodes[2].online = False
        node.set_online(True)
        # Each ping is decided at once: 1 and 3 answer, 2 is evicted.
        assert [(d, k) for _, d, k, _ in sent] == [
            (1, P.PING), (2, P.PING), (3, P.PING),
        ]
        assert not table.strikes
        assert table.evictions == 1 and node.routing == {0: [3], 1: [1]}


class TestWantBoundedByTheReferencesLevel:
    """A ``ping`` to a reference at our level ``k`` asks for gossip iff
    one of our levels ``0..k`` -- all its ``pong`` can reach -- is short."""

    def test_a_ping_above_every_short_level_does_not_ask(self):
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        node = nodes[0]
        node.routing = {0: [3], 1: []}  # short at level 1 only
        sent = record_sends(net)
        node._send_probe(3)
        sim.run_until(1.0)
        assert sent == [(0, 3, P.PING, {"want": False})]  # and no pong

    @pytest.mark.parametrize("short", ["at", "below"])
    def test_a_ping_at_or_below_a_short_level_asks_and_its_pong_replenishes(self, short):
        if short == "at":  # 2 stands at the short level 0
            max_refs, routing, ref, refilled = 2, {0: [2], 1: [1]}, 2, [2, 3]
        else:  # 1 stands at level 1, below the short level 0
            max_refs, routing, ref, refilled = 1, {0: [], 1: [1]}, 1, [3]
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=max_refs))
        node = nodes[0]
        node.routing = routing
        sent = record_sends(net)
        node._send_probe(ref)
        sim.run_until(1.0)
        assert [(s, d, k) for s, d, k, _ in sent] == [(0, ref, P.PING), (ref, 0, P.PONG)]
        assert sent[0][3] == {"want": True}
        assert node.routing[0] == refilled and node.liveness.replacements == 1

    def test_a_forward_above_every_short_level_confirms_by_connect(self):
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        node, table = nodes[0], nodes[0].liveness
        node.routing = {0: [3], 1: []}  # short, but not where the key leaves
        sim.run_until(70.0)
        assert table.needs_confirmation(3, sim.now)
        sent = record_sends(net)
        forward_query(sim, node, TestConfirmByConnect.KEY)  # leaves at level 0
        assert [(s, d, k) for s, d, k, _ in sent] == [(0, 3, P.QUERY)]
        assert table.confirmed_until(3) == 70.0 + 2 * CONFIRM_INTERVAL_S
        assert table.probes == 0

    def test_a_refused_shallow_probe_evicts_and_the_deeper_probe_asks(self):
        sim, net, nodes = build_wire(QUADRANTS, config=NodeConfig(max_refs_per_level=1))
        node, table = nodes[0], nodes[0].liveness
        assert node.routing == {0: [3], 1: [1]}  # full
        nodes[1].routing[0] = [2]  # what 1's pong will gossip for level 0
        nodes[3].online = False
        sim.run_until(70.0)
        sent = record_sends(net)
        assert node.refresh_routes() == 2
        # Level 0 first: its refused probes evict 3 and leave the level
        # empty before level 1's ping goes out, so that ping asks.
        assert [(d, k, p) for _, d, k, p in sent] == [
            (3, P.PING, {"want": False}),
            (3, P.PING, {"want": False}),
            (1, P.PING, {"want": True}),
        ]
        sim.run_until(71.0)
        assert table.evictions == 1 and table.replacements == 1
        assert node.routing == {0: [2], 1: [1]}


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

    @given(case=gossip_cases())
    @settings(max_examples=int(FUZZ_EXAMPLES or 400), deadline=None)
    def test_a_responder_diverging_at_bit_k_places_at_levels_0_to_k_only(self, case):
        # The lemma behind ``wants_gossip``: the pong of a reference at
        # our level k can only ever change our levels 0..k.
        mine, theirs, levels, gossip, evicted = case
        k = Path.from_string(theirs).common_prefix_length(Path.from_string(mine))
        assume(k < len(mine))
        # Diverge at bit k (a no-op unless theirs is a prefix of mine).
        theirs = theirs[:k] + "10"[int(mine[k])] + theirs[k + 1:]
        path, their_path = Path.from_string(mine), Path.from_string(theirs)
        table = self.make_table(levels, evicted)
        table.accept_gossip(path, their_path, gossip, 0.0)

        def deeper(by_level):
            return {level: refs for level, refs in by_level.items() if level > k}

        assert deeper(table.levels) == deeper(levels)


# -- the refresh sweep against a brute-force reference --------------------------


def ref_refresh_routes(table, now):
    """``ReferenceTable.due`` by definition: no skip cache, cover
    recomputed from the belief dicts.  Returns the references to probe
    at ``now``, in order, and how many levels have lapsed."""

    def last(ref):
        return table.last_confirmed.get(ref, 0.0)

    def covered(ref):
        interval = table.confirm_interval.get(ref, CONFIRM_INTERVAL_S)
        return not table.suspected(ref) and now - last(ref) < interval

    # The stalest reference of each lapsed level, by ascending level.
    stalest = [
        min(refs, key=lambda r: (last(r), r))
        for _, refs in sorted(table.levels.items())
        if refs and not any(covered(r) for r in refs)
    ]
    chosen = sorted(set(stalest), key=lambda r: (last(r), r))[:REFRESH_PROBES]
    # Sent in level order: a reference standing for two levels goes at
    # the shallower.
    return sorted(chosen, key=stalest.index), len(stalest)


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
    st.sampled_from(["heard"] * 3 + ["strike"] * 2 + ["answered", "evict"]),
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
        # The references whose connect is refused when the sweep probes them.
        "refused": draw(st.sets(_sweep_refs, max_size=SWEEP_DEPTH)),
    }


def one_level_case(steps, beliefs, refused=()):
    """A sweep case at t=100 whose level 0 holds ``beliefs``'s
    references: id -> (age, interval)."""
    return {
        "table": {0: sorted(beliefs)},
        "now": 100.0,
        "beliefs": {
            ref: {"age": age, "interval": interval, "suspect": False}
            for ref, (age, interval) in beliefs.items()
        },
        "steps": steps,
        "refused": set(refused),
    }


class TestRefreshRoutesAgainstBruteForce:
    """The table alone, driven the way ``PGridNode`` drives it: a probe
    is decided at its connect, refused for the case's ``refused``
    references and answered for the rest -- except that a strike is
    left standing, as one taken while the node is offline is."""

    @staticmethod
    def make_table(case):
        table = ReferenceTable(0, MAX_REFS)
        table.install(case["table"])
        now = case["now"]
        for ref, belief in case["beliefs"].items():
            if belief["age"] is not None:
                table.last_confirmed[ref] = max(0.0, now - belief["age"])
            if belief["suspect"]:
                table.strike(ref, now)
            elif belief["interval"] is not None:
                table.confirm_interval[ref] = belief["interval"]
        return table

    @staticmethod
    def probe(table, ref, now, refused):
        """What ``PGridNode._send_probe`` tells the table: a refused
        connect strikes, and the suspect's own probe is refused too,
        until the strikes evict."""
        if ref in refused:
            while table.strike(ref, now):
                pass
        else:
            table.note_answered(ref, now)

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
            if kind == "heard":  # passive traffic
                table.note_alive(ref, now)
            elif kind == "strike":  # taken offline: no probe decides it yet
                table.strike(ref, now)
            elif kind == "answered":  # a forward's accepted connect
                table.note_answered(ref, now)
            else:
                table.evict(ref, now)
        return now

    @given(case=sweep_cases())
    # The ways a level is uncovered before the cached instant, each
    # needing a sequence random steps rarely produce.  A struck
    # reference that answers is back at the base interval:
    @example(case=one_level_case([("strike", 0), ("heard", 0)], {1: (0.0, 960.0)}))
    @example(case=one_level_case([("strike", 0), ("answered", 0)], {1: (0.0, 960.0)}))
    # an answered sweep probe covers for its doubled interval only:
    @example(case=one_level_case(
        [("advance", 10.0), ("heard", 0), ("advance", 120.0)], {1: (100.0, None)}
    ))
    # a strike uncovers the level the sweep's probe had just covered:
    @example(case=one_level_case([("advance", 0.25), ("strike", 0)], {1: (100.0, None)}))
    # a refused sweep probe evicts, and the spare is due at once:
    @example(case=one_level_case([], {1: (100.0, None), 2: (10.0, None)}, refused={1}))
    # evicting the covering reference leaves the stale spare:
    @example(case=one_level_case(
        [("evict", 0)], {1: (0.0, 960.0), 2: (100.0, None)}
    ))
    # probes go out in level order, whatever the staleness or the order
    # the levels were created in:
    @example(case={
        "table": {1: [1]},
        "now": 100.0,
        "beliefs": {1: {"age": 0.0, "interval": 960.0, "suspect": False}},
        "steps": [("add", 0, 2), ("advance", 960.0)],
        "refused": set(),
    })
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
                self.probe(table, ref, now, case["refused"])


# -- the trusted pick against a filter-then-randrange reference -----------------


def ref_pick(refs, strikes, rng):
    """The per-hop pick as the wire node made it before the table had
    one: ``refs`` is the level's list (or None), ``strikes`` the
    suspects, one ``randrange`` per non-empty level."""
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
def test_pick_draws_what_ref_pick_draws(levels, suspects, seed, asked):
    table = ReferenceTable(0, 4)
    table.install(levels)
    for ref in suspects:
        table.strike(ref, 0.0)  # strangers stay out of ``strikes``
    assert set(table.strikes) == suspects & set(table.all_refs())
    ours, theirs = random.Random(seed), random.Random(seed)
    for level in asked:
        assert table.pick(level, ours, None) == ref_pick(
            table.levels.get(level), table.strikes, theirs
        )
    assert ours.getstate() == theirs.getstate()  # draw for draw


# -- the key-aware pick of a first attempt --------------------------------------


def key_in(bits):
    """The lowest key under the path ``bits``."""
    return Path.from_string(bits).key_range(KEY_BITS)[0]


#: (case, level, key path, {ref: known path or None}, suspects, the refs
#: that may win).  The owner's path is all zeros, so a reference at
#: ``level`` lives under ``0 * level + "1"``.
PICK_CASES = [
    ("the deepest path the key is inside wins",
     0, "10110", {1: "10", 2: "1011", 3: None}, (), {2}),
    ("a longer partial match beats an unknown path",
     0, "10110", {1: "111", 2: None, 3: "100"}, (), {3}),
    ("a path the key is inside beats any partial match",
     0, "10110", {1: "101111", 2: "10"}, (), {2}),
    ("an unknown path counts as level + 1 bits",
     2, "00110", {1: None, 2: "0010"}, (), {1, 2}),
    ("...so a match one bit deeper beats it",
     2, "00110", {1: None, 2: "00111"}, (), {2}),
    ("unknown paths tie among themselves",
     1, "011", {1: None, 2: None, 3: None}, (), {1, 2, 3}),
    ("a suspect is routed around",
     0, "10110", {1: "1011", 2: None}, (1,), {2}),
    ("...unless every reference is suspect",
     0, "10110", {1: "1011", 2: None}, (1, 2), {1}),
    ("one reference is the only choice",
     3, "00011", {4: "00010"}, (), {4}),
]


def pick_table(level, known, suspects):
    table = ReferenceTable(0, 4)
    table.install({level: list(known)})
    for ref, path in known.items():
        if path is not None:
            table.note_path(ref, Path.from_string(path))
    for ref in suspects:
        table.strike(ref, 0.0)
    return table


@pytest.mark.parametrize(
    "level,key,known,suspects,winners",
    [case[1:] for case in PICK_CASES],
    ids=[case[0] for case in PICK_CASES],
)
def test_a_key_picks_the_best_known_match(level, key, known, suspects, winners):
    table = pick_table(level, known, suspects)
    picked = {table.pick(level, random.Random(seed), key_in(key)) for seed in range(40)}
    assert picked == winners  # every tied winner is reachable, nothing else


@pytest.mark.parametrize(
    "known,draws",
    [({1: None, 2: None, 3: "100"}, 0), ({1: None, 2: None}, 1), ({1: "11", 2: "11"}, 1)],
)
def test_a_tie_costs_one_draw_and_a_single_best_none(known, draws):
    table = pick_table(0, known, ())
    ours, theirs = random.Random(7), random.Random(7)
    picked = table.pick(0, ours, key_in("1000"))
    if draws:
        tied = [ref for ref in known]
        assert picked == tied[theirs._randbelow(len(tied))]
    assert ours.getstate() == theirs.getstate()


def test_a_key_on_an_empty_level_finds_nothing_and_draws_nothing():
    table = pick_table(0, {1: None}, ())
    rng = random.Random(3)
    state = rng.getstate()
    assert table.pick(4, rng, key_in("0000111")) is None
    assert rng.getstate() == state


class TestKnownPaths:
    """The map from each reference to its known path: filled by the
    bootstrap, by a sponsored placement and by the path a ``pong`` or
    an exchange carries; dropped wherever the reference leaves."""

    def test_bootstrap_shares_the_blueprints_paths(self):
        blueprint = [Path.from_string(p) for p in ("00", "01", "10", "11")]
        table = ReferenceTable(0, 4)
        table.bootstrap({0: [2, 3], 1: [1]}, blueprint)
        # A pick reads the blueprint before anything is built per reference.
        assert table.pick(0, random.Random(1), key_in("11")) == 3
        known = table.known_paths()
        assert known == {1: blueprint[1], 2: blueprint[2], 3: blueprint[3]}
        assert all(known[r] is blueprint[r] for r in (1, 2, 3))

    @pytest.mark.parametrize("change", ["add", "gossip", "remove", "evict"])
    def test_only_the_drawn_references_get_blueprint_paths(self, change):
        # The first change to a level comes before any read of the map:
        # a reference it adds is unknown, one it removes is forgotten.
        blueprint = [Path.from_string(p) for p in ("000", "001", "01", "10", "11")]
        table = ReferenceTable(0, 4)
        table.bootstrap({0: [3], 1: [2]}, blueprint)
        if change == "add":
            table.add(0, 4)
        elif change == "gossip":  # node 1 ("001") gossips 4 for its level 0
            table.accept_gossip(blueprint[0], blueprint[1], {0: [4]}, now=0.0)
        elif change == "remove":
            table.remove(3)
        else:
            for _ in range(EVICT_AFTER):
                table.strike(3, 0.0)
        expected = {2: blueprint[2], 3: blueprint[3]}
        if change in ("add", "gossip"):
            assert 4 in table.levels[0]
        else:
            del expected[3]
        assert table.known_paths() == expected

    def test_a_path_is_learned_from_references_only(self):
        table = table_of(7)
        table.note_path(7, Path.from_string("10"))
        table.note_path(8, Path.from_string("11"))  # a stranger
        assert table.ref_paths == {7: Path.from_string("10")}
        table.note_path(7, Path.from_string("101"))
        assert table.ref_paths == {7: Path.from_string("101")}

    def test_eviction_removal_and_displacement_drop_the_path(self):
        table = ReferenceTable(0, 2)
        table.install({0: [1, 2], 1: [2]})
        table.note_path(1, Path.from_string("1"))
        table.note_path(2, Path.from_string("1"))
        table.add(0, 3)  # displaces 1, the oldest, from its only level
        assert set(table.ref_paths) == {2}
        table.add(0, 4)  # displaces 2 from level 0; it is still at level 1
        assert set(table.ref_paths) == {2}
        for _ in range(EVICT_AFTER):
            table.strike(2, 0.0)
        assert 2 not in table and table.ref_paths == {}

    def test_adopt_copies_levels_and_paths(self):
        sponsor = ReferenceTable(5, 4)
        sponsor.install({0: [1], 1: [2]})
        sponsor.note_path(2, Path.from_string("01"))
        node = ReferenceTable(6, 4)
        node.adopt(sponsor)
        assert node.levels == sponsor.levels and node.levels is not sponsor.levels
        assert node.ref_paths == {2: Path.from_string("01")}
        node.remove(2)
        assert sponsor.ref_paths == {2: Path.from_string("01")}  # a copy

    def test_a_restart_forgets_every_path(self):
        table = ReferenceTable(0, 4)
        table.install({0: [1, 2]})
        table.note_path(1, Path.from_string("1"))
        table.note_path(2, Path.from_string("11"))
        confirmed, evicted = table.belief_ages(now=100.0)
        table.restore(dict(table.levels), confirmed, evicted, now=200.0)
        assert table.levels == {0: [1, 2]} and table.ref_paths == {}
        table.note_path(1, Path.from_string("1"))
        table.wipe()  # a cold restart's loss of state
        assert table.ref_paths == {}
        table.note_path(1, Path.from_string("1"))
        table.install({0: [1]})  # a whole table replaced: nothing known
        assert table.ref_paths == {}


class TestFirstAttemptIsGreedy:
    """A first attempt leaves through the reference whose known path
    best matches the key; a retry draws uniformly, as every hop did
    before, so it can route around a best match that dead-ends."""

    def test_first_attempt_leaves_through_the_best_known_match(self):
        for seed in range(6):
            sim, net, nodes = build_wire(QUADRANTS)
            nodes[0].rng = random.Random(seed)
            nodes[0].liveness.note_path(2, nodes[2].path)
            nodes[0].liveness.note_path(3, nodes[3].path)
            sent = record_sends(net)
            forward_query(sim, nodes[0], float_to_key(0.85))  # quadrant 11
            assert [(d, k) for _, d, k, _ in sent] == [(3, P.QUERY)]

    def test_pong_and_exchange_teach_the_senders_path(self):
        sim, net, nodes = build_wire(QUADRANTS)
        nodes[0]._send_probe(2)  # short of references: the ping asks
        nodes[1].initiate_exchange(0)
        sim.run_until(5.0)
        known = nodes[0].liveness.ref_paths
        assert known == {2: Path.from_string("10"), 1: Path.from_string("01")}
        assert nodes[1].liveness.ref_paths == {0: Path.from_string("00")}

    def test_a_retry_routes_around_a_best_match_with_no_way_on(self):
        # Origin 0 holds G (2, known path "110": the best match for a key
        # under "111") and H (1, "10") at level 0.  G has no reference
        # onward, so attempt 1 dead-ends there; attempt 2 draws
        # uniformly -- the first reference, H, under this rng -- and H
        # reaches the owner T (3).  A greedy retry would go to G again.
        sim, net, nodes = build_wire(
            [("0", []), ("10", []), ("110", []), ("111", [float_to_key(0.9)])]
        )
        origin, h, g, t = nodes
        origin.liveness.remove(t.node_id)
        g.liveness.remove(t.node_id)
        h.liveness.remove(g.node_id)
        assert origin.routing == {0: [h.node_id, g.node_id]} and not g.routing.get(2)
        origin.liveness.note_path(h.node_id, h.path)
        origin.liveness.note_path(g.node_id, g.path)
        origin.rng = _FirstPick()
        outcomes = []
        origin.on_query_done = lambda nid, qid, out: outcomes.append(out)
        sent = record_sends(net)
        origin.issue_query(float_to_key(0.9))
        sim.run_until(60.0)
        (outcome,) = outcomes
        assert outcome.success and outcome.attempts == 2 and outcome.timeouts == 0
        first_hops = [d for src, d, k, _ in sent if src == origin.node_id and k == P.QUERY]
        assert first_hops == [g.node_id, h.node_id]


# -- scenario level ----------------------------------------------------------


class TestScenarioRepair:
    def test_repair_keeps_mass_leave_queries_answered(self):
        spec = scenario("mass-leave", n_peers=256, seed=23, duration_scale=0.25)
        report = run_scenario(spec, backend="message")
        # Measured 0.994 here; routing blindly past the leavers gave 0.803.
        assert report.totals["success_rate"] >= 0.95
        repair = report.message_level["repair"]
        assert repair["probes"] > 0
        assert repair["evictions"] > 0
        assert repair["replacements"] > 0
        assert repair["repair_bytes"] > 0

    def test_repair_traffic_lands_in_maintenance_bandwidth(self):
        # Ping/pong/gossip are maintenance-category wire bytes (the
        # Fig. 8 split): one probe bills exactly its ping and its pong
        # there, and nothing to the read or write side.
        sim, net, nodes = build_wire(QUADRANTS)
        net.stats = stats = StatsCollector()

        def billed():
            by_category = stats.bytes_by_category
            return {
                category: sum(by_category.get(category, {}).values())
                for category in (P.MAINTENANCE, P.QUERY_TRAFFIC, P.UPDATE_TRAFFIC)
            }

        nodes[0].issue_query(float_to_key(0.85))
        nodes[0].issue_insert(float_to_key(0.6))
        sim.run_until(60.0)
        before = billed()
        assert before[P.QUERY_TRAFFIC] > 0 and before[P.UPDATE_TRAFFIC] > 0
        pongs = []
        on_pong = nodes[0]._on_pong
        nodes[0]._on_pong = lambda msg: (pongs.append(msg), on_pong(msg))
        repair_bytes = sum(n.liveness.repair_bytes for n in nodes)
        nodes[0]._send_probe(1)
        sim.run_until(120.0)
        after = billed()
        [pong] = pongs
        assert pong.size_bytes > HEADER_BYTES  # short of refs: gossip rode along
        assert after[P.MAINTENANCE] - before[P.MAINTENANCE] == (
            HEADER_BYTES + pong.size_bytes
        )
        assert after[P.MAINTENANCE] - before[P.MAINTENANCE] == (
            sum(n.liveness.repair_bytes for n in nodes) - repair_bytes
        )
        assert after[P.QUERY_TRAFFIC] == before[P.QUERY_TRAFFIC]
        assert after[P.UPDATE_TRAFFIC] == before[P.UPDATE_TRAFFIC]

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


# -- the oracle-evidence sweep (data plane) ---------------------------------


class TestOraclePolicy:
    def test_sweep_replaces_a_dead_reference(self):
        import random

        from repro.pgrid.network import PGridNetwork
        from repro.workloads.datasets import workload_keys

        rand = random.Random(3)
        keys = [k for ks in workload_keys("U", 32, 8, seed=rand) for k in ks]
        net = PGridNetwork.ideal(keys, 32, d_max=40, n_min=3, rng=rand)
        victim = next(iter(net.peers.values()))
        victim.online = False
        assert repair_routes(net, rng=1) > 0
        assert not any(
            victim.peer_id in refs
            for p in net.peers.values()
            for refs in p.routing.levels.values()
        )

    def test_dataplane_runner_routes_maintenance_through_the_policy(self):
        spec = scenario("mass-leave", n_peers=64, seed=5, duration_scale=0.1)
        assert ScenarioRunner(spec).run().totals["repairs"] > 0
