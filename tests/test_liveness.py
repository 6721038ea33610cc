"""The unified liveness & route-repair subsystem (pgrid.liveness).

Four layers:

* **Tracker unit tests** -- the suspect -> probe -> evict state machine
  in isolation (no simulator).
* **Wire protocol tests** -- hand-built overlays driving the evidence
  paths: refused connects, partition refusals (set_partitions drops are
  *visible* to the sender's routing state), ping/pong probing,
  confirm-on-use staleness probing, and gossip replenishment on
  exchanges and pongs.
* **Scenario-level tests** -- the repaired-vs-unrepaired success gap on
  the message backend, repair counters in ``message_level.repair``, and
  structural invariants surviving gossip-carried references.
* **Oracle-policy tests** -- the data plane's ``repair_routes`` as a
  policy instance (disabled policy = no-op degradation baseline).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.pgrid.liveness import LivenessTracker, RouteRepairPolicy, repair_routes
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
from repro.simnet.transport import ConstantLatency, Network


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
        nodes[3].online = False
        sim.run_until(70.0)  # everything is stale (> confirm_interval_s)
        launched = nodes[0].refresh_routes()
        assert launched >= 3  # refs 1, 2, 3 all unconfirmed
        sim.run_until(80.0)  # pongs are back, the refused ref is out
        assert all(3 not in refs for refs in nodes[0].routing.values())
        assert nodes[0].liveness.evictions == 1
        # The live ones answered and are confirmed now.
        assert nodes[0].liveness.last_confirmed[1] > 0
        assert nodes[0].liveness.last_confirmed[2] > 0
        assert nodes[0].refresh_routes() == 0  # nothing stale anymore

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
                node._route_sweep_min_last = None
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
        node._route_sweep_min_last = 1.0
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
        assert actual._route_sweep_min_last == expected._route_sweep_min_last


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
        repair = off.message_level["repair"]
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
